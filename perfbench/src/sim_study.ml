(* The six-algorithm trace-driven simulation behind Figs. 9-13:
   infocom06_am, Registry.paper_six, four Workload.paper_spec seeds
   (1800 messages each), run through Runner at jobs=1 and again at
   jobs=2. No path is enumerated. The benchmark seed picks the four
   workload seeds, so every run simulates different messages while
   each (algorithm, seed) cell stays the same size. *)

module C = Core

let dataset = C.Dataset.infocom06_am
let entries = C.Registry.paper_six
let n_seeds = 4

type inputs = { trace : C.Trace.t; spec : C.Runner.run_spec }

let workload_seeds ~seed = List.init n_seeds (fun i -> Int64.of_int (1000 + (n_seeds * seed) + i))

let setup spans ~seed =
  let trace = Spans.with_span spans "trace.generate" (fun () -> C.Dataset.generate dataset) in
  let spec =
    {
      C.Runner.workload = C.Workload.paper_spec ~n_nodes:(C.Trace.n_nodes trace);
      seeds = workload_seeds ~seed;
    }
  in
  { trace; spec }

let cells_of_grid grid = List.length grid * n_seeds

(* Pool each algorithm's successful seeds, as Experiments.fig9 does. *)
let pool spans grid =
  Spans.with_span spans "metrics.pool" (fun () ->
      List.map
        (fun cells ->
          match List.filter_map Result.to_option cells with
          | [] -> None
          | outs -> Some (C.Metrics.pool outs))
        grid)

let failed_cells grid =
  List.fold_left (fun acc cells -> acc + List.length (List.filter Result.is_error cells)) 0 grid

let digest grid =
  Common.digest
    (List.concat_map
       (List.map (function
         | Ok o -> C.Store_codec.encode_outcome o
         | Error e -> "raised " ^ Printexc.to_string e))
       grid)

let pooled_equal a b = List.equal (Option.equal C.Metrics.equal) a b

(* Factory wrappers mark each cell's start at jobs=1, where cells run
   one after another on the calling domain: a cell lasts (in processor
   time) from its factory call to the next one or to the grid's
   return, and the words allocated between a factory's return and the
   next call are the engine run's (plus the runner's per-cell workload
   draw). An untraced round also samples the host's speed (Speed)
   there, between two cells. *)
type marks = { mutable cells : (float * float * float) list  (** t_in, words_out, words_in *) }

let wrapped ~sample marks =
  List.map
    (fun (e : C.Registry.entry) trace ->
      if sample then Speed.maybe_sample ();
      let t_in = Common.cpu () and w_in = Gc.minor_words () in
      let a = e.C.Registry.factory trace in
      marks.cells <- (t_in, Gc.minor_words (), w_in) :: marks.cells;
      a)
    entries

type round = {
  grid : (C.Engine.outcome, exn) result list list;
  pooled : C.Metrics.t option list;
  cell_s : float array;  (** Adjusted processor seconds per cell. *)
  engine_words : float;
}

let round_j1 spans inp =
  let marks = { cells = [] } in
  let t_end = ref 0. and w_end = ref 0. in
  let grid =
    Spans.with_span spans "runner.grid" (fun () ->
        Spans.with_telemetry spans (fun telemetry ->
            let g =
              C.Runner.outcomes_many_result ~jobs:1 ~telemetry ~trace:inp.trace ~spec:inp.spec
                ~factories:(wrapped ~sample:(not (Spans.enabled spans)) marks)
                ()
            in
            t_end := Common.cpu ();
            w_end := Gc.minor_words ();
            g))
  in
  let pooled = pool spans grid in
  let cells = Array.of_list (List.rev marks.cells) in
  let n = Array.length cells in
  let next i = if i + 1 < n then cells.(i + 1) else (!t_end, 0., !w_end) in
  let cell_s =
    Array.mapi
      (fun i (t_in, _, _) ->
        let t_next, _, _ = next i in
        Speed.adjusted ~c0:t_in ~c1:t_next)
      cells
  in
  let engine_words = ref 0. in
  Array.iteri
    (fun i (_, w_out, _) ->
      let _, _, w_next = next i in
      engine_words := !engine_words +. (w_next -. w_out))
    cells;
  { grid; pooled; cell_s; engine_words = !engine_words }

let round_j2 inp =
  let grid =
    C.Runner.outcomes_many_result ~jobs:2 ~trace:inp.trace ~spec:inp.spec
      ~factories:(List.map (fun (e : C.Registry.entry) -> e.C.Registry.factory) entries)
      ()
  in
  { grid; pooled = pool Spans.off grid; cell_s = [||]; engine_words = 0. }

let pinned = "3624b281fb20b1d1"

(* What a run keeps of a round once it is checked: everything but the
   outcomes. *)
type checked = { digest : int64; failed : int; kept : round }

let condense _ r = { digest = digest r.grid; failed = failed_cells r.grid; kept = { r with grid = [] } }

let run ~spans ~seed ~seconds ~trace =
  let notes = ref [] in
  let setup_s, inp =
    Common.timed_setup ~reps:61 (fun ~last -> setup (if last then spans else Spans.off) ~seed)
  in
  let all_j1_durs, all_j1 =
    Common.rounds ~min_rounds:(if trace then 2 else 1) ~seconds:(0.6 *. seconds)
      ~after:condense
      (fun i ->
        let spans = if Common.is_traced ~trace i then spans else Spans.off in
        Spans.with_span spans "bench.round" (fun () -> round_j1 spans inp))
  in
  let j1_durs, j1, tr_durs, _ = Common.split ~trace all_j1_durs all_j1 in
  let j2_durs, j2 = Common.rounds ~seconds:(0.4 *. seconds) ~after:condense (fun _ -> round_j2 inp) in
  let first = List.hd j1 in
  let cells = n_seeds * List.length entries in
  let all = all_j1 @ j2 in
  let ok_j2 =
    Common.check "jobs=2 pooled metrics equal jobs=1"
      (List.for_all (fun r -> pooled_equal r.kept.pooled first.kept.pooled) j2)
      notes
  in
  let ok_repeat =
    Common.check "every round has the same digest"
      (List.for_all (fun r -> Int64.equal r.digest first.digest) all)
      notes
  in
  let ok_pin = Common.pinned_check ~seed ~pinned ~digest:first.digest notes in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 all in
  (* jobs=1 in processor time; jobs=2 (two domains) in wall time, with
     the jobs=1 wall rate beside it for the scaling efficiency. *)
  let j1_rate = Common.rate ~ops:cells j1_durs Common.adjusted in
  let j1_wall = Common.rate ~ops:cells j1_durs Common.wall_of in
  let j2_rate = Common.rate ~ops:cells j2_durs Common.wall_of in
  let per_round = List.map (fun r -> r.kept.cell_s) j1 in
  let cell_ms = Common.median_op_ms per_round in
  let all_ms = Array.concat (List.map (Array.map (fun s -> s *. 1000.)) per_round) in
  notes :=
    List.rev_append
      [
        Printf.sprintf
          "sim_cells_per_s %.6g cells/s (median of %d rounds of %d cells, jobs=1, adjusted processor time)"
          j1_rate (Array.length j1_durs) cells;
        Printf.sprintf
          "sim_cells_per_s_j2 %.6g cells/s (jobs=2, %d rounds, wall time; jobs=1 wall %.6g; \
           scaling efficiency %.3f)"
          j2_rate (Array.length j2_durs) j1_wall
          (j2_rate /. (2. *. j1_wall));
        Printf.sprintf "per-cell adjusted processor ms (jobs=1): median %.4g; all %s" cell_ms
          (Stats.describe_tail all_ms);
        Common.describe_rounds j1_durs;
      ]
      !notes;
  let layers =
    if not trace then []
    else begin
      let aggs = Spans.aggregate spans in
      let nr = Array.length tr_durs in
      let per_round name = float_of_int (Spans.counter spans name) /. float_of_int nr in
      let total name = match List.assoc_opt name aggs with Some a -> a.Spans.total | None -> 0. in
      Common.self_per_round aggs ~rounds:nr
        [
          ("forwarding.factory_s", [ "runner.factory" ]);
          ("engine.setup_s", [ "engine.setup" ]);
          ("engine.drain_s", [ "engine.drain" ]);
          ("engine.finish_s", [ "engine.finish" ]);
          ("runner.overhead_s", [ "runner.grid"; "runner.task" ]);
          ("metrics.pool_s", [ "metrics.pool" ]);
        ]
      @ Common.self_per_round aggs ~rounds:1 [ ("trace.generate_s", [ "trace.generate" ]) ]
      @ [
          ("engine.run_s", total "engine.run" /. float_of_int nr);
          ("trace.contacts", float_of_int (C.Trace.n_contacts inp.trace));
          ("engine.events", per_round "engine.events");
          ("engine.transmissions", per_round "engine.transmissions");
          ("engine.minor_mwords", first.kept.engine_words /. 1e6);
          ("parallel.cells_per_s_j2", j2_rate);
          ("parallel.scaling_eff", j2_rate /. (2. *. j1_wall));
          ("trace_overhead_ratio", Common.overhead j1_durs tr_durs);
          ("trace_coverage", Common.coverage aggs);
        ]
    end
  in
  {
    Report.correct = ok_j2 && ok_repeat && ok_pin;
    attempted = cells * List.length all;
    failed;
    e2e = [ ("setup_s", setup_s); ("ops_per_s", j1_rate); ("op_p50_ms", cell_ms) ];
    layers;
    notes = List.rev !notes;
  }
