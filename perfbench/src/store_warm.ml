(* The sim_study grid replayed from a store that set-up filled cold:
   every (algorithm, seed) outcome is a Store lookup and a Codec
   decode, and the Engine never runs. Set-up opens a fresh store, runs
   the grid once at jobs=1 through the same per-algorithm caches
   Experiments.sim_study uses, and keeps the cold results as the
   reference every replay must equal. *)

module C = Core

let entries = Sim_study.entries

type inputs = {
  sim : Sim_study.inputs;
  trace_hash : int64;
  store : C.Store.t;
  dir : string;
  cold : (C.Engine.outcome, exn) result list list;
  cold_pooled : C.Metrics.t option list;
}

type tally = {
  mutable hits : int;
  mutable misses : int;
  mutable find_s : (float * float) list;  (** Processor-clock interval of each lookup. *)
}

let caches store ~trace_hash (sim : Sim_study.inputs) =
  List.map
    (fun (e : C.Registry.entry) ->
      C.Store_memo.runner_cache ~store ~trace_hash ~workload:sim.Sim_study.spec.C.Runner.workload
        ~algo:e.C.Registry.name ())
    entries

(* The caches with the benchmark's spans and tallies at their
   boundary. *)
let instrument spans tally (cache : C.Cache.t) =
  {
    C.Cache.find =
      (fun ~seed ->
        let a = Common.cpu () in
        let r = Spans.with_span spans "store.find" (fun () -> cache.C.Cache.find ~seed) in
        tally.find_s <- (a, Common.cpu ()) :: tally.find_s;
        (match r with
        | Some (_ : C.Engine.outcome) -> tally.hits <- tally.hits + 1
        | None -> tally.misses <- tally.misses + 1);
        r);
    store =
      (fun ~seed o -> Spans.with_span spans "store.put" (fun () -> cache.C.Cache.store ~seed o));
  }

(* The cold fill lasts over a second, so an untraced one samples the
   host's speed (Speed) between cells. *)
let factories ~sample =
  List.map
    (fun (e : C.Registry.entry) trace ->
      if sample then Speed.maybe_sample ();
      e.C.Registry.factory trace)
    entries

let grid ?(sample = false) ~stores (sim : Sim_study.inputs) =
  C.Runner.outcomes_many_result ~jobs:1 ~stores ~trace:sim.Sim_study.trace ~spec:sim.Sim_study.spec
    ~factories:(factories ~sample) ()

let setup spans ~seed ~rep =
  let sim = Sim_study.setup spans ~seed in
  let trace_hash = C.Store_key.trace_hash sim.Sim_study.trace in
  let dir = Common.scratch_dir (Printf.sprintf "store%d" rep) in
  let store = C.Store.open_ ~dir () in
  let tally = { hits = 0; misses = 0; find_s = [] } in
  let cold =
    grid ~sample:(not (Spans.enabled spans))
      ~stores:(List.map (instrument spans tally) (caches store ~trace_hash sim))
      sim
  in
  { sim; trace_hash; store; dir; cold; cold_pooled = Sim_study.pool Spans.off cold }

type round = {
  replay : (C.Engine.outcome, exn) result list list;
  pooled : C.Metrics.t option list;
  tally : tally;
}

let round spans inp =
  let tally = { hits = 0; misses = 0; find_s = [] } in
  let stores = List.map (instrument spans tally) (caches inp.store ~trace_hash:inp.trace_hash inp.sim) in
  let replay = Spans.with_span spans "runner.grid" (fun () -> grid ~stores inp.sim) in
  { replay; pooled = Sim_study.pool spans replay; tally }

(* What a run keeps of a replay once it is checked. *)
type checked = { pooled_ok : bool; digest : int64; failed : int; lookups : tally }

let condense inp r =
  {
    pooled_ok = Sim_study.pooled_equal r.pooled inp.cold_pooled;
    digest = Sim_study.digest r.replay;
    failed = Sim_study.failed_cells r.replay;
    lookups = r.tally;
  }

let pinned = "3624b281fb20b1d1"

let run ~spans ~seed ~seconds ~trace =
  let notes = ref [] in
  let rep = ref 0 in
  let previous = ref None in
  let setup_s, inp =
    Common.timed_setup ~reps:5 (fun ~last ->
        Option.iter Common.rm_rf !previous;
        incr rep;
        let inp = setup (if last then spans else Spans.off) ~seed ~rep:!rep in
        previous := Some inp.dir;
        inp)
  in
  let all_durs, all =
    Common.rounds ~min_rounds:(if trace then 2 else 1) ~seconds
      ~after:(fun _ r -> condense inp r)
      (fun i ->
        let spans = if Common.is_traced ~trace i then spans else Spans.off in
        Spans.with_span spans "bench.round" (fun () -> round spans inp))
  in
  let durs, rounds, tr_durs, traced = Common.split ~trace all_durs all in
  let cells = Sim_study.cells_of_grid inp.cold in
  let d_cold = Sim_study.digest inp.cold in
  let misses = List.fold_left (fun acc r -> acc + r.lookups.misses) 0 all in
  let ok_equal =
    Common.check "every replay's metrics equal the cold run"
      (List.for_all (fun r -> r.pooled_ok) all)
      notes
  in
  let ok_digest =
    Common.check "every replay's digest equals the cold run"
      (List.for_all (fun r -> Int64.equal r.digest d_cold) all)
      notes
  in
  let ok_hits = Common.check "no store miss while replaying" (misses = 0) notes in
  let ok_pin = Common.pinned_check ~seed ~pinned ~digest:d_cold notes in
  let failed = List.fold_left (fun acc r -> acc + r.failed) misses all in
  let rate = Common.rate ~ops:cells durs Common.adjusted in
  let per_round =
    List.map
      (fun r ->
        Array.of_list (List.rev_map (fun (c0, c1) -> Speed.adjusted ~c0 ~c1) r.lookups.find_s))
      rounds
  in
  let find_ms = Common.median_op_ms per_round in
  notes :=
    List.rev_append
      [
        Printf.sprintf
          "replay_cells_per_s %.6g cells/s (median of %d rounds of %d cells, adjusted processor time)" rate
          (Array.length durs) cells;
        Printf.sprintf "per-lookup adjusted processor ms: median %.4g; all %s" find_ms
          (Stats.describe_tail (Array.concat (List.map (Array.map (fun s -> s *. 1000.)) per_round)));
        Common.describe_rounds durs;
      ]
      !notes;
  let layers =
    if not trace then []
    else begin
      (* What the store does inside a lookup, timed on its own: the
         codec calls for the grid's outcomes, once each way. *)
      let frames =
        List.concat_map (List.filter_map Result.to_option) inp.cold
        |> List.map (fun o ->
               Spans.with_span spans "codec.encode" (fun () -> C.Store_codec.encode_outcome o))
      in
      List.iter
        (fun f ->
          match Spans.with_span spans "codec.decode" (fun () -> C.Store_codec.decode_outcome f) with
          | Ok (_ : C.Engine.outcome) -> ()
          | Error e -> Format.kasprintf failwith "codec: %a" C.Store_codec.pp_error e)
        frames;
      let aggs = Spans.aggregate spans in
      let nr = Array.length tr_durs in
      let first = List.hd traced in
      Common.self_per_round aggs ~rounds:nr
        [
          ("store.find_s", [ "store.find" ]);
          ("runner.overhead_s", [ "runner.grid" ]);
          ("metrics.pool_s", [ "metrics.pool" ]);
        ]
      @ Common.self_per_round aggs ~rounds:1
          [
            ("trace.generate_s", [ "trace.generate" ]);
            ("store.put_s", [ "store.put" ]);
            ("codec.encode_s", [ "codec.encode" ]);
            ("codec.decode_s", [ "codec.decode" ]);
          ]
      @ [
          ("trace.contacts", float_of_int (C.Trace.n_contacts inp.sim.Sim_study.trace));
          ("store.hits", float_of_int first.lookups.hits);
          ("store.misses", float_of_int first.lookups.misses);
          ("store.bytes", float_of_int (C.Store.stats inp.store).C.Store.bytes);
          ("trace_overhead_ratio", Common.overhead durs tr_durs);
          ("trace_coverage", Common.coverage aggs);
        ]
    end
  in
  Common.rm_rf inp.dir;
  {
    Report.correct = ok_equal && ok_digest && ok_hits && ok_pin;
    attempted = cells * List.length all;
    failed;
    e2e = [ ("setup_s", setup_s); ("ops_per_s", rate); ("op_p50_ms", find_ms) ];
    layers;
    notes = List.rev !notes;
  }
