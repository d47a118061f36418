(* Fig. 3 path enumeration as Experiments.enumeration_study runs it:
   infocom06_am, k = n* = 2000, one message after another at jobs=1.

   Per-message cost is heavy-tailed (2 ms to 11 s on the 2-core box,
   coefficient of variation 1.3), so ten runs that each drew their own
   dozen messages would differ by half between seeds. The messages are
   therefore fixed: every fifth of the first thirty that the study
   itself draws (its generator and draw order). The seed draws a
   relabelling of the 98 nodes, applied to the trace and to the
   message endpoints. The relabelled problem is isomorphic, so the
   work per message is the same for every seed (to within a few
   words of allocation), while the kernel sees different node ids,
   adjacency orders and bitset positions. *)

module C = Core

let dataset = C.Dataset.infocom06_am
let n_explosion = 2000

let config =
  { C.Enumerate.k = 2000; max_hops = None; stop_at_total = Some n_explosion; exhaustive = false }

let draws = 30
let stride = 5

type inputs = {
  trace : C.Trace.t;
  snap : C.Snapshot.t;
  messages : (int * int * float) array;  (** (src, dst, t_create) *)
}

(* The study's own draw: its seed, a uniform ordered pair, creation in
   the first two thirds of the window. *)
let study_messages trace =
  let rng =
    C.Rng.create
      ~seed:(Int64.logxor C.Experiments.default_scale.C.Experiments.rng_seed dataset.C.Dataset.seed)
      ()
  in
  let n = C.Trace.n_nodes trace in
  List.init draws (fun _ ->
      let src = C.Rng.int rng n in
      let dst =
        let r = C.Rng.int rng (n - 1) in
        if r >= src then r + 1 else r
      in
      (src, dst, C.Rng.float rng (C.Trace.horizon trace *. 2. /. 3.)))
  |> List.filteri (fun i _ -> i mod stride = 0)

let setup spans ~seed =
  let base = Spans.with_span spans "trace.generate" (fun () -> C.Dataset.generate dataset) in
  let trace, messages =
    Spans.with_span spans "bench.inputs" (fun () ->
        let perm = Common.permutation ~seed (C.Trace.n_nodes base) in
        ( Common.relabel perm base,
          study_messages base
          |> List.map (fun (s, d, t) -> (perm.(s), perm.(d), t))
          |> Array.of_list ))
  in
  let snap = Spans.with_span spans "spacetime.snapshot" (fun () -> C.Snapshot.of_trace trace) in
  { trace; snap; messages }

type gc = { minor : float; promoted : float; major : int }

type round = {
  results : (C.Enumerate.result, exn) result array;
  times : Common.duration array;  (** Per message. *)
  gc : gc;  (** Allocated inside Enumerate.run. *)
}

(* One message: its enumeration and the explosion analysis of it, with
   the words they allocate. *)
let message spans inp gc (src, dst, t_create) =
  let w0 = Gc.minor_words () and g0 = Gc.quick_stat () in
  let r =
    match
      Spans.with_span spans "paths.enumerate" (fun () ->
          C.Enumerate.run ~config inp.snap ~src ~dst ~t_create)
    with
    | r -> Ok r
    | exception e -> Error e
  in
  let w1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  gc :=
    {
      minor = !gc.minor +. (w1 -. w0);
      promoted = !gc.promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
      major = !gc.major + (g1.Gc.major_collections - g0.Gc.major_collections);
    };
  (match r with
  | Ok r ->
    ignore
      (Spans.with_span spans "paths.explosion" (fun () -> C.Explosion.analyze ~n_explosion r)
        : C.Explosion.summary)
  | Error (_ : exn) -> ());
  r

(* An untraced round samples the host's speed (Speed) before each
   message, so a message is adjusted by samples taken just around
   it. *)
let round spans inp =
  let gc = ref { minor = 0.; promoted = 0.; major = 0 } in
  let timed =
    Array.map
      (fun m ->
        if not (Spans.enabled spans) then Speed.maybe_sample ();
        Common.timed (fun () -> message spans inp gc m))
      inp.messages
  in
  { results = Array.map snd timed; times = Array.map fst timed; gc = !gc }

let digest r =
  Common.digest
    (Array.to_list r.results
    |> List.map (function
         | Ok res -> C.Store_codec.encode_enumeration res
         | Error e -> "raised " ^ Printexc.to_string e))

(* Independent oracle: the first arrival of every message is the
   epidemic flood's arrival at the destination, and arrivals come in
   time order. *)
let oracle_ok inp r =
  Array.for_all2
    (fun (src, dst, t_create) res ->
      match res with
      | Error (_ : exn) -> false
      | Ok res ->
        let flood = C.Reachability.flood inp.snap ~src ~t_create in
        let expected = C.Reachability.arrival_time flood dst in
        let first = Option.map (fun a -> a.C.Enumerate.time) (C.Enumerate.first_arrival res) in
        let arr = res.C.Enumerate.arrivals in
        let chronological = ref true in
        for i = 1 to Array.length arr - 1 do
          if arr.(i).C.Enumerate.time < arr.(i - 1).C.Enumerate.time then chronological := false
        done;
        Option.equal Float.equal expected first && !chronological)
    inp.messages r.results

let pinned = "5946bc7f94be2b98"

let sum_ok f r =
  Array.fold_left (fun acc -> function Ok res -> acc + f res | Error (_ : exn) -> acc) 0 r.results

let sum_steps = sum_ok (fun res -> res.C.Enumerate.steps_processed)

(* What a run keeps of a round once it is checked. *)
type checked = {
  digest : int64;
  oracle : bool option;  (** checked on the first round *)
  failed : int;
  msg_s : Common.duration array;
  arrivals : int;
  steps : int;
  allocated : gc;
}

let condense inp i r =
  {
    digest = digest r;
    oracle = (if i = 0 then Some (oracle_ok inp r) else None);
    failed = Array.fold_left (fun a -> function Error _ -> a + 1 | Ok _ -> a) 0 r.results;
    msg_s = r.times;
    arrivals = sum_ok (fun res -> Array.length res.C.Enumerate.arrivals) r;
    steps = sum_steps r;
    allocated = r.gc;
  }

let run ~spans ~seed ~seconds ~trace =
  let notes = ref [] in
  let setup_s, inp =
    Common.timed_setup ~reps:31 (fun ~last ->
        setup (if last then spans else Spans.off) ~seed)
  in
  let n = Array.length inp.messages in
  let all_durs, all =
    Common.rounds ~min_rounds:(if trace then 2 else 1) ~seconds ~after:(condense inp) (fun i ->
        let spans = if Common.is_traced ~trace i then spans else Spans.off in
        Spans.with_span spans "bench.round" (fun () -> round spans inp))
  in
  let durs, rounds, traced_durs, _ = Common.split ~trace all_durs all in
  let first = List.hd all in
  let failed = List.fold_left (fun acc r -> acc + r.failed) 0 all in
  let ok_oracle =
    Common.check "first arrival = flood, chronological" (first.oracle = Some true) notes
  in
  let ok_repeat =
    Common.check "every round has the same digest"
      (List.for_all (fun r -> Int64.equal r.digest first.digest) all)
      notes
  in
  let ok_pin = Common.pinned_check ~seed ~pinned ~digest:first.digest notes in
  (* Each message is adjusted by the host's speed around it. *)
  let per_round = List.map (fun r -> Array.map Common.adjusted r.msg_s) rounds in
  let msg_ms = Common.median_op_ms per_round in
  let ops_per_s =
    Stats.median
      (Array.of_list
         (List.map (fun a -> float_of_int n /. Array.fold_left ( +. ) 0. a) per_round))
  in
  let all_ms = Array.concat (List.map (Array.map (fun t -> t *. 1000.)) per_round) in
  notes :=
    List.rev_append
      [
        Printf.sprintf
          "enum_msgs_per_s %.6g msg/s (median of %d rounds of %d messages, jobs=1, adjusted processor time)"
          ops_per_s (Array.length durs) n;
        Printf.sprintf "per-message adjusted processor ms: median %.4g; all %s" msg_ms
          (Stats.describe_tail all_ms);
        Common.describe_rounds durs;
      ]
      !notes;
  let layers =
    if not trace then []
    else begin
      let aggs = Spans.aggregate spans in
      let nr = Array.length traced_durs in
      let enum_ms = Common.durations_ms aggs "paths.enumerate" in
      Common.self_per_round aggs ~rounds:nr
        [ ("paths.enumerate_s", [ "paths.enumerate" ]); ("paths.explosion_s", [ "paths.explosion" ]) ]
      @ Common.self_per_round aggs ~rounds:1
          [ ("trace.generate_s", [ "trace.generate" ]); ("spacetime.snapshot_s", [ "spacetime.snapshot" ]) ]
      @ [
          ("trace.contacts", float_of_int (C.Trace.n_contacts inp.trace));
          ("spacetime.steps", float_of_int (C.Snapshot.n_steps inp.snap));
          ("paths.enumerate_p50_ms", Stats.quantile enum_ms 0.5);
          ("paths.enumerate_p90_ms", Stats.quantile enum_ms 0.9);
          ("paths.arrivals", float_of_int first.arrivals);
          ("paths.steps", float_of_int first.steps);
          ("paths.minor_mwords", first.allocated.minor /. 1e6);
          ("paths.promoted_mwords", first.allocated.promoted /. 1e6);
          ("paths.major_gcs", float_of_int first.allocated.major);
          ("trace_overhead_ratio", Common.overhead durs traced_durs);
          ("trace_coverage", Common.coverage aggs);
        ]
    end
  in
  {
    Report.correct = ok_oracle && ok_repeat && ok_pin;
    attempted = n * List.length all;
    failed;
    e2e =
      [
        ("setup_s", setup_s);
        ("ops_per_s", ops_per_s);
        ("op_p50_ms", msg_ms);
      ];
    layers;
    notes = List.rev !notes;
  }
