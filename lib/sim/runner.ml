module T = Psn_telemetry.Telemetry
module Failpoint = Psn_robust.Failpoint

type run_spec = { workload : Workload.spec; seeds : int64 list }

let default_seeds k = List.init k (fun i -> Int64.of_int (1000 + i))

(* Each task owns its RNG (created from the task's seed) and its
   algorithm instance, so runs are independent and safe to fan out
   across domains; results come back in seed order either way. The
   fault plan, when given, is shared read-only: its verdicts are pure
   functions of (plan, key), so sharing cannot couple the runs. The
   scratch is the worker's: reused across the consecutive tasks of one
   domain, never shared between domains.

   The factory span nests inside the task span so algorithm
   construction is attributed to the task that paid for it in profile
   totals; the algorithm name (known only after the factory returns)
   is carried by the nested engine.run span. The failpoint site is
   keyed by the seed, so an injected failure schedule picks the same
   tasks whatever the claim order. *)
let run_seed ?faults ~scratch ?(telemetry = T.Sink.null) ~trace ~spec ~factory seed =
  T.with_span telemetry "runner.task" ~args:[ ("seed", T.Str (Int64.to_string seed)) ]
  @@ fun () ->
  Failpoint.trigger ~key:seed "runner.task";
  T.count telemetry "runner.tasks" 1;
  let algorithm = T.with_span telemetry "runner.factory" (fun () -> factory trace) in
  let rng = Psn_prng.Rng.create ~seed () in
  let messages = Workload.generate ~rng spec.workload in
  let outcome = Engine.run ?faults ~scratch ~telemetry ~trace ~messages algorithm in
  (* Per-run delivery-delay distribution: simulated time, recorded on
     this worker's track and bucket-merged at close — the histogram the
     paper's delay CDFs come from, schedule-independent by merge. *)
  Array.iter
    (fun r ->
      match Engine.delay r with
      | Some d -> T.hist telemetry "runner.delivery_delay_s" d
      | None -> ())
    outcome.Engine.records;
  outcome

(* The one (factory, seed) grid: flattened into a single task array
   so a few slow algorithms cannot leave workers idle, memoized per
   factory when caches are given, then regrouped by factory. *)
let outcomes_many_result ?jobs ?chunk ?faults ?stores ?retries ?checkpoint ?telemetry ~trace
    ~spec ~factories () =
  if List.is_empty spec.seeds then invalid_arg "Runner: need at least one seed";
  let seeds = Array.of_list spec.seeds in
  let facs = Array.of_list factories in
  let n_seeds = Array.length seeds in
  let cache =
    Option.map
      (fun cs ->
        if List.length cs <> Array.length facs then
          invalid_arg "Runner: need one cache per factory";
        let caches = Array.of_list cs in
        {
          Parallel.find = (fun (fi, seed) -> caches.(fi).Cache.find ~seed);
          store = (fun (fi, seed) outcome -> caches.(fi).Cache.store ~seed outcome);
          prefix = "runner";
        })
      stores
  in
  let tasks =
    Array.init
      (Array.length facs * n_seeds)
      (fun i -> (i / n_seeds, seeds.(i mod n_seeds)))
  in
  let cells =
    Parallel.map_result ?jobs ?chunk ?telemetry ?retries ?checkpoint ?cache ~env:Engine.scratch
      (fun scratch sink (fi, seed) ->
        run_seed ?faults ~scratch ~telemetry:sink ~trace ~spec ~factory:facs.(fi) seed)
      tasks
  in
  List.init (Array.length facs) (fun fi ->
      List.init n_seeds (fun si -> cells.((fi * n_seeds) + si)))

(* Rows are joined in factory order, so the first failure raised is the
   lowest failing index of the flat grid. *)
let run_many ?jobs ?chunk ?faults ?stores ?retries ?checkpoint ?(telemetry = T.Sink.null)
    ~trace ~spec ~factories () =
  let outs =
    outcomes_many_result ?jobs ?chunk ?faults ?stores ?retries ?checkpoint ~telemetry ~trace
      ~spec ~factories ()
    |> List.map (fun row -> Array.to_list (Parallel.join_results (Array.of_list row)))
  in
  T.with_span telemetry "runner.metrics" (fun () -> List.map Metrics.pool outs)

let run_algorithm ?jobs ?chunk ?faults ?store ?retries ?checkpoint ?telemetry ~trace ~spec
    ~factory () =
  match
    run_many ?jobs ?chunk ?faults
      ?stores:(Option.map (fun s -> [ s ]) store)
      ?retries ?checkpoint ?telemetry ~trace ~spec ~factories:[ factory ] ()
  with
  | [ m ] -> m
  | _ -> assert false
