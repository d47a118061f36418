(** Multi-seed experiment runner.

    The paper averages every forwarding result over 10 simulation runs;
    this module regenerates the workload (and optionally the trace) per
    seed and aggregates over the pooled records.

    Every entry point fans its (factory × seed) grid out through
    {!Parallel.map_result} and takes the same optional knobs, so it
    inherits that primitive's contract: [?jobs] / [?chunk] spread the
    whole grid across domains, bit-identically for any combination;
    each worker domain reuses one {!Engine.scratch} across its runs;
    [?retries] re-attempts transient failures in place; [?store] /
    [?stores] memoize per-seed outcomes ({!Cache}), consulted before
    and updated after the parallel sections from the calling domain,
    with [?checkpoint] splitting the misses into durable rounds so a
    killed sweep re-run with the same store resumes bit-identically.
    [?faults] is a compiled {!Faults.plan} applied identically to every
    run; its verdicts are pure functions of the plan and the faulted
    entity, so faulted sweeps keep the [jobs] contract. [?telemetry]
    (default null) records a ["runner.task"] span per run tagged with
    its seed (nesting ["runner.factory"] and ["engine.run"]), the
    cache's ["runner.cache_*"] spans and counters when a store is
    given, and a ["runner.metrics"] span for the pooled aggregation;
    instrumentation never affects outcomes. *)

type run_spec = {
  workload : Workload.spec;
  seeds : int64 list;  (** One run per seed (paper: 10). *)
}

val default_seeds : int -> int64 list
(** [default_seeds k] is a fixed, documented seed sequence of length
    [k] (1000, 1001, …) so published numbers are reproducible. *)

val run_algorithm :
  ?jobs:int ->
  ?chunk:int ->
  ?faults:Faults.plan ->
  ?store:Cache.t ->
  ?retries:int ->
  ?checkpoint:int ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  trace:Psn_trace.Trace.t ->
  spec:run_spec ->
  factory:Algorithm.factory ->
  unit ->
  Metrics.t
(** Run one algorithm over every seed (fresh workload and fresh
    algorithm state per seed; the trace is shared) and pool the
    per-seed records ({!Metrics.pool}). *)

val run_many :
  ?jobs:int ->
  ?chunk:int ->
  ?faults:Faults.plan ->
  ?stores:Cache.t list ->
  ?retries:int ->
  ?checkpoint:int ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  trace:Psn_trace.Trace.t ->
  spec:run_spec ->
  factories:Algorithm.factory list ->
  unit ->
  Metrics.t list
(** {!run_algorithm} for each factory, same seeds — so algorithms face
    identical workloads, as in a paired comparison. [stores], when
    given, must supply one cache per factory (in factory order);
    raises [Invalid_argument] otherwise. *)

val outcomes_many_result :
  ?jobs:int ->
  ?chunk:int ->
  ?faults:Faults.plan ->
  ?stores:Cache.t list ->
  ?retries:int ->
  ?checkpoint:int ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  trace:Psn_trace.Trace.t ->
  spec:run_spec ->
  factories:Algorithm.factory list ->
  unit ->
  (Engine.outcome, exn) result list list
(** The raw per-seed outcome cells, grouped per factory with seeds in
    order, for analyses needing full records (Fig. 10 delay
    distributions, Fig. 13 groupings). A failed (algorithm, seed) run
    costs one [Error] cell instead of the sweep, so study layers can
    report it and still aggregate the rest. The raising entry points
    above are this grid followed by {!Parallel.join_results} (lowest
    failing index re-raised); either way every successful round still
    reaches the cache first, so even an aborting sweep checkpoints what
    it completed. *)
