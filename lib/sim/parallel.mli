(** Multicore, memoized fan-out for embarrassingly parallel sweeps.

    The experiment layer is dominated by two shapes of work: one
    simulation run per (algorithm, seed) and one path enumeration per
    (src, dst) pair. Both are independent tasks over an index set, so
    this module provides exactly one primitive for them, {!map_result}:
    a [Domain]-based work pool (OCaml 5 stdlib only, no external
    dependency) that applies a function to every element of an array
    and returns the results {e keyed by input index}, optionally behind
    a checkpointed cache. {!join_results} is its raising view.

    Scheduling is {e chunked} work-stealing: workers repeatedly claim
    the next unclaimed index {e range} of [chunk] tasks from a shared
    atomic counter ([Atomic.fetch_and_add] once per chunk, not once
    per task), so dispatch overhead is amortised across the chunk
    while the tail of the range still balances across workers.

    Determinism contract: because every task owns its inputs (per-task
    RNG seeds, fresh algorithm state) and results land in the slot of
    their input index, a parallel run is bit-identical to a sequential
    run of the same tasks — scheduling (including the [jobs], [chunk]
    and [checkpoint] values and the cache's hit pattern) only changes
    {e when} a task runs, never what it computes or where its result
    goes. Tasks must not share mutable state; all library tasks fed to
    this module (engine runs, enumerations, serve queries) mutate only
    state they create or receive through the per-worker environment.

    Exceptions raised by tasks are caught per task — the worker keeps
    draining its chunk and claiming more — and isolated into that
    task's [result] cell, so one failed (algorithm, seed) run costs
    one cell of a study, never the study. Transient failures
    ({!Psn_robust.Failpoint.is_transient}) are first retried in place
    with a deterministic [Domain.cpu_relax] backoff: the attempts of
    one task run consecutively on one domain under
    {!Psn_robust.Failpoint.with_attempt}, so an injected failure
    schedule — and therefore the final cell array — is bit-identical
    across [jobs] × [chunk].

    Telemetry: each worker domain records into its own forked
    {!Psn_telemetry.Telemetry.sink} (one Chrome-trace track per
    worker), merged deterministically after the joins — recording is
    lock-free and can never affect results, only describe them.
    Children are forked for the requested [jobs] even on the
    sequential path ([jobs = 1], or fewer tasks than workers), so the
    track structure of a trace depends only on [jobs], never on the
    task count. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the pool size used when
    [?jobs] is omitted. *)

type ('a, 'b) cache = {
  find : 'a -> 'b option;  (** [None] = miss; the task will be computed. *)
  store : 'a -> 'b -> unit;  (** Offer a freshly computed value for this task. *)
  prefix : string;
      (** Names the cache instrumentation: [<prefix>.cache_lookup] /
          [<prefix>.cache_store] spans, [<prefix>.cache_hits] /
          [<prefix>.cache_misses] / [<prefix>.checkpoints] counters. *)
}
(** A memo for {!map_result}. Both closures run only on the calling
    domain, outside the parallel sections, so implementations need no
    synchronisation. A hit must be the value the task would recompute;
    then caching changes wall time, never results. *)

val map_result :
  ?jobs:int ->
  ?chunk:int ->
  ?telemetry:Psn_telemetry.Telemetry.sink ->
  ?retries:int ->
  ?checkpoint:int ->
  ?cache:('a, 'b) cache ->
  env:(unit -> 'env) ->
  ('env -> Psn_telemetry.Telemetry.sink -> 'a -> 'b) ->
  'a array ->
  ('b, exn) result array
(** [map_result ~env f tasks] is one cell per task, in input order,
    computed by up to [jobs] domains (default {!default_jobs}; the
    calling domain works too, and no more domains are spawned than
    there are chunks to claim, so [jobs = 1] never spawns).

    - [chunk]: task indices claimed per grab; defaults to a heuristic
      aiming at ~4 chunks per worker, clamped to [1, 64].
    - [env ()] runs once on each worker domain before it claims work,
      and every task that worker executes receives the value. This is
      how callers reuse mutable buffers (e.g. {!Engine.scratch})
      across the consecutive tasks of one domain without sharing them
      between domains; results must not depend on which tasks shared
      an environment.
    - [f] also receives the sink of the worker running it, so task
      spans land on the right trace track. Workers record a
      ["parallel.queue"] backlog gauge per grab and the
      ["parallel.retries"], ["parallel.recovered"] and
      ["parallel.failures"] counters.
    - [retries] (default 0): extra in-place attempts for a task whose
      exception is transient; permanent errors and exhausted retries
      become [Error] cells carrying the last exception.
    - [cache]: every task is looked up first and only the misses are
      computed, in rounds of [checkpoint] tasks (default 0 = one
      round). Each round's successes are stored before the next round
      runs, and {!Psn_robust.Interrupt.check} is polled between
      rounds, so a killed or interrupted sweep re-run against the same
      cache resumes from its last completed round. Without [cache] the
      whole array is one round and no cache span or counter is
      recorded.

    Raises [Invalid_argument] when [jobs < 1], [chunk < 1],
    [retries < 0] or [checkpoint < 0], with or without a cache. *)

val join_results : ('a, exn) result array -> 'a array
(** Unwrap a {!map_result} cell array, re-raising the {e lowest-index}
    [Error] if any — the deterministic all-or-nothing view. *)
