module T = Psn_telemetry.Telemetry
module Failpoint = Psn_robust.Failpoint

let default_jobs () = Domain.recommended_domain_count ()

(* Workers claim whole index *ranges* rather than single tasks: the
   shared atomic advances by [chunk] per grab, so contention and the
   per-task dispatch cost both drop by a factor of [chunk] while load
   stays balanced as long as each worker gets several chunks. The
   default aims for ~4 chunks per worker, capped so a grab never walks
   away with more than 64 tasks of a long tail. *)
let default_chunk ~jobs n = Int.max 1 (Int.min 64 (n / (jobs * 4)))

(* Deterministic backoff between retry attempts: a bounded spin of
   [Domain.cpu_relax], doubling per attempt. No wall clock (the lint
   contract forbids it in lib/) and no scheduling dependence — the
   delay is a pure function of the attempt index. *)
let backoff attempt =
  for _ = 1 to 64 * (1 lsl Int.min attempt 6) do
    Domain.cpu_relax ()
  done

(* Chunked work-stealing by atomic counter. Each slot of [cells] is
   written by exactly one domain, and [Domain.join] publishes those
   writes to the caller, so no further synchronisation is needed.

   Telemetry: worker [k] records into child sink [k]. Children are
   forked for the *requested* [jobs] — also on the [jobs = 1] and
   [n < jobs] paths — so the Chrome-trace track layout is a function
   of [jobs] alone, never of how many tasks there happened to be. The
   queue gauge samples how much of the range is still unclaimed after
   each chunk grab, which is the pool's backlog over time.

   [env] runs once per worker, on that worker's domain, before it
   claims work: whatever it allocates (scratch buffers, arenas) is
   owned by exactly one domain for the whole section, so tasks may
   mutate it freely without coupling the runs.

   Every task runs inside [Failpoint.with_attempt]; an exception that
   [Failpoint.is_transient] judges retryable is retried up to
   [retries] times (with deterministic backoff) before its cell
   becomes [Error]. Because one task's attempts run consecutively on
   one domain and verdicts are pure functions of (site, key, attempt),
   the final cell array is bit-identical for every [jobs] × [chunk]
   combination. *)
let pool ~jobs ~chunk ~telemetry ~retries ~env f tasks =
  let n = Array.length tasks in
  let chunk = match chunk with Some c -> c | None -> default_chunk ~jobs n in
  let sinks = T.fork telemetry jobs in
  let cells : ('b, exn) result option array = Array.make n None in
  let next = Atomic.make 0 in
  let worker k () =
    let sink = sinks.(k) in
    let e = env () in
    let run_task i =
      let rec attempt_loop a =
        match Failpoint.with_attempt a (fun () -> f e sink tasks.(i)) with
        | v ->
          if a > 0 then T.count sink "parallel.recovered" 1;
          Ok v
        | exception ex ->
          if a < retries && Failpoint.is_transient ex then begin
            T.count sink "parallel.retries" 1;
            Psn_robust.Flight.note "parallel.retry"
              [ ("task", string_of_int i); ("attempt", string_of_int (a + 1)) ];
            backoff a;
            attempt_loop (a + 1)
          end
          else begin
            T.count sink "parallel.failures" 1;
            Error ex
          end
      in
      cells.(i) <- Some (attempt_loop 0)
    in
    let rec loop () =
      let start = Atomic.fetch_and_add next chunk in
      if start < n then begin
        let stop = Int.min n (start + chunk) in
        T.gauge sink "parallel.queue" (float_of_int (Int.max 0 (n - stop)));
        for i = start to stop - 1 do
          run_task i
        done;
        loop ()
      end
    in
    loop ()
  in
  (* Never spawn more domains than there are chunks to claim: the
     calling domain is worker 0 and extra domains would find the range
     exhausted. [jobs = 1] (or a single chunk) therefore runs entirely
     on the calling domain, through the same claim loop and the same
     child-sink recording as the parallel path. *)
  let n_chunks = (n + chunk - 1) / chunk in
  let workers = Int.max 1 (Int.min jobs n_chunks) in
  let domains = List.init (workers - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  T.join telemetry sinks;
  Array.map (function Some r -> r | None -> assert false) cells

type ('a, 'b) cache = { find : 'a -> 'b option; store : 'a -> 'b -> unit; prefix : string }

(* Memoization wraps the pool. The cache is only touched from the
   calling domain — all lookups happen before the parallel sections and
   all stores between and after them — so cache backends need no
   synchronisation and results are stitched back by index, keeping the
   bit-identical [jobs] contract regardless of the hit pattern.

   [checkpoint] splits the misses into rounds of that many tasks, in
   index order; each round's successes go to the cache before the next
   round starts, so a killed sweep resumes from its last completed
   round (the cache replays the stored values as hits). Because every
   task is a pure function of its inputs, the round size changes
   durability and wall time only, never a result. Between rounds is
   also the sweep's cooperative interruption point
   ({!Psn_robust.Interrupt.check}): a SIGINT arrives, the current round
   still lands in the cache, and [Interrupted] propagates with
   everything completed so far already durable. Without a cache there
   is nowhere durable to put a round, so the whole grid is one pool
   section with no cache instrumentation. *)
let map_result ?jobs ?chunk ?(telemetry = T.Sink.null) ?(retries = 0) ?(checkpoint = 0) ?cache
    ~env f tasks =
  let jobs =
    match jobs with
    | Some j when j < 1 -> invalid_arg "Parallel.map_result: jobs must be >= 1"
    | Some j -> j
    | None -> default_jobs ()
  in
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Parallel.map_result: chunk must be >= 1"
  | _ -> ());
  if retries < 0 then invalid_arg "Parallel.map_result: retries must be >= 0";
  if checkpoint < 0 then invalid_arg "Parallel.map_result: checkpoint must be >= 0";
  let run batch = pool ~jobs ~chunk ~telemetry ~retries ~env f batch in
  match cache with
  | None -> run tasks
  | Some { find; store; prefix } ->
    let n = Array.length tasks in
    let results =
      T.with_span telemetry (prefix ^ ".cache_lookup") (fun () ->
          Array.map (fun task -> Option.map Result.ok (find task)) tasks)
    in
    let miss_idx =
      Array.of_list (List.filter (fun i -> Option.is_none results.(i)) (List.init n Fun.id))
    in
    let m = Array.length miss_idx in
    T.count telemetry (prefix ^ ".cache_hits") (n - m);
    T.count telemetry (prefix ^ ".cache_misses") m;
    let round_size = if checkpoint = 0 then Int.max 1 m else checkpoint in
    let pos = ref 0 in
    while !pos < m do
      Psn_robust.Interrupt.check ();
      let batch = Array.sub miss_idx !pos (Int.min round_size (m - !pos)) in
      let computed = run (Array.map (fun i -> tasks.(i)) batch) in
      T.with_span telemetry (prefix ^ ".cache_store") (fun () ->
          Array.iteri
            (fun j i ->
              match computed.(j) with Ok v -> store tasks.(i) v | Error (_ : exn) -> ())
            batch);
      Array.iteri (fun j i -> results.(i) <- Some computed.(j)) batch;
      if checkpoint > 0 then T.count telemetry (prefix ^ ".checkpoints") 1;
      pos := !pos + Array.length batch
    done;
    Array.map (function Some r -> r | None -> assert false) results

(* Failure order is deterministic whatever the claim schedule was: the
   lowest failing task index wins. *)
let join_results cells =
  Array.iter (function Error e -> raise e | Ok _ -> ()) cells;
  Array.map (function Ok v -> v | Error _ -> assert false) cells
