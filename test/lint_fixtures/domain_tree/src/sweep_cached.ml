(* Memoized fan-out: the cache closures reach Ledger.seen and are not
   flagged (they are not task bodies); the task body still reaches
   State.hits and is. *)
let go xs =
  Parallel.map_result
    ~cache:{ Parallel.find = Ledger.find; store = Ledger.record; prefix = "sweep" }
    ~env:(fun () -> ())
    (fun () _sink k -> Work.task k)
    xs
