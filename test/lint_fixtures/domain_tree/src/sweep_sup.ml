(* Known single-domain call site (the jobs=1 CLI path): waived with
   a justification, as the rule's contract requires. *)
let go xs =
  (Parallel.map_result ~env:(fun () -> ()) (fun () _sink -> Work.task) xs)
  [@lint.allow "domain-race"]
