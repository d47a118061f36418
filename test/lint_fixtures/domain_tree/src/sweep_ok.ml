(* Clean fan-out: the task only touches an atomic. *)
let go xs = Parallel.map_result ~env:(fun () -> ()) (fun () _sink -> Owned.touch) xs
