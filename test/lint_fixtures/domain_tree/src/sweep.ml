(* The fan-out site: no mutable state and no Hashtbl mention in this
   file, yet Work.task reaches State.hits two modules away. *)
let go xs = Parallel.map_result ~env:(fun () -> ()) (fun () _sink -> Work.task) xs
