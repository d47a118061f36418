(* A memo kept in a top-level table. Its find/store closures run on
   the calling domain, before and after the parallel rounds, so
   handing them to a fan-out as its cache is not a race. *)
let seen : (int, int) Hashtbl.t = Hashtbl.create 16

let find k = Hashtbl.find_opt seen k

let record k v = Hashtbl.replace seen k v
