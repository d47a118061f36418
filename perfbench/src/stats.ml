(* The library's type-7 quantiles; an empty sample reads as nan, so a
   layer a workload never calls reports nothing rather than raising. *)
let quantile xs q = if Array.length xs = 0 then Float.nan else Core.Quantile.quantile xs q
let median xs = quantile xs 0.5

type tail = { q : float; value : float; n : int }

let candidates = [ 0.999; 0.99; 0.9; 0.75; 0.5 ]

(* The reporting rule: quote the highest percentile that still
   has at least ten samples beyond it, with the sample count, so a p99
   over 40 samples is never passed off as a measurement. *)
let supported_tail xs =
  let n = Array.length xs in
  let beyond q = n - int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  match List.find_opt (fun q -> beyond q >= 10) candidates with
  | None -> None
  | Some q -> Some { q; value = quantile xs q; n }

let describe_tail xs =
  match supported_tail xs with
  | Some t -> Printf.sprintf "p%g=%.4g (n=%d)" (100. *. t.q) t.value t.n
  | None -> Printf.sprintf "no percentile has ten samples beyond it (n=%d)" (Array.length xs)
