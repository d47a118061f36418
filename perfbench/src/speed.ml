module A = Bigarray.Array1

(* The kernel's arrays live outside the OCaml heap, so they neither
   add to the program's live data nor change how its GC paces the
   major heap. *)
let ints len init =
  let a = A.create Bigarray.int Bigarray.c_layout len in
  for i = 0 to len - 1 do
    A.unsafe_set a i (init i)
  done;
  a

let n = 1 lsl 15
let degree = 8

(* A fixed pseudo-random graph from a 64-bit LCG, so the kernel does
   the same work in every build and on every OCaml version. *)
let adjacency =
  let x = ref 0x2545F4914F6CDD1DL in
  ints (n * degree) (fun _ ->
      x := Int64.add (Int64.mul !x 6364136223846793005L) 1442695040888963407L;
      Int64.to_int (Int64.shift_right_logical !x 33) land (n - 1))

let dist = ints n (fun _ -> -1)
let queue = ints n (fun _ -> 0)

let bfs src =
  A.fill dist (-1);
  dist.{src} <- 0;
  queue.{0} <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.{!head} in
    incr head;
    let du = dist.{u} + 1 in
    for e = u * degree to (u * degree) + degree - 1 do
      let v = adjacency.{e} in
      if dist.{v} < 0 then begin
        dist.{v} <- du;
        queue.{!tail} <- v;
        incr tail
      end
    done
  done;
  !tail

(* A sequential sweep over an array well beyond the L2 cache, which
   tracks memory bandwidth: the enumeration kernel's allocation-heavy
   work followed it more closely (correlation 0.95 over 15 s windows)
   than the search (0.84). *)
let stream = ints (1 lsl 21) (fun _ -> 1)

let sweep () =
  let s = ref 0 in
  for i = 0 to A.dim stream - 1 do
    s := !s + A.unsafe_get stream i
  done;
  !s

let resident_mb =
  float_of_int ((A.dim adjacency + A.dim dist + A.dim queue + A.dim stream) * 8) /. 1048576.

let passes = 3
let sweeps = 2
let nominal_s = 0.010

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let measure () =
  ignore (Sys.opaque_identity (bfs 0) : int);
  let a = cpu () in
  for s = 1 to passes do
    ignore (Sys.opaque_identity (bfs s) : int)
  done;
  for _ = 1 to sweeps do
    ignore (Sys.opaque_identity (sweep ()) : int)
  done;
  cpu () -. a

(* Processor seconds spent in samples, which [clock] leaves out. *)
let spent = ref 0.
let clock () = cpu () -. !spent

(* The log: [clock] reading and kernel time of every sample, in
   order. *)
let at = ref [||]
let refs = ref [||]
let len = ref 0
let last_wall = ref Float.neg_infinity

let push x r =
  if !len = Array.length !at then begin
    let grow a = Array.append a (Array.make (Int.max 64 !len) 0.) in
    at := grow !at;
    refs := grow !refs
  end;
  !at.(!len) <- x;
  !refs.(!len) <- r;
  incr len

let sample () =
  let a = cpu () in
  let r = measure () in
  push (a -. !spent) r;
  spent := !spent +. (cpu () -. a);
  last_wall := Core.Clock.now_s ()

let since_last () = Core.Clock.now_s () -. !last_wall
let maybe_sample ?(interval = 0.25) () = if since_last () >= interval then sample ()

(* The overlap of [c0, c1] with [lo, hi]. *)
let overlap c0 c1 lo hi = Float.max 0. (Float.min c1 hi -. Float.max c0 lo)

let integrate ~at:x ~refs:r n ~c0 ~c1 =
  if n = 0 then c1 -. c0
  else begin
    let total =
      ref
        ((nominal_s /. r.(0) *. overlap c0 c1 Float.neg_infinity x.(0))
        +. (nominal_s /. r.(n - 1) *. overlap c0 c1 x.(n - 1) Float.infinity))
    in
    for k = 0 to n - 2 do
      if x.(k) < c1 && x.(k + 1) > c0 then
        total :=
          !total +. (nominal_s /. ((r.(k) +. r.(k + 1)) /. 2.) *. overlap c0 c1 x.(k) x.(k + 1))
    done;
    !total
  end

let adjusted ~c0 ~c1 = integrate ~at:!at ~refs:!refs !len ~c0 ~c1

let summary () =
  let r = Array.sub !refs 0 !len in
  if !len = 0 then "reference kernel: no sample"
  else
    Printf.sprintf
      "reference kernel: %d samples, processor ms median %.3f min %.3f max %.3f (nominal %.3f)"
      !len
      (1000. *. Stats.median r)
      (1000. *. Array.fold_left Float.min Float.infinity r)
      (1000. *. Array.fold_left Float.max Float.neg_infinity r)
      (1000. *. nominal_s)
