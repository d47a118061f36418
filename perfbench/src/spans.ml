module T = Core.Telemetry

type span = {
  id : int;
  name : string;
  parent : int;
  start : float;
  mutable stop : float;
}

type t = {
  on : bool;
  mutable spans : span list;  (* newest first *)
  mutable stack : span list;
  mutable next : int;
  counts : (string, int) Hashtbl.t;
}

let create ~on = { on; spans = []; stack = []; next = 0; counts = Hashtbl.create 16 }
let off = create ~on:false
let enabled t = t.on
let now = Core.Clock.now_s

let open_span t name start =
  let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
  let s = { id = t.next; name; parent; start; stop = Float.nan } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  s

let with_span t name f =
  if not t.on then f ()
  else begin
    let s = open_span t name (now ()) in
    t.stack <- s :: t.stack;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        t.stack <- List.tl t.stack)
      f
  end

let count t name n =
  if t.on then
    Hashtbl.replace t.counts name (n + Option.value ~default:0 (Hashtbl.find_opt t.counts name))

(* Telemetry spans recorded by the library (Engine, Runner) during
   [f], re-parented under the span open when [f] was called. The
   collector's clock is read once at creation, which fixes its epoch
   on this recorder's time axis. *)
let with_telemetry t f =
  if not t.on then f T.Sink.null
  else begin
    let epoch = ref Float.nan in
    let clock () =
      let v = now () in
      if Float.is_nan !epoch then epoch := v;
      v
    in
    let collector = T.create ~clock () in
    let result = f (T.sink collector) in
    let summary = T.close collector in
    let rec graft (s : T.span) =
      let start = !epoch +. s.T.s_start in
      let sp = open_span t s.T.s_name start in
      sp.stop <- start +. s.T.s_duration;
      t.stack <- sp :: t.stack;
      List.iter graft s.T.s_children;
      t.stack <- List.tl t.stack
    in
    List.iter graft
      (List.sort (fun (a : T.span) b -> Float.compare a.T.s_start b.T.s_start) summary.T.roots);
    List.iter (fun (name, n) -> count t name n) summary.T.counters;
    result
  end

let spans t = List.rev t.spans
let counter t name = Option.value ~default:0 (Hashtbl.find_opt t.counts name)

type agg = { total : float; self : float; calls : int; durations : float array }

let aggregate t =
  let all = spans t in
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (s.stop -. s.start +. Option.value ~default:0. (Hashtbl.find_opt child_time s.parent)))
    all;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      let tot, slf, ds =
        Option.value ~default:(0., 0., []) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (tot +. d, slf +. self, d :: ds))
    all;
  Hashtbl.fold
    (fun name (total, self, ds) acc ->
      let durations = Array.of_list (List.rev ds) in
      (name, { total; self; calls = Array.length durations; durations }) :: acc)
    by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* One JSON object per line: id, name, parent (-1 for a root), start
   and end in seconds on the wall clock. *)
let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n" s.id
        s.name s.parent s.start s.stop)
    (spans t);
  close_out oc
