module C = Core

let now = C.Clock.now_s

(* Processor time of this process, less the reference kernel's. Unlike
   wall time it leaves out the time the process waits for a core: with
   three runs sharing the 2-core box, a simulation round took 1.5-2x
   longer in wall time but 0-15% longer in processor time. Throughputs,
   per-operation times and set-up times are taken in it, then adjusted
   for the host's speed (see Speed). *)
let cpu = Speed.clock

(* The default seed: the one whose output digests are pinned. *)
let default_seed = 1

(* Where runs leave span files and scratch stores, relative to the
   checkout root the benchmark is started from. *)
let out_dir = ".bench_out"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let scratch_dir name =
  let dir = Filename.concat out_dir (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p (Filename.dirname dir);
  dir

(* High-water resident set size of this process, from the kernel's
   accounting (Linux /proc), less the speed reference's arrays, which
   are resident from start to end. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb)
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  (float_of_int kb /. 1024.) -. Speed.resident_mb

(* FNV-1a over a sequence of canonical encodings; each part is
   length-prefixed so concatenation boundaries cannot collide. *)
let digest parts =
  List.fold_left
    (fun acc part ->
      let acc = C.Fnv.of_string ~init:acc (string_of_int (String.length part) ^ ":") in
      C.Fnv.of_string ~init:acc part)
    (C.Fnv.of_string "perfbench")
    parts

let hex = C.Fnv.to_hex

type duration = { wall : float; c0 : float; cpu : float }

(* Processor seconds at the reference speed. *)
let adjusted d = Speed.adjusted ~c0:d.c0 ~c1:(d.c0 +. d.cpu)

let timed f =
  let start = now () and c0 = cpu () in
  let x = f () in
  ({ wall = now () -. start; c0; cpu = cpu () -. c0 }, x)

(* Median adjusted processor time of [reps] runs of [f]; returns the
   last run's value. *)
let timed_setup ~reps f =
  let last = ref None in
  let durs =
    Array.init reps (fun i ->
        Speed.maybe_sample ();
        let d, v = timed (fun () -> f ~last:(i = reps - 1)) in
        last := Some v;
        d)
  in
  Speed.sample ();
  (Stats.median (Array.map adjusted durs), Option.get !last)

(* Whole rounds of a workload: at least [min_rounds], then another
   while one more round of the last round's wall length still fits in
   [seconds]. [after] condenses each round's output outside its timing
   (checks, digests), so a run does not hold every round's results.
   Returns each round's duration and condensed output. *)
let rounds ?(min_rounds = 1) ~seconds ~after f =
  let t0 = now () in
  let rec go i durs outs =
    Speed.maybe_sample ();
    let d, x = timed (fun () -> f i) in
    let y = after i x in
    let durs = d :: durs and outs = y :: outs in
    if i + 1 < min_rounds || now () -. t0 +. d.wall <= seconds then go (i + 1) durs outs
    else begin
      Speed.sample ();
      (Array.of_list (List.rev durs), List.rev outs)
    end
  in
  go 0 [] []

(* A traced run alternates untraced and traced rounds, so the two
   sides of the tracing overhead see the same machine. *)
let is_traced ~trace i = trace && i mod 2 = 1

let split ~trace durs outs =
  let pick keep =
    let picked = List.filteri (fun i _ -> keep i) (List.combine (Array.to_list durs) outs) in
    (Array.of_list (List.map fst picked), List.map snd picked)
  in
  let untraced_durs, untraced = pick (fun i -> not (is_traced ~trace i)) in
  let traced_durs, traced = pick (is_traced ~trace) in
  (untraced_durs, untraced, traced_durs, traced)

let overhead untraced traced =
  let median ds = Stats.median (Array.map adjusted ds) in
  median traced /. median untraced

(* Operations per second in the median round. *)
let rate ~ops durs (pick : duration -> float) =
  Stats.median (Array.map (fun d -> float_of_int ops /. pick d) durs)

let wall_of d = d.wall

(* Median over operations of each operation's median over rounds, in
   milliseconds. Taken this way a per-operation time does not jump
   between two messages or cells when the number of rounds that fit in
   a run changes. *)
let median_op_ms (per_round : float array list) =
  match per_round with
  | [] -> Float.nan
  | first :: _ ->
    1000.
    *. Stats.median
         (Array.init (Array.length first) (fun i ->
              Stats.median (Array.of_list (List.map (fun a -> a.(i)) per_round))))

let describe_rounds durs =
  let spread name xs =
    Printf.sprintf "%s s min %.4f median %.4f max %.4f" name
      (Array.fold_left Float.min Float.infinity xs)
      (Stats.median xs)
      (Array.fold_left Float.max Float.neg_infinity xs)
  in
  Printf.sprintf "rounds: %d, %s; %s" (Array.length durs)
    (spread "processor" (Array.map (fun d -> d.cpu) durs))
    (spread "adjusted" (Array.map adjusted durs))

(* A relabelling of the nodes drawn from the seed. Workloads whose
   cost hangs on which nodes their inputs name apply it to a fixed
   problem: the relabelled problem is isomorphic, so every seed does
   the same work while the code under test sees different ids,
   adjacency orders and bitset positions. *)
let permutation ~seed n =
  let perm = Array.init n Fun.id in
  C.Rng.shuffle_in_place (C.Rng.create ~seed:(Int64.of_int seed) ()) perm;
  perm

let relabel perm trace =
  let kinds = Array.copy (C.Trace.kinds trace) in
  Array.iteri (fun i k -> kinds.(perm.(i)) <- k) (C.Trace.kinds trace);
  let contacts =
    Array.to_list (C.Trace.contacts trace)
    |> List.map (fun (c : C.Contact.t) ->
           C.Contact.make ~a:perm.(c.C.Contact.a) ~b:perm.(c.C.Contact.b)
             ~t_start:c.C.Contact.t_start ~t_end:c.C.Contact.t_end)
  in
  C.Trace.create ~n_nodes:(C.Trace.n_nodes trace) ~horizon:(C.Trace.horizon trace) ~kinds
    contacts

let check name ok notes =
  notes := Printf.sprintf "check %-40s %s" name (if ok then "ok" else "FAILED") :: !notes;
  ok

let pinned_check ~seed ~pinned ~digest notes =
  let d = hex digest in
  if seed <> default_seed then begin
    notes := Printf.sprintf "digest %s (pinned only for seed %d)" d default_seed :: !notes;
    true
  end
  else check (Printf.sprintf "digest %s = pinned %s" d pinned) (String.equal d pinned) notes

(* Per-layer values from a traced phase: self seconds per round for
   the span names listed, by the metric name they report under. *)
let self_per_round aggs ~rounds names =
  List.map
    (fun (metric, span_names) ->
      let self =
        List.fold_left
          (fun acc n ->
            match List.assoc_opt n aggs with Some a -> acc +. a.Spans.self | None -> acc)
          0. span_names
      in
      (metric, self /. float_of_int (Int.max 1 rounds)))
    names

let durations_ms aggs name =
  match List.assoc_opt name aggs with
  | Some a -> Array.map (fun d -> d *. 1000.) a.Spans.durations
  | None -> [||]

let coverage aggs =
  match List.assoc_opt "bench.round" aggs with
  | Some a when a.Spans.total > 0. -> 1. -. (a.Spans.self /. a.Spans.total)
  | Some _ | None -> 0.

let write_spans spans ~workload ~seed =
  if Spans.enabled spans then begin
    mkdir_p out_dir;
    Spans.write spans
      (Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed))
  end
