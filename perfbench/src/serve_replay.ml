(* Online serving: the infocom06_am contact stream replayed open loop,
   from one process into one session under Serve.default_config.

   Which nodes a query names decides most of its cost, and the live
   messages that [advance] re-evaluates are the injected ones, so
   endpoints drawn afresh per seed moved the handler time by a fifth
   between seeds. The query endpoints are therefore drawn once, from a
   fixed generator, and the seed draws a relabelling of the nodes that
   is applied to the stream and to the queries alike (as in
   enum_study).

   Set-up creates the session (with a fresh store for its snapshots)
   and feeds it the first hour of the stream, so the 3600 s window is
   full when timing starts. Each timed replay then issues, at a fixed
   stream-time schedule and [speedup] stream seconds per wall second:
   every contact at its start time, an [advance] every 30 s, one query
   every 10 s rotating through [inject], [paths] and [delivery], and a
   [snapshot] every 300 s. Each
   line is due at its stream time; latency counts from then, so a slow
   [advance] makes the queries queued behind it late. *)

module C = Core

let dataset = C.Dataset.infocom06_am
let default_speedup = 70.
let warmup = 3600.
let advance_every = 30.
let query_every = 10.
let snapshot_every = 300.

(* The timed replay runs this many times, each on a fresh session and
   for an equal share of the run's seconds. A line's service time is
   the mean adjusted processor time of its repetitions. *)
let replays = 4

type kind = Contact | Advance | Inject | Paths | Delivery | Snapshot

let kind_name = function
  | Contact -> "contact"
  | Advance -> "advance"
  | Inject -> "inject"
  | Paths -> "paths"
  | Delivery -> "delivery"
  | Snapshot -> "snapshot"

let is_query = function Inject | Paths | Delivery -> true | Contact | Advance | Snapshot -> false

type line = {
  at : float;  (** stream time *)
  kind : kind;
  text : string;
  contact : C.Contact.t option;  (** what a [Contact] line carries *)
}

type inputs = {
  trace : C.Trace.t;
  warm : line array;  (** fed closed loop during set-up *)
  timed : line array;
  t_end : float;  (** stream time the timed replay ends at *)
}

let contact_line (c : C.Contact.t) =
  {
    at = c.C.Contact.t_start;
    kind = Contact;
    text =
      Printf.sprintf "%d,%d,%h,%h" c.C.Contact.a c.C.Contact.b c.C.Contact.t_start c.C.Contact.t_end;
    contact = Some c;
  }

(* The times [first + k * every] before [hi]. *)
let grid ~first ~every ~hi =
  let rec go k acc =
    let t = first +. (float_of_int k *. every) in
    if t >= hi then List.rev acc else go (k + 1) (t :: acc)
  in
  go 0 []

let rank = function
  | Contact -> 0
  | Advance -> 1
  | Inject | Paths | Delivery -> 2
  | Snapshot -> 3

(* The generator the query endpoints are drawn from, for every seed. *)
let query_seed = 0x5e7e

let inputs ~seed ~seconds ~speedup base =
  let perm = Common.permutation ~seed (C.Trace.n_nodes base) in
  let trace = Common.relabel perm base in
  let contacts = Array.to_list (C.Trace.contacts trace) in
  let t_end =
    Float.min (C.Trace.horizon trace) (warmup +. (speedup *. seconds /. float_of_int replays))
  in
  let warm_contacts, rest = List.partition (fun (c : C.Contact.t) -> c.C.Contact.t_start < warmup) contacts in
  (* Endpoints are nodes the window has already seen, so no query is
     refused for naming an unknown node. *)
  let seen =
    Array.to_list (C.Trace.contacts base)
    |> List.filter (fun (c : C.Contact.t) -> c.C.Contact.t_start < warmup)
    |> List.concat_map (fun (c : C.Contact.t) -> [ c.C.Contact.a; c.C.Contact.b ])
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  let rng = C.Rng.create ~seed:(Int64.of_int query_seed) () in
  let pair () =
    let n = Array.length seen in
    let i = C.Rng.int rng n in
    let j =
      let r = C.Rng.int rng (n - 1) in
      if r >= i then r + 1 else r
    in
    (perm.(seen.(i)), perm.(seen.(j)))
  in
  let queries =
    grid ~first:(warmup +. 5.) ~every:query_every ~hi:t_end
    |> List.mapi (fun i at ->
           let src, dst = pair () in
           let kind = match i mod 3 with 0 -> Inject | 1 -> Paths | _ -> Delivery in
           { at; kind; text = Printf.sprintf "%s %d %d" (kind_name kind) src dst; contact = None })
  in
  let advances =
    grid ~first:(warmup +. advance_every) ~every:advance_every ~hi:t_end
    |> List.map (fun at ->
           { at; kind = Advance; text = Printf.sprintf "advance %h" at; contact = None })
  in
  let snapshots =
    grid ~first:(warmup +. 1.) ~every:snapshot_every ~hi:t_end
    |> List.map (fun at -> { at; kind = Snapshot; text = "snapshot"; contact = None })
  in
  let timed_contacts =
    List.filter (fun (c : C.Contact.t) -> c.C.Contact.t_start < t_end) rest |> List.map contact_line
  in
  let timed =
    List.stable_sort
      (fun a b ->
        match Float.compare a.at b.at with 0 -> Int.compare (rank a.kind) (rank b.kind) | c -> c)
      (timed_contacts @ advances @ queries @ snapshots)
  in
  let warm =
    List.map contact_line warm_contacts
    @ [ { at = warmup; kind = Advance; text = Printf.sprintf "advance %h" warmup; contact = None } ]
  in
  { trace; warm = Array.of_list warm; timed = Array.of_list timed; t_end }

type session = { server : C.Serve.t; dir : string; transcript : Buffer.t; mutable errors : int }

let feed s text =
  let replies = match C.Serve.handle s.server text with `Reply r | `Stop r -> r in
  List.iter
    (fun r ->
      if String.length r >= 3 && String.sub r 0 3 = "err" then s.errors <- s.errors + 1;
      Buffer.add_string s.transcript r;
      Buffer.add_char s.transcript '\n')
    replies

let open_session name inp =
  let dir = Common.scratch_dir name in
  let store = C.Store.open_ ~dir () in
  match C.Serve.create ~store C.Serve.default_config with
  | Error e -> failwith ("Serve.create: " ^ e)
  | Ok server ->
    let s = { server; dir; transcript = Buffer.create (1 lsl 16); errors = 0 } in
    Array.iter (fun l -> feed s l.text) inp.warm;
    s

let setup spans ~seed ~seconds ~speedup ~name =
  let trace = Spans.with_span spans "trace.generate" (fun () -> C.Dataset.generate dataset) in
  let inp = Spans.with_span spans "bench.inputs" (fun () -> inputs ~seed ~seconds ~speedup trace) in
  (inp, Spans.with_span spans "bench.session" (fun () -> open_session name inp))

(* A reference-kernel sample costs about 15 ms; the generator takes
   one in every gap at least this long, so no line waits for it and
   each query is adjusted by samples taken just around it. *)
let sample_gap = 0.05

(* The open-loop replay. Returns each line's timing and the adjusted
   processor time it used inside Serve.handle. The generator samples
   the host's speed in its idle gaps. *)
let replay spans ~speedup inp s =
  let idle until =
    Spans.with_span spans "gen.idle" (fun () ->
        if until -. Common.now () >= sample_gap then Speed.maybe_sample ~interval:sample_gap ();
        Openloop.spin_until ~clock:Common.now until)
  in
  Speed.sample ();
  let t0 = inp.timed.(0).at in
  let lines = inp.timed in
  let service = Array.make (Array.length lines) (0., 0.) in
  let timings =
    Spans.with_span spans "bench.round" (fun () ->
        Openloop.run ~clock:Common.now ~idle
          ~due:(fun i -> (lines.(i).at -. t0) /. speedup)
          ~handle:(fun i ->
            let c = Common.cpu () in
            Spans.with_span spans ("serve." ^ kind_name lines.(i).kind) (fun () ->
                feed s lines.(i).text);
            service.(i) <- (c, Common.cpu ()))
          (Array.length lines))
  in
  Speed.sample ();
  (timings, Array.map (fun (c0, c1) -> Speed.adjusted ~c0 ~c1) service)

(* The closed-loop reference: the same lines, fed back to back. *)
let closed_loop inp =
  let s = open_session "serve-closed" inp in
  Array.iter (fun l -> feed s l.text) inp.timed;
  Common.rm_rf s.dir;
  Buffer.contents s.transcript

(* The window alone, fed the same stream: ingest every contact, slide
   at every advance and clip the window at every query. *)
let window_probe spans inp =
  match C.Serve_window.create C.Serve.default_config.C.Serve.window with
  | Error e -> failwith ("Serve_window.create: " ^ e)
  | Ok w ->
    let step l =
      match (l.kind, l.contact) with
      | Contact, Some c -> (
        match Spans.with_span spans "window.ingest" (fun () -> C.Serve_window.ingest w c) with
        | Ok (_ : C.Serve_window.verdict) -> ()
        | Error e -> failwith e)
      | Contact, None | Snapshot, _ -> ()
      | Advance, _ -> (
        match C.Serve_window.advance w l.at with Ok (_ : int) -> () | Error e -> failwith e)
      | (Inject | Paths | Delivery), _ ->
        ignore
          (Spans.with_span spans "window.trace" (fun () -> C.Serve_window.trace w)
            : (C.Trace.t, string) result)
    in
    Array.iter step inp.warm;
    Array.iter step inp.timed;
    C.Serve_window.peak w

(* The transcript depends on how much stream is replayed, so it is
   pinned for the default seed at BENCHMARK.json's setting: four
   replays sharing 25 s at 70x, i.e. stream time 3600 to 4037.5. *)
let pinned_t_end = 4037.5
let pinned = "dfe18a8951a3a361"

let run ~spans ~seed ~seconds ~trace ~speedup =
  let notes = ref [] in
  let rep = ref 0 in
  let previous = ref None in
  let setup_s, (inp, first_session) =
    Common.timed_setup ~reps:41 (fun ~last ->
        Option.iter (fun (s : session) -> Common.rm_rf s.dir) !previous;
        incr rep;
        let ((_, s) as v) =
          setup (if last then spans else Spans.off) ~seed ~seconds ~speedup
            ~name:(Printf.sprintf "serve%d" !rep)
        in
        previous := Some s;
        v)
  in
  let lines = inp.timed in
  (* A traced run traces the second replay only, so the first is its
     untraced twin. *)
  let runs =
    List.init replays (fun i ->
        let s = if i = 0 then first_session else open_session (Printf.sprintf "serve-r%d" i) inp in
        let spans = if trace && i = 1 then spans else Spans.off in
        let timings, service = replay spans ~speedup inp s in
        (s, timings, service))
  in
  let service =
    Array.mapi
      (fun i _ ->
        List.fold_left (fun acc (_, _, sv) -> acc +. sv.(i)) 0. runs /. float_of_int replays)
      lines
  in
  let sum = Array.fold_left ( +. ) 0. in
  (* Per-line values, in milliseconds, of the lines [p] selects. *)
  let select p values =
    Array.of_list
      (List.filteri (fun i _ -> p lines.(i).kind) (Array.to_list values)
      |> List.map (fun v -> v *. 1000.))
  in
  let query_ms =
    select is_query
      (Openloop.queue_latencies
         ~due:(Array.map (fun l -> (l.at -. lines.(0).at) /. speedup) lines)
         ~service)
  in
  let all_timings = Array.concat (List.map (fun (_, t, _) -> t) runs) in
  let select_all p f =
    Array.concat (List.map (fun (_, t, _) -> select p (Array.map f t)) runs)
  in
  let query_wall = select_all is_query Openloop.latency in
  let late = select_all (fun _ -> true) Openloop.late in
  let busy_of t = t.Openloop.finished -. t.Openloop.started in
  let wall = sum (Array.map (fun (_, t, _) -> t.(Array.length t - 1).Openloop.finished -. t.(0).Openloop.due) (Array.of_list runs)) in
  let busy_total = sum (Array.map busy_of all_timings) in
  let capacity = (inp.t_end -. warmup) /. sum service in
  let closed_transcript = closed_loop inp in
  let ok_transcript =
    Common.check "open-loop transcripts = closed-loop transcript"
      (List.for_all (fun (s, _, _) -> String.equal (Buffer.contents s.transcript) closed_transcript) runs)
      notes
  in
  let d = Common.digest [ closed_transcript ] in
  let ok_pin =
    if Float.equal inp.t_end pinned_t_end then Common.pinned_check ~seed ~pinned ~digest:d notes
    else begin
      notes :=
        Printf.sprintf "digest %s (pinned only for stream end %g)" (Common.hex d) pinned_t_end
        :: !notes;
      true
    end
  in
  notes :=
    List.rev_append
      [
        Printf.sprintf
          "query_p50_ms %.6g ms from the due time, each line served in its mean adjusted processor time \
           over %d replays (%d queries; %s)"
          (Stats.median query_ms) replays (Array.length query_ms) (Stats.describe_tail query_ms);
        Printf.sprintf "query_p50_ms (wall clock) %.6g ms from the due time (%d replays; %s)"
          (Stats.median query_wall) replays (Stats.describe_tail query_wall);
        Printf.sprintf
          "serve_capacity_x %.6g stream s per handler adjusted processor s (handler busy %.3f s of %.3f s \
           wall over %d replays, speed-up %g)"
          capacity busy_total wall replays speedup;
        Printf.sprintf "generator lateness ms: median %.4g, %s" (Stats.median late)
          (Stats.describe_tail late);
      ]
      !notes;
  let layers =
    match (trace, runs) with
    | true, (_, _, untraced_service) :: (s, timings, traced_service) :: _ ->
      let summary = C.Serve.summary s.server in
      let peak = window_probe spans inp in
      let aggs = Spans.aggregate spans in
      let busy = Array.map busy_of timings in
      let busy_of_kind k = select (fun k' -> k' = k) busy in
      let sum_s k = sum (busy_of_kind k) /. 1000. in
      let p90_ms k = Stats.quantile (busy_of_kind k) 0.9 in
      let traced_wall = timings.(Array.length timings - 1).Openloop.finished -. timings.(0).Openloop.due in
      Common.self_per_round aggs ~rounds:1
        [
          ("trace.generate_s", [ "trace.generate" ]);
          ("window.ingest_s", [ "window.ingest" ]);
          ("window.trace_s", [ "window.trace" ]);
        ]
      @ [
          ("trace.contacts", float_of_int (C.Trace.n_contacts inp.trace));
          ("serve.contact_s", sum_s Contact);
          ("serve.advance_s", sum_s Advance);
          ("serve.advance_p90_ms", p90_ms Advance);
          ("serve.paths_p90_ms", p90_ms Paths);
          ("serve.delivery_p90_ms", p90_ms Delivery);
          ("serve.query_p90_ms", Stats.quantile (select is_query (Array.map Openloop.latency timings)) 0.9);
          ("serve.snapshot_s", sum_s Snapshot);
          ("serve.busy_share", sum busy /. traced_wall);
          ("serve.capacity_x", capacity);
          ("serve.delivered", float_of_int summary.C.Serve.s_delivered);
          ("serve.expired", float_of_int summary.C.Serve.s_expired);
          ("window.peak", float_of_int peak);
          ("gen.late_p90_ms", Stats.quantile (select (fun _ -> true) (Array.map Openloop.late timings)) 0.9);
          ("trace_overhead_ratio", sum traced_service /. sum untraced_service);
          ("trace_coverage", Common.coverage aggs);
        ]
    | _, _ -> []
  in
  List.iter (fun (s, _, _) -> Common.rm_rf s.dir) runs;
  {
    Report.correct = ok_transcript && ok_pin;
    attempted = Array.length lines * replays;
    failed = List.fold_left (fun acc (s, _, _) -> acc + s.errors) 0 runs;
    e2e =
      [
        ("setup_s", setup_s);
        ("ops_per_s", float_of_int (Array.length lines) /. sum service);
        ("op_p50_ms", Stats.median query_ms);
      ];
    layers;
    notes = List.rev !notes;
  }
