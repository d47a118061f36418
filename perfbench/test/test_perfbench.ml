module P = Perfbench
module C = Core

(* ---- percentile helper ---- *)

let tail_of n = P.Stats.supported_tail (Array.init n (fun i -> float_of_int (i + 1)))

let test_tail_rule () =
  Alcotest.(check bool) "19 samples support no percentile" true (Option.is_none (tail_of 19));
  let q n = Option.map (fun (t : P.Stats.tail) -> (t.P.Stats.q, t.P.Stats.n)) (tail_of n) in
  Alcotest.(check (option (pair (float 0.) int))) "20 -> p50" (Some (0.5, 20)) (q 20);
  Alcotest.(check (option (pair (float 0.) int))) "99 -> p75" (Some (0.75, 99)) (q 99);
  Alcotest.(check (option (pair (float 0.) int))) "100 -> p90" (Some (0.9, 100)) (q 100);
  Alcotest.(check (option (pair (float 0.) int))) "1000 -> p99" (Some (0.99, 1000)) (q 1000);
  Alcotest.(check (option (pair (float 0.) int))) "10000 -> p99.9" (Some (0.999, 10000)) (q 10000)

let test_quantile_values () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.(check (float 1e-9)) "p90 of 1..100" 90.1 (P.Stats.quantile xs 0.9);
  Alcotest.(check (float 1e-9)) "median of 1..100" 50.5 (P.Stats.median xs);
  Alcotest.(check (float 1e-9)) "median of one" 7. (P.Stats.median [| 7. |])

(* ---- open loop: latency runs from the due time ---- *)

let fake () =
  let t = ref 0. in
  let clock () = !t in
  let idle until = t := Float.max !t until in
  (t, clock, idle)

let test_stall_makes_later_lines_late () =
  let t, clock, idle = fake () in
  let service = [| 1.0; 0.01; 0.01; 0.01; 0.01 |] in
  let timings =
    P.Openloop.run ~clock ~idle
      ~due:(fun i -> 0.1 *. float_of_int i)
      ~handle:(fun i -> t := !t +. service.(i))
      5
  in
  let lat = Array.map P.Openloop.latency timings in
  Alcotest.(check (float 1e-9)) "stalled line" 1.0 lat.(0);
  (* Line 1 was due at 0.1 but could only start at 1.0. *)
  Alcotest.(check (float 1e-9)) "queued behind the stall" 0.91 lat.(1);
  Alcotest.(check (float 1e-9)) "generator ran late" 0.9 (P.Openloop.late timings.(1));
  Alcotest.(check (float 1e-9)) "still late at line 4" 0.64 lat.(4);
  Array.iter
    (fun tm -> Alcotest.(check bool) "never issued early" true (P.Openloop.late tm >= 0.))
    timings

let test_no_stall_waits_for_due () =
  let t, clock, idle = fake () in
  let timings =
    P.Openloop.run ~clock ~idle ~due:(fun i -> float_of_int i) ~handle:(fun _ -> t := !t +. 0.25) 4
  in
  Array.iteri
    (fun i tm ->
      Alcotest.(check (float 1e-9)) "issued when due" (float_of_int i) tm.P.Openloop.started;
      Alcotest.(check (float 1e-9)) "service time only" 0.25 (P.Openloop.latency tm))
    timings

(* ---- a seed changes the inputs, not the checks ---- *)

let test_enum_seed () =
  let a = P.Enum_study.setup P.Spans.off ~seed:1 and b = P.Enum_study.setup P.Spans.off ~seed:2 in
  Alcotest.(check bool) "relabelled messages differ" false (a.P.Enum_study.messages = b.P.Enum_study.messages);
  let ca = C.Store_codec.encode_trace a.P.Enum_study.trace
  and cb = C.Store_codec.encode_trace b.P.Enum_study.trace in
  Alcotest.(check bool) "relabelled traces differ" false (String.equal ca cb);
  (* The panel's fourth message settles within a few steps, which
     keeps this test fast; the oracle must hold under both labellings. *)
  let one inp = { inp with P.Enum_study.messages = [| inp.P.Enum_study.messages.(3) |] } in
  let ra = P.Enum_study.round P.Spans.off (one a) and rb = P.Enum_study.round P.Spans.off (one b) in
  Alcotest.(check bool) "oracle holds, seed 1" true (P.Enum_study.oracle_ok (one a) ra);
  Alcotest.(check bool) "oracle holds, seed 2" true (P.Enum_study.oracle_ok (one b) rb);
  Alcotest.(check int) "same work under both labellings" (P.Enum_study.sum_steps ra)
    (P.Enum_study.sum_steps rb)

let small_sim seed =
  let inp = P.Sim_study.setup P.Spans.off ~seed in
  let spec = inp.P.Sim_study.spec in
  {
    inp with
    P.Sim_study.spec =
      { spec with C.Runner.workload = { spec.C.Runner.workload with C.Workload.rate = 0.01 } };
  }

let test_sim_seed () =
  let a = small_sim 1 and b = small_sim 2 in
  let a1 = P.Sim_study.round_j1 P.Spans.off a and b1 = P.Sim_study.round_j1 P.Spans.off b in
  Alcotest.(check bool) "different workloads" false
    (Int64.equal (P.Sim_study.digest a1.P.Sim_study.grid) (P.Sim_study.digest b1.P.Sim_study.grid));
  List.iter
    (fun (inp, j1) ->
      let j2 = P.Sim_study.round_j2 inp in
      Alcotest.(check bool) "jobs=2 equals jobs=1" true
        (P.Sim_study.pooled_equal j1.P.Sim_study.pooled j2.P.Sim_study.pooled))
    [ (a, a1); (b, b1) ]

let test_serve_seed () =
  let mk seed =
    P.Serve_replay.inputs ~seed ~seconds:1. ~speedup:70. (C.Dataset.generate C.Dataset.infocom06_am)
  in
  let a = mk 1 and b = mk 2 in
  let queries inp =
    Array.to_list inp.P.Serve_replay.timed
    |> List.filter (fun l -> P.Serve_replay.is_query l.P.Serve_replay.kind)
    |> List.map (fun l -> l.P.Serve_replay.text)
  in
  Alcotest.(check bool) "different queries" false (queries a = queries b);
  List.iter
    (fun inp ->
      let s = P.Serve_replay.open_session "serve-test" inp in
      ignore
        (P.Serve_replay.replay P.Spans.off ~speedup:1e9 inp s : P.Openloop.timing array * float array);
      let closed = P.Serve_replay.closed_loop inp in
      P.Common.rm_rf s.P.Serve_replay.dir;
      Alcotest.(check int) "no err replies" 0 s.P.Serve_replay.errors;
      Alcotest.(check string) "open loop = closed loop" closed (Buffer.contents s.P.Serve_replay.transcript))
    [ a; b ]

(* ---- host-speed adjustment integrates piece by piece ---- *)

let test_speed_integrate () =
  let nom = P.Speed.nominal_s in
  let at = [| 1.; 3. |] and refs = [| nom; 3. *. nom |] in
  let adj n c0 c1 = P.Speed.integrate ~at ~refs n ~c0 ~c1 in
  Alcotest.(check (float 1e-12)) "no sample: unadjusted" 4. (adj 0 0. 4.);
  Alcotest.(check (float 1e-12)) "one sample scales all" 4. (adj 1 0. 4.);
  (* [0,1] at factor 1, [1,3] at 1/2 (mean kernel time 2x nominal),
     [3,4] at 1/3. *)
  Alcotest.(check (float 1e-12)) "piecewise" (1. +. 1. +. (1. /. 3.)) (adj 2 0. 4.);
  Alcotest.(check (float 1e-12)) "additive" (adj 2 0. 4.) (adj 2 0. 2. +. adj 2 2. 4.);
  Alcotest.(check (float 1e-12)) "inside one piece" 0.25 (adj 2 1.5 2.)

(* ---- the metric catalogue is BENCHMARK.json's ---- *)

let test_catalogue () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let mem s =
    let n = String.length s and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = s || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (name, unit_) ->
      Alcotest.(check bool) (name ^ " declared with its unit") true
        (mem (Printf.sprintf "{\"name\": %S, \"unit\": %S" name unit_)))
    (P.Report.end_to_end @ P.Report.per_layer)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "quantile values" `Quick test_quantile_values;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "stall makes later lines late" `Quick test_stall_makes_later_lines_late;
          Alcotest.test_case "waits for due time" `Quick test_no_stall_waits_for_due;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "enum_study" `Quick test_enum_seed;
          Alcotest.test_case "sim_study" `Quick test_sim_seed;
          Alcotest.test_case "serve_replay" `Quick test_serve_seed;
        ] );
      ("speed", [ Alcotest.test_case "adjustment integrates" `Quick test_speed_integrate ]);
      ("catalogue", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_catalogue ]);
    ]
