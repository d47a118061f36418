(* Crash-point matrix — the issue's acceptance criterion, end to end
   through the real CLI binary.

   For every dangerous site (store insert windows, manifest rename,
   runner task, engine hot loop) and a spread of --jobs values, a
   sweep is killed by an injected `crash` failpoint (Unix._exit 170,
   no cleanup — the honest stand-in for kill -9), and we then assert:

   - the death really was the injected crash (exit code 170);
   - `store verify` on the survivor store exits 0: recovery at open
     (tmp sweep + intent-journal replay) left no corrupt frame;
   - re-running the same command without the failpoint exits 0 and
     prints output byte-identical to a never-interrupted run, modulo
     the `store ...` report lines whose hit/miss split legitimately
     differs on a resumed run.

   The enumeration sweep (`psn explosion`, memoized per message in the
   same store) gets the same kill/verify/resume treatment, and the gc
   eviction windows get it through `psn store gc --failpoints`.
   Usage: crash_matrix <psn_cli.exe> <trace-file>. *)

let () =
  if Array.length Sys.argv <> 3 then begin
    prerr_endline "usage: crash_matrix <psn_cli.exe> <trace-file>";
    exit 2
  end

let cli = Filename.quote Sys.argv.(1)
let trace = Filename.quote Sys.argv.(2)

let failures = ref 0

let failf fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.eprintf "FAIL %s\n%!" s)
    fmt

let sh fmt = Printf.ksprintf Sys.command fmt

let rm_rf dir = ignore (sh "rm -rf %s" (Filename.quote dir))

(* Stdout minus the store-report lines (a resumed run reports hits
   where the uninterrupted one reported misses — by design). *)
let canon path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' s
  |> List.filter (fun l ->
         not (String.length l >= 6 && String.equal (String.sub l 0 6) "store "))
  |> String.concat "\n"

let simulate ?failpoints ~dir ~jobs out =
  let fp =
    match failpoints with
    | None -> ""
    | Some s -> Printf.sprintf " --failpoints %s" (Filename.quote s)
  in
  sh "%s simulate -t %s --seeds 2 -a direct,epidemic -j %d --chunk 1 --store %s --checkpoint 1%s > %s 2>/dev/null"
    cli trace jobs (Filename.quote dir) fp (Filename.quote out)

let explosion ?failpoints ?(resume = false) ~dir ~jobs out =
  let fp =
    match failpoints with
    | None -> ""
    | Some s -> Printf.sprintf " --failpoints %s" (Filename.quote s)
  in
  sh "%s explosion --messages 8 -k 200 -j %d --store %s --checkpoint 1%s%s > %s 2>/dev/null" cli
    jobs (Filename.quote dir) fp
    (if resume then " --resume" else "")
    (Filename.quote out)

let verify dir = sh "%s store verify --store %s >/dev/null 2>&1" cli (Filename.quote dir)

let crash_exit = 170

let () =
  (* The uninterrupted reference output (scheduling-independent, so
     one baseline serves every jobs value). *)
  rm_rf "cm_base";
  let code = simulate ~dir:"cm_base" ~jobs:1 "cm_base.out" in
  if code <> 0 then failf "baseline simulate exited %d" code;
  let baseline = canon "cm_base.out" in
  if String.length baseline = 0 then failf "baseline produced no output";

  (* site, failpoint rule, jobs values to kill under. The store's
     single-writer sites are scheduling-independent by construction,
     so jobs=1 suffices; the task/engine sites also crash under a
     parallel pool. *)
  let matrix =
    [
      ("store.insert.pre_journal", "crash@1", [ 1 ]);
      ("store.insert.pre_rename", "crash@2", [ 1 ]);
      ("store.insert.post_rename", "crash@1", [ 1 ]);
      ("store.manifest.pre_rename", "crash@2", [ 1 ]);
      ("runner.task", "crash@2", [ 1; 4 ]);
      ("engine.contact", "crash@5", [ 1; 4 ]);
    ]
  in
  List.iter
    (fun (site, rule, jobs_list) ->
      List.iter
        (fun jobs ->
          let label = Printf.sprintf "%s=%s jobs=%d" site rule jobs in
          let dir = "cm_run" in
          rm_rf dir;
          let code =
            simulate ~failpoints:(Printf.sprintf "%s=%s" site rule) ~dir ~jobs "cm_crash.out"
          in
          if code <> crash_exit then failf "%s: crash run exited %d, want %d" label code crash_exit
          else begin
            let v = verify dir in
            if v <> 0 then failf "%s: store verify exited %d after crash" label v;
            let r = simulate ~dir ~jobs "cm_resume.out" in
            if r <> 0 then failf "%s: resume exited %d" label r
            else if not (String.equal (canon "cm_resume.out") baseline) then
              failf "%s: resumed output differs from uninterrupted run" label
          end)
        jobs_list)
    matrix;

  (* Enumeration sweep: one cached enumeration per message, one
     message per checkpoint round; killed right after the third entry
     lands, so the resume replays three hits and computes the rest. *)
  rm_rf "cm_enum_base";
  let code = explosion ~dir:"cm_enum_base" ~jobs:1 "cm_enum_base.out" in
  if code <> 0 then failf "baseline explosion exited %d" code;
  let enum_baseline = canon "cm_enum_base.out" in
  List.iter
    (fun jobs ->
      let label = Printf.sprintf "explosion store.insert.post_rename=crash@3 jobs=%d" jobs in
      let dir = "cm_enum" in
      rm_rf dir;
      let code =
        explosion ~failpoints:"store.insert.post_rename=crash@3" ~dir ~jobs "cm_enum_crash.out"
      in
      if code <> crash_exit then failf "%s: crash run exited %d, want %d" label code crash_exit
      else begin
        let v = verify dir in
        if v <> 0 then failf "%s: store verify exited %d after crash" label v;
        let r = explosion ~resume:true ~dir ~jobs "cm_enum_resume.out" in
        if r <> 0 then failf "%s: resume exited %d" label r
        else if not (String.equal (canon "cm_enum_resume.out") enum_baseline) then
          failf "%s: resumed output differs from uninterrupted run" label
      end)
    [ 1; 4 ];

  (* gc eviction windows: populate, kill mid-gc, prove recovery and
     that finishing the gc still works. *)
  List.iter
    (fun site ->
      let dir = "cm_gc" in
      rm_rf dir;
      let code = simulate ~dir ~jobs:1 "cm_gc.out" in
      if code <> 0 then failf "gc populate exited %d" code;
      let code =
        sh "%s store gc --store %s --max-bytes 0 --failpoints %s >/dev/null 2>&1" cli
          (Filename.quote dir)
          (Filename.quote (Printf.sprintf "%s=crash@1" site))
      in
      if code <> crash_exit then failf "%s: gc crash exited %d, want %d" site code crash_exit
      else begin
        let v = verify dir in
        if v <> 0 then failf "%s: store verify exited %d after gc crash" site v;
        let g = sh "%s store gc --store %s --max-bytes 0 >/dev/null 2>&1" cli (Filename.quote dir) in
        if g <> 0 then failf "%s: finishing gc exited %d" site g;
        let v2 = verify dir in
        if v2 <> 0 then failf "%s: store verify exited %d after finished gc" site v2
      end)
    [ "store.gc.pre_remove"; "store.gc.post_remove" ];

  (* Flight recorder: a serve session armed with --flight dies on an
     injected crash (exit 170); the post-mortem dump must exist and
     pass `psn metrics check --flight` with at least one ring event
     (the protocol lines noted before the death). *)
  (let script = "cm_serve.script" in
   let oc = open_out script in
   output_string oc
     "0,1,0,60\n1,2,30,90\n2,3,80,150\nadvance 100\ninject 0 3\n0,3,120,130\nadvance 200\nquit\n";
   close_out oc;
   let dump = "cm_flight.json" in
   if Sys.file_exists dump then Sys.remove dump;
   let code =
     sh "%s serve --script %s --window 200 --flight %s --failpoints engine.contact=crash@1 >/dev/null 2>&1"
       cli (Filename.quote script) (Filename.quote dump)
   in
   if code <> crash_exit then failf "flight: serve crash exited %d, want %d" code crash_exit
   else if not (Sys.file_exists dump) then failf "flight: no post-mortem dump at %s" dump
   else begin
     let check = sh "%s metrics check --flight %s >/dev/null 2>&1" cli (Filename.quote dump) in
     if check <> 0 then failf "flight: metrics check --flight exited %d" check;
     let ic = open_in_bin dump in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     let has needle =
       let nl = String.length needle and tl = String.length text in
       let rec go i = i + nl <= tl && (String.equal (String.sub text i nl) needle || go (i + 1)) in
       go 0
     in
     if not (has "\"seq\"") then failf "flight: dump has no ring events";
     if not (has "failpoint crash at engine.contact") then
       failf "flight: dump reason does not name the crash site"
   end);

  if !failures > 0 then begin
    Printf.eprintf "crash matrix: %d scenario(s) failed\n%!" !failures;
    exit 1
  end;
  print_endline "crash matrix: all scenarios recovered and resumed bit-identically"
