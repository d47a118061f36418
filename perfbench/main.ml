(* Entry point of the repository benchmark.

     main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
              [--serve-speedup X]
     main.exe [--seed N] [--seconds S] [--trace 0|1]   (every workload)

   One workload runs per process, so its peak RSS is its own. The last
   line of standard output is the JSON result; the lines above it name
   every metric with its unit, the checks and the output digest. The
   exit code is 0 only when every check passed. *)

module P = Perfbench

let workloads = [ "enum_study"; "sim_study"; "serve_replay"; "store_warm" ]

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  speedup : float;
}

let usage () =
  prerr_endline
    "usage: main.exe [--workload enum_study|sim_study|serve_replay|store_warm] [--seed N] \
     [--seconds S] [--trace 0|1] [--serve-speedup X]";
  exit 2

let parse argv =
  let positive_float s =
    match float_of_string_opt s with Some v when v > 0. -> v | Some _ | None -> usage ()
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest when List.mem w workloads -> go { a with workload = Some w } rest
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with Some s -> go { a with seed = s } rest | None -> usage ())
    | "--seconds" :: s :: rest -> go { a with seconds = positive_float s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = String.equal t "1" } rest
    | "--serve-speedup" :: x :: rest -> go { a with speedup = positive_float x } rest
    | _ -> usage ()
  in
  go
    {
      workload = None;
      seed = P.Common.default_seed;
      seconds = 15.;
      trace = false;
      speedup = P.Serve_replay.default_speedup;
    }
    (List.tl (Array.to_list argv))

let run_one a workload =
  let spans = P.Spans.create ~on:a.trace in
  let seconds = a.seconds and seed = a.seed and trace = a.trace in
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" workload seed seconds
    (Bool.to_int trace);
  let r =
    match workload with
    | "enum_study" -> P.Enum_study.run ~spans ~seed ~seconds ~trace
    | "sim_study" -> P.Sim_study.run ~spans ~seed ~seconds ~trace
    | "store_warm" -> P.Store_warm.run ~spans ~seed ~seconds ~trace
    | _ -> P.Serve_replay.run ~spans ~seed ~seconds ~trace ~speedup:a.speedup
  in
  let r =
    {
      r with
      P.Report.e2e = ("peak_rss_mb", P.Common.peak_rss_mb ()) :: r.P.Report.e2e;
      notes = r.P.Report.notes @ [ P.Speed.summary () ];
    }
  in
  P.Common.write_spans spans ~workload ~seed;
  P.Report.print_human ~trace r;
  print_endline (P.Report.json ~trace r);
  exit (if r.P.Report.correct then 0 else 1)

(* Every workload, each in a child process of this executable. *)
let run_all a =
  let failed =
    List.filter
      (fun w ->
        let args =
          [|
            Sys.executable_name; "--workload"; w; "--seed"; string_of_int a.seed; "--seconds";
            Printf.sprintf "%g" a.seconds; "--trace"; (if a.trace then "1" else "0");
            "--serve-speedup"; Printf.sprintf "%g" a.speedup;
          |]
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> false | _, _ -> true)
      workloads
  in
  if failed <> [] then begin
    Printf.eprintf "failed: %s\n" (String.concat ", " failed);
    exit 1
  end

let () =
  let a = parse Sys.argv in
  match a.workload with Some w -> run_one a w | None -> run_all a
