(* psn_lint — the determinism-contract linter.

   Usage: psn_lint [--config lint.toml] [--format human|json|sarif]
          [--graph json|dot] [--jobs N] [--rules] PATH...

   Exit codes: 0 clean, 1 findings, 2 usage or configuration error.
   --graph prints the resolved whole-program call graph instead of
   findings and always exits 0; its output is byte-stable across runs
   and across --jobs values. *)

let usage =
  "psn_lint [--config FILE] [--format human|json|sarif] [--graph json|dot] [--jobs N] [--rules] \
   PATH..."

module Json = Psn_det.Json

(* SARIF 2.1.0, the GitHub code-scanning subset: one run, the full
   rule registry in the driver, one result per finding. Emitted
   sorted (findings already are), so the artifact is deterministic. *)
let print_sarif findings =
  Format.printf
    "{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{";
  Format.printf "\"tool\":{\"driver\":{\"name\":\"psn_lint\",\"rules\":[";
  List.iteri
    (fun i (r : Psn_lint.Rules.t) ->
      if i > 0 then Format.printf ",";
      Format.printf
        "@.  {\"id\":\"%s\",\"shortDescription\":{\"text\":\"%s\"},\"fullDescription\":{\"text\":\"%s\"}}"
        (Json.escape r.Psn_lint.Rules.name)
        (Json.escape r.Psn_lint.Rules.summary)
        (Json.escape r.Psn_lint.Rules.rationale))
    Psn_lint.Rules.all;
  Format.printf "@.]}},\"results\":[";
  List.iteri
    (fun i (d : Psn_lint.Diagnostic.t) ->
      if i > 0 then Format.printf ",";
      Format.printf
        "@.  {\"ruleId\":\"%s\",\"level\":\"error\",\"message\":{\"text\":\"%s\"},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":\"%s\"},\"region\":{\"startLine\":%d,\"startColumn\":%d}}}]}"
        (Json.escape d.Psn_lint.Diagnostic.rule)
        (Json.escape d.Psn_lint.Diagnostic.message)
        (Json.escape d.Psn_lint.Diagnostic.file)
        d.Psn_lint.Diagnostic.line
        (d.Psn_lint.Diagnostic.col + 1))
    findings;
  Format.printf "@.]}]}@."

let () =
  let format = ref `Human in
  let graph = ref None in
  let jobs = ref 1 in
  let config_path = ref None in
  let list_rules = ref false in
  let paths = ref [] in
  let set_format = function
    | "human" -> format := `Human
    | "json" -> format := `Json
    | "sarif" -> format := `Sarif
    | other ->
      Printf.eprintf "psn_lint: unknown format %S (expected human, json or sarif)\n" other;
      exit 2
  in
  let set_graph = function
    | "json" -> graph := Some `Json
    | "dot" -> graph := Some `Dot
    | other ->
      Printf.eprintf "psn_lint: unknown graph format %S (expected json or dot)\n" other;
      exit 2
  in
  let spec =
    [
      ("--config", Arg.String (fun f -> config_path := Some f), "FILE per-path allowlist (lint.toml)");
      ("--format", Arg.String set_format, "FMT output format: human (default), json or sarif");
      ( "--graph",
        Arg.String set_graph,
        "FMT print the whole-program call graph (json or dot) and exit 0" );
      ("--jobs", Arg.Int (fun n -> jobs := n), "N fan per-file analysis over N domains (default 1)");
      ("--rules", Arg.Set list_rules, " list every rule with its rationale and exit");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun p -> paths := p :: !paths) usage with
  | Arg.Bad msg ->
    prerr_string msg;
    exit 2
  | Arg.Help msg ->
    print_string msg;
    exit 0);
  if !list_rules then begin
    Format.printf "%a" Psn_lint.Rules.pp_list ();
    exit 0
  end;
  let paths = List.rev !paths in
  if List.is_empty paths then begin
    Printf.eprintf "psn_lint: no paths given\nusage: %s\n" usage;
    exit 2
  end;
  if !jobs < 1 then begin
    Printf.eprintf "psn_lint: --jobs must be at least 1\n";
    exit 2
  end;
  List.iter
    (fun p ->
      if not (Sys.file_exists p) then begin
        Printf.eprintf "psn_lint: no such file or directory: %s\n" p;
        exit 2
      end)
    paths;
  let config =
    match !config_path with
    | None -> Psn_lint.Config.empty
    | Some file -> (
      match Psn_lint.Config.load file with
      | Ok c -> c
      | Error msg ->
        Printf.eprintf "psn_lint: %s\n" msg;
        exit 2)
  in
  let findings, callgraph = Psn_lint.Linter.analyze ~config ~jobs:!jobs paths in
  match !graph with
  | Some `Json ->
    Format.printf "%a" Psn_lint.Callgraph.pp_json callgraph;
    exit 0
  | Some `Dot ->
    Format.printf "%a" Psn_lint.Callgraph.pp_dot callgraph;
    exit 0
  | None ->
    (match !format with
    | `Human ->
      List.iter (fun d -> Format.printf "%a@." Psn_lint.Diagnostic.pp d) findings;
      let n = List.length findings in
      if n > 0 then
        Format.printf
          "%d finding%s (see --rules for rationale; suppress with [@lint.allow \"<rule>\"])@." n
          (if n = 1 then "" else "s")
    | `Json ->
      Format.printf "{\"findings\":[";
      List.iteri
        (fun i d ->
          if i > 0 then Format.printf ",";
          Format.printf "@.  %a" Psn_lint.Diagnostic.pp_json d)
        findings;
      if not (List.is_empty findings) then Format.printf "@.";
      Format.printf "]}@."
    | `Sarif -> print_sarif findings);
    exit (if List.is_empty findings then 0 else 1)
