(* Crash flight recorder: a bounded ring of recent structured events,
   dumped as a post-mortem JSON when the process dies abnormally — an
   injected [crash] failpoint, a signal, or an uncaught error.

   Recording follows the telemetry null-sink discipline: with no
   recorder armed, [note] is one atomic load and a branch. Armed
   recording takes a mutex — events arrive from whichever domain hits
   a store insert or a task retry, and the ring index must not race —
   but the recorder never feeds anything back to its callers, so
   arming it cannot change computed results.

   The dump deliberately happens on the abnormal-exit path itself
   (including inside Failpoint's [crash] action, just before the
   cleanup-free [Unix._exit]): a flight recorder that relied on
   orderly shutdown would miss exactly the deaths it exists for. *)

type entry = { seq : int; label : string; fields : (string * string) list }

type recorder = {
  path : string;
  cap : int;
  ring : entry option array;
  mutable next_seq : int;
  lock : Mutex.t;
}

let default_cap = 256

let current : recorder option Atomic.t = Atomic.make None

let arm ?(cap = default_cap) path =
  let cap = Int.max 1 cap in
  Atomic.set current
    (Some { path; cap; ring = Array.make cap None; next_seq = 0; lock = Mutex.create () })

let disarm () = Atomic.set current None

let armed () = Option.is_some (Atomic.get current)

let note label fields =
  match Atomic.get current with
  | None -> ()
  | Some r ->
    Mutex.lock r.lock;
    let seq = r.next_seq in
    r.next_seq <- seq + 1;
    r.ring.(seq mod r.cap) <- Some { seq; label; fields };
    Mutex.unlock r.lock

(* ---- JSON dump -------------------------------------------------------- *)

module Json = Psn_det.Json

let render ~reason r =
  let b = Buffer.create 1024 in
  let recorded = Int.min r.next_seq r.cap in
  Buffer.add_string b
    (Printf.sprintf "{\"version\":1,\"reason\":\"%s\",\"recorded\":%d,\"dropped\":%d,\"events\":["
       (Json.escape reason) recorded
       (Int.max 0 (r.next_seq - r.cap)));
  (* Oldest surviving event first: the ring holds seqs
     [next_seq - recorded, next_seq). *)
  let first = ref true in
  for seq = r.next_seq - recorded to r.next_seq - 1 do
    match r.ring.(seq mod r.cap) with
    | None -> ()
    | Some e ->
      if not !first then Buffer.add_char b ',';
      first := false;
      Buffer.add_string b
        (Printf.sprintf "{\"seq\":%d,\"label\":\"%s\"" e.seq (Json.escape e.label));
      List.iter
        (fun (k, v) ->
          Buffer.add_string b (Printf.sprintf ",\"%s\":\"%s\"" (Json.escape k) (Json.escape v)))
        e.fields;
      Buffer.add_char b '}'
  done;
  Buffer.add_string b "]}\n";
  Buffer.contents b

(* Best-effort single write: the dump path runs where raising would
   mask the original death, so write errors are swallowed. No
   tmp+rename dance — a crash dump half-written because the disk died
   is still more evidence than no dump, and the validator catches
   truncation. *)
let dump ~reason () =
  match Atomic.get current with
  | None -> ()
  | Some r -> (
    Mutex.lock r.lock;
    let text = render ~reason r in
    Mutex.unlock r.lock;
    match open_out_bin r.path with
    | oc ->
      (try output_string oc text with Sys_error _ -> ());
      (try close_out oc with Sys_error _ -> ())
    | exception Sys_error _ -> ())

(* ---- post-mortem validation ------------------------------------------- *)

(* A tiny JSON syntax checker (objects/arrays/strings/numbers/atoms)
   plus the shape the dump promises: top-level object with "version",
   "reason" and "events". Returns the event count so tests can assert
   the crash actually left evidence behind. *)

exception Bad of string

let validate text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when Char.equal got c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let events = ref 0 in
  let rec parse_value ~depth =
    if depth > 32 then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      let keys = ref [] in
      (match peek () with
      | Some '}' -> advance ()
      | _ ->
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          keys := k :: !keys;
          skip_ws ();
          expect ':';
          parse_value ~depth:(depth + 1) |> ignore;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or } in object"
        in
        members ());
      if List.exists (String.equal "seq") !keys then incr events;
      !keys
    | Some '[' ->
      advance ();
      skip_ws ();
      (match peek () with
      | Some ']' -> advance ()
      | _ ->
        let rec elements () =
          parse_value ~depth:(depth + 1) |> ignore;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ] in array"
        in
        elements ());
      []
    | Some '"' ->
      parse_string () |> ignore;
      []
    | Some ('-' | '0' .. '9') ->
      let rec num () =
        match peek () with
        | Some ('-' | '+' | '.' | 'e' | 'E' | '0' .. '9') ->
          advance ();
          num ()
        | _ -> ()
      in
      num ();
      []
    | Some 't' | Some 'f' | Some 'n' ->
      let rec word () =
        match peek () with
        | Some ('a' .. 'z') ->
          advance ();
          word ()
        | _ -> ()
      in
      word ();
      []
    | _ -> fail "expected a JSON value"
  in
  match
    let keys = parse_value ~depth:0 in
    skip_ws ();
    if !pos <> n then fail "trailing bytes after document";
    keys
  with
  | keys ->
    let has k = List.exists (String.equal k) keys in
    if not (has "version" && has "reason" && has "events") then
      Error "not a flight-recorder dump (missing version/reason/events)"
    else Ok !events
  | exception Bad msg -> Error msg
