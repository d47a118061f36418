(** The one JSON string escaper.

    Every JSON document the project writes (Chrome traces, flight
    recorder dumps, lint diagnostics, the call-graph export, SARIF)
    escapes its strings here, so they all agree on one form: the double
    quote and the backslash are backslash-escaped; newline, tab and
    carriage return become backslash-n, -t and -r; other control bytes
    below 0x20 become a four-digit [u00XX] escape; every other byte
    (including UTF-8) passes through. *)

val escape : string -> string
(** [escape s] is the escaped body of [s], without surrounding
    quotes. *)
