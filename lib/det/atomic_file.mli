(** The one atomic text writer.

    Every whole-file text output the project writes (trace files,
    Chrome traces, gnuplot data, OpenMetrics expositions) goes through
    {!write}: the text lands in [path ^ ".tmp"], which is then renamed
    over [path], so a reader of [path] sees either the previous
    complete file or the new complete one, never a torn write. *)

val write : path:string -> string -> unit
(** [write ~path text] atomically replaces [path] with [text]. The
    temporary channel is closed on every path; if the write or the
    rename fails, the temporary file is removed and the exception
    (normally [Sys_error]) is re-raised, leaving [path] untouched. *)
