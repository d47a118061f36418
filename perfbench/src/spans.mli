(** In-memory span recorder for the traced run.

    A span has a name, a start, an end and the span that was open when
    it began (its parent). Nothing is written until {!write}, so the
    only cost inside a traced phase is two clock reads and one
    allocation per span. A recorder created with [~on:false] records
    nothing and {!with_span} is a plain call. *)

type span = private {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root. *)
  start : float;
  mutable stop : float;
}

type t

val create : on:bool -> t
val off : t
(** A shared disabled recorder. *)

val enabled : t -> bool

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Time [f] as a child of the innermost open span (also on
    exception). *)

val count : t -> string -> int -> unit
(** Add to a named counter (ignored when disabled). *)

val with_telemetry : t -> (Core.Telemetry.sink -> 'a) -> 'a
(** Run [f] with a live telemetry sink when enabled (the null sink
    otherwise), then graft the library's spans under the current span
    and add its counters to this recorder's. *)

val spans : t -> span list
(** In creation order. *)

val counter : t -> string -> int

type agg = {
  total : float;  (** Summed span durations, seconds. *)
  self : float;  (** [total] minus the time covered by child spans. *)
  calls : int;
  durations : float array;  (** Per call, seconds, in call order. *)
}

val aggregate : t -> (string * agg) list
(** Per span name, sorted by name. *)

val write : t -> string -> unit
(** Write every span as one JSON line. *)
