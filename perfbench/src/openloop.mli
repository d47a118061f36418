(** Open-loop request generator.

    Requests are issued on a fixed schedule whatever the system does:
    request [i] is due [due i] seconds after the start and is issued
    as soon as it is due and the generator is free. Latency is taken
    from the due time, not from the issue time, so a handler that
    stalls makes every request queued behind it late — the wait a
    user would see. *)

type timing = {
  due : float;  (** Absolute clock reading when the request was due. *)
  started : float;  (** When the generator issued it ([>= due]). *)
  finished : float;
}

val latency : timing -> float
(** [finished - due]. *)

val late : timing -> float
(** [started - due]: how late the generator ran. *)

val spin_until : clock:(unit -> float) -> float -> unit
(** Busy-wait until the clock reads the given time. A sleeping
    generator gives up its core, and on a shared host other tenants
    then evict the handler's working set, so every line after a gap
    would start cold by an amount that follows their load. *)

val run :
  clock:(unit -> float) ->
  idle:(float -> unit) ->
  due:(int -> float) ->
  handle:(int -> unit) ->
  int ->
  timing array
(** [run ~clock ~idle ~due ~handle n] issues requests [0 .. n-1] in
    order. [due] must be nondecreasing; [idle until] is called while
    the clock reads less than [until] and should wait for it. *)

val queue_latencies : due:float array -> service:float array -> float array
(** The same schedule replayed through a single first-come first-served
    server with the given service times: request [i] starts at the
    later of its due time and the previous finish, and its latency is
    its finish minus its due time. Fed the processor time each request
    used, this gives open-loop latencies that time spent waiting for a
    core does not inflate. *)
