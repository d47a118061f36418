(** The host's speed, measured by a fixed reference kernel.

    The benchmark shares a host with other tenants, and their load
    changes the speed of the same code by up to 2x over seconds to
    minutes. Most of that change is contention for caches and memory:
    a cache-bound search and a bandwidth-bound sweep slowed with the
    workloads (correlation 0.84 to 0.97 over 15 s windows), a
    register-bound loop much less. So the benchmark runs such a kernel
    between its operations and adjusts every processor time by the
    kernel's speed at that moment.

    The kernel is breadth-first search over a fixed random graph of
    32768 nodes and out-degree 8, for cache latency, then two
    sequential sweeps over a 16 MB array, for memory bandwidth. Its
    arrays are preallocated: it allocates nothing, so neither the
    program's heap nor its GC settings change its speed, and it lives
    here, so no change to the library can change it either.

    The benchmark samples the kernel every quarter of a second or so,
    between its operations, and keeps a log of the samples on the
    axis of {!clock}. A processor-time interval is adjusted piece by
    piece: the part between two samples is multiplied by [nominal_s]
    over their mean. The result is the time the interval would have
    taken at the speed at which the kernel takes [nominal_s]. *)

val nominal_s : float
(** The kernel's processor time on a quiet host: a fixed 10 ms, near
    the fastest it has run on the 2-core machine the bounds were set
    on. *)

val resident_mb : float
(** The size of the kernel's arrays, which stay resident. *)

val clock : unit -> float
(** Processor seconds of this process (user + system, all domains),
    less the time spent in samples. *)

val sample : unit -> unit
(** Measure the kernel now and log it. *)

val maybe_sample : ?interval:float -> unit -> unit
(** {!sample}, unless the last sample is less than [interval] seconds
    old (default a quarter of a second). *)

val adjusted : c0:float -> c1:float -> float
(** The {!clock} interval [[c0, c1]] adjusted by the logged samples:
    each part between two samples is scaled by [nominal_s] over their
    mean, and a part before the first or after the last sample by
    that sample alone. With no sample it is [c1 -. c0]. *)

val integrate : at:float array -> refs:float array -> int -> c0:float -> c1:float -> float
(** What {!adjusted} computes, over the first [n] entries of a given
    log ([at] nondecreasing). Exposed for the self-tests. *)

val summary : unit -> string
(** The logged samples' count, median, minimum and maximum, for the
    report. *)
