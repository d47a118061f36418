(** Order statistics for benchmark timings. *)

val quantile : float array -> float -> float
(** {!Core.Quantile.quantile} (linear interpolation between closest
    ranks, R type 7), but [nan] on an empty array. *)

val median : float array -> float

type tail = {
  q : float;  (** The percentile, as a fraction (0.9 = p90). *)
  value : float;
  n : int;  (** Sample count it was taken over. *)
}

val supported_tail : float array -> tail option
(** The highest of p99.9, p99, p90, p75 and p50 that has at least ten
    samples beyond it, with the sample count; [None] below 20
    samples. *)

val describe_tail : float array -> string
(** [supported_tail] rendered for the report, e.g. ["p90=12.3 (n=150)"]. *)
