(** Percentiles of a sample. *)

val percentile : float array -> float -> float
(** [percentile a p] for [p] in [\[0,100\]], linear interpolation. *)
