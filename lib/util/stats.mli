(** Small descriptive-statistics helpers for benchmark reporting. *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0. on the empty list. Raises
    [Invalid_argument] if any value is non-positive. *)

val stddev : float list -> float
(** Population standard deviation; 0. for fewer than two samples. *)

val min_max : float list -> float * float
(** Smallest and largest value. Raises [Invalid_argument] on empty input. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], nearest-rank method. Raises
    [Invalid_argument] on empty input or out-of-range [p]. *)

val nearest_rank : float -> float array -> float
(** [nearest_rank p sorted] is {!percentile} over an array already sorted
    ascending by [Float.compare]; it raises as {!percentile} does. *)

val histogram : buckets:int -> float list -> (float * float * int) array
(** Equal-width histogram: [(lo, hi, count)] per bucket over the data range.
    A degenerate range (all samples equal) collapses to the single bucket
    [(v, v, n)] rather than fabricating buckets of arbitrary width. Raises
    [Invalid_argument] if [buckets <= 0] or the input is empty. *)
