(** Named counters and histograms for simulation statistics.

    Each machine component holds a [registry]; the harness dumps registries
    into report tables. Counter lookup is by string name, created on first
    use so call sites stay terse. *)

type registry

val registry : unit -> registry

val incr : registry -> string -> unit
val add : registry -> string -> int -> unit
val set : registry -> string -> int -> unit
val get : registry -> string -> int
(** Missing counters read as 0. *)

val counter : registry -> string -> int -> unit
(** [counter reg name] behaves as [add reg name] but looks the cell up
    once, on its first call, so a hot loop bumps it without hashing the
    name. As with [add], the counter does not exist until that first
    call. Do not [reset] [reg] while the function is in use. *)

val reset : registry -> unit
val names : registry -> string list
(** Sorted counter names present in the registry. *)

val fold : registry -> init:'a -> f:('a -> string -> int -> 'a) -> 'a

val to_assoc : registry -> (string * int) list
(** Sorted [(name, value)] pairs — the machine-readable dump the
    observability snapshot serialises. *)

(** Fixed-bound histogram with uniform buckets, used for latency
    distributions (e.g. the IPI matrices of Figs. 5-6). *)
module Histogram : sig
  type t

  val create : buckets:int -> lo:float -> hi:float -> t
  val record : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val min_value : t -> float
  val max_value : t -> float

  val percentile : t -> float -> float
  (** [percentile t 0.5] approximates the median by linear interpolation
      within the bucket containing the target rank, clamped to the
      observed [min_value, max_value] range. [p] is clamped to [0, 1]. *)

  val p50 : t -> float
  val p95 : t -> float
  val p99 : t -> float

  val bucket_counts : t -> (float * int) array
  (** [(lower_bound, count)] per bucket, plus overflow in the last one. *)

  val merge : t -> t -> t
  (** Combine two histograms with identical shape (bucket count, [lo],
      [hi]) into a fresh one — e.g. per-node latency distributions into a
      machine-wide view.
      @raise Invalid_argument on shape mismatch. *)
end
