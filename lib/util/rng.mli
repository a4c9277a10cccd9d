(** Deterministic pseudo-random number generation.

    All randomness in the project flows through this module so that every
    experiment is reproducible from an explicit seed.  The generator is
    splitmix64: tiny state, good statistical quality for simulation work,
    and trivially splittable into independent streams. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator.  Equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy with identical current state. *)

val split : t -> t
(** [split t] derives a new generator whose stream is independent of the
    continuation of [t]'s stream.  Advances [t]. *)

val stream : t -> int -> t
(** [stream t k] is the generator the [(k+1)]-th call of {!split} on a
    [copy] of [t] would return, computed in O(1) without advancing [t].
    This is the parallel-safe way to fan one seed out into indexed
    independent streams: [stream (create seed) i] depends only on
    [(seed, i)], so work item [i] draws the same deviates no matter
    which domain runs it or in what order.
    Raises [Invalid_argument] on a negative index. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val normal : t -> float
(** Standard normal deviate (Box–Muller, polar form). *)

val gaussian : t -> mean:float -> sigma:float -> float
(** Normal deviate with the given mean and standard deviation. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

(** {2 Retry backoff} *)

val backoff_base_s : float
(** First rung of the {!backoff_s} ladder: 0.5 ms. *)

val backoff_s : seed:int -> attempt:int -> floor:float -> float
(** The wait before retry [attempt] (0-based):
    [backoff_base_s *. 2{^attempt} *. (1 +. jitter)], never below
    [floor].  The jitter, in \[0, 1), is the first {!uniform} deviate of
    [stream (create seed) attempt] — derived from the seed, never the
    wall clock, so the same seed gives the same waits while different
    seeds decorrelate concurrent retriers.  This one ladder serves both
    the artifact store's transient-fault retries and the serve client's
    overload retries. *)
