(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic decision in the synthetic kernel model flows through a
    [Prng.t] so that a given seed reproduces the exact same image matrix,
    byte for byte. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator. Generators are mutable. *)

val of_string : string -> t
(** [of_string label] seeds a generator from the FNV-1a hash of [label]. *)

val split : t -> string -> t
(** [split t label] derives an independent child generator. The child
    depends only on [t]'s seed and [label], not on how much of [t] has been
    consumed, so unrelated subsystems cannot perturb each other. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val mix64 : int64 -> int64
(** The SplitMix64 finalizer: a bijection of 64-bit values in which each
    input bit avalanches across the output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> float -> bool
(** [bool t p] is true with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform choice from a non-empty list. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k xs] draws [min k (length xs)] distinct elements of [xs],
    preserving their original relative order. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val binomial : t -> int -> float -> int
(** [binomial t n p] counts successes among [n] Bernoulli([p]) trials.
    Used to turn a calibrated rate into an integer count that still has
    realistic run-to-run texture across seeds. *)
