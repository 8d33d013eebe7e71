(** Deterministic pseudo-random number generator.

    All stochastic inputs in this repository flow through this module so that
    every experiment regenerates bit-identically from a seed.  The generator
    is splitmix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny, fast, high
    quality 64-bit generator whose state advances by a Weyl sequence. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed. *)

val int : t -> int -> int
(** [int t n] is uniform in \[0, n).  Raises [Invalid_argument] if [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in \[0, x). *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
