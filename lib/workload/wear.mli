(** SSD wear model (paper §5.2, future placement goals).

    The paper plans "SSD burnout reduction through IO-aware server
    assignments": flash devices have a finite write endurance, so servers
    whose SSDs are already worn should not be handed to IO-heavy services.
    This module models per-server wear and buckets it coarsely — coarse
    buckets matter because every attribute added to the server-equivalence
    key multiplies the solver's variable count (§5.2: "we will likely add
    more phases when we introduce additional placement goals that
    significantly break server symmetry"). *)

type t
(** Wear state for a region: a wear fraction in [0, 1] per server. *)

val generate : Ras_stats.Rng.t -> Ras_topology.Region.t -> t
(** Synthesize wear: older MSBs carry more-worn flash; servers without
    flash have wear 0. *)

val fraction : t -> int -> float
(** Wear of one server (0 when the id is out of range). *)

val bucket : t -> int -> int
(** Bucket index of one server: 0 fresh, 1 worn, 2 critical. *)

val has_flash : Ras_topology.Region.server -> bool
(** Whether the server carries flash at all (wear is 0 otherwise). *)
