(** Server equivalence classes (paper §3.5.2, "Exploit symmetry").

    Servers that are identical under the model — same hardware subtype, same
    location scope, same in-use state — have identical coefficients in every
    constraint and objective, so one integer count variable per (class,
    reservation) replaces their individual binary assignment variables.

    Phase 1 groups at MSB scope (rack ignored), which is what makes
    region-scale problems tractable; phase 2 keys classes by rack for the
    reservations it refines.  A server's current owner is {e not} part of
    the key: the per-owner member counts give the movement baseline
    [N0_{c,r}] instead, which keeps the class count independent of the
    number of reservations. *)

type cls = {
  index : int;  (** dense index within the build *)
  msb : int;
  rack : int option;  (** [Some r] when built rack-level *)
  hw : int;  (** hardware catalog index *)
  in_use : bool;
  attr : int;  (** generic placement attribute (e.g. SSD wear bucket) *)
  members : int array;  (** server ids, ascending *)
}

(** Per class, the histogram of its members' current-owner codes
    ({!Ras_broker.Broker.owner_code}, [Elastic] read as [Shared_buffer])
    as one run of (code, count) entries: class [c]'s run is slots
    [first.(c)] to [first.(c+1) - 1] of [codes]/[counts], codes ascending,
    counts positive and summing to the class size. *)
type owner_counts = {
  first : int array;  (** length classes + 1 *)
  codes : int array;
  counts : int array;
}

type t = {
  classes : cls array;
  region : Ras_topology.Region.t;
  snapshot : Snapshot.t;
  owner_counts : owner_counts;
      (** makes {!current_count} a binary search of one class's owners *)
}

val build : ?rack_level:bool -> Snapshot.t -> t
(** Classes over the servers {!Snapshot.covers} admits: the usable ones
    whose home owner is [Free] or a reservation of the snapshot.  Default
    MSB-level.  Streams over the snapshot columns: per-server work is O(1)
    and allocates nothing per server.  Each covered server finds its group
    through an int-keyed open-addressing table (O(classes) slots); the
    allocation is the one-word-per-server group column and the member
    arrays plus O(classes + owner runs). *)

val class_name : cls -> string
(** Stable textual identity of the class, built from every grouping-key
    field and none of the dense index (e.g. ["m3k2h5u1a0"]).  Two builds
    over different snapshots give the same name to the same logical class,
    which keeps model variable/row names stable under churn. *)

val size : cls -> int

val current_count : t -> cls -> Ras_broker.Broker.owner -> int
(** [N0]: how many members are currently owned by the given owner.
    O(log owners of the class). *)

val num_classes : t -> int

val raw_variable_count : t -> int
(** Assignment variables a per-server formulation of the snapshot's
    reservations would need (|covered servers| x |acceptable
    reservations|) — the paper's Fig. 10/11 x-axis. *)

val grouped_variable_count : t -> int
(** Assignment variables after symmetry grouping. *)
