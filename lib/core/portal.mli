(** Capacity Portal: the validated front door for capacity requests
    (Fig. 6 step 1, §3.2, §5.3).

    Service owners create, modify and delete capacity requests here; the
    request state is the input of every solve.  Following §5.3's lesson
    ("when a capacity request gets rejected ... the rejection message needs
    to explain the reason; otherwise it is not actionable"), submission runs
    an admission check against the current snapshot and rejections carry a
    concrete, human-readable reason:

    - the requested RRUs are not a finite positive number (NaN, infinite,
      zero or negative: a record update bypasses
      {!Ras_workload.Capacity_request.make}'s check);
    - no acceptable hardware subtype exists in the catalog;
    - the region does not have enough acceptable hardware even if the
      request got all of it;
    - the uncommitted supply (total acceptable minus what other accepted
      requests already claim) cannot cover the request plus its buffer
      overhead.

    Admission is intentionally conservative-but-fast: it proves obvious
    infeasibility without running the solver; the solver remains the
    authority on placement-feasible allocations. *)

type t

type decision = Accepted | Rejected of string

val create : unit -> t

val submit :
  t -> Snapshot.t -> Ras_workload.Capacity_request.t -> decision
(** Validate against the snapshot and, when accepted, store the request
    (replacing any previous request with the same id). *)

val modify :
  t -> Snapshot.t -> Ras_workload.Capacity_request.t -> decision
(** Like {!submit}, but the request's own current claim is excluded from
    the committed supply while validating the new size (so growing an
    existing reservation is judged on the delta). *)

val delete : t -> int -> bool
(** Remove a request by id; false when unknown. *)

val requests : t -> Ras_workload.Capacity_request.t list
(** All accepted requests, by ascending id. *)

val find : t -> int -> Ras_workload.Capacity_request.t option

type event =
  | Submitted of int * decision
  | Modified of int * decision
  | Deleted of int

val log : t -> event list
(** Audit trail, oldest first. *)

val buffer_overhead : Ras_topology.Region.t -> Ras_workload.Capacity_request.t -> float
(** The capacity multiplier admission assumes: requests with an embedded
    buffer need roughly [1 + 1/(num_msbs - 1)] times their RRUs; plain and
    quorum requests need 1x. *)
