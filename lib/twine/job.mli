(** Container jobs: the second level of the two-level architecture.

    A job asks for [replicas] containers of a given RRU size to run inside
    one reservation.  Containers from different jobs may stack on the same
    server (§3.1). *)

type t = {
  id : int;
  reservation : int;  (** reservation the job is entitled to *)
  replicas : int;
  rru_per_replica : float;
  spread_msbs : bool;  (** spread replicas across MSBs where possible *)
}

type container = { job : t; index : int }
(** A single replica of a job. *)

val make : id:int -> reservation:int -> replicas:int -> rru_per_replica:float -> unit -> t
(** A job that spreads its replicas across MSBs ([spread_msbs = true]; a
    record update turns that off).  Raises [Invalid_argument] on
    non-positive replica count or size. *)

val containers : t -> container list
