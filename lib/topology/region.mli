(** Regional datacenter topology (paper §2.1, Fig. 1).

    A region is a set of datacenters connected by a low-latency network; each
    datacenter contains several main-switch-board (MSB) fault domains; an MSB
    contains racks of servers.  The MSB is the largest failure/maintenance
    scope RAS prepares for, so most of the allocator reasons at MSB
    granularity with racks appearing only in phase-2 spread goals.

    Identifiers are dense region-global indices so solver code can use plain
    arrays: datacenters are [0 .. num_dcs-1], MSBs [0 .. num_msbs-1], racks
    [0 .. num_racks-1] and servers [0 .. num_servers-1]. *)

type location = {
  dc : int;  (** region-global datacenter index *)
  msb : int;  (** region-global MSB index *)
  rack : int;  (** region-global rack index *)
}

type server = { id : int; hw : Hardware.t; loc : location }

type t = {
  name : string;
  num_dcs : int;
  num_msbs : int;
  num_racks : int;
  servers : server array;  (** indexed by server id *)
  msb_dc : int array;  (** datacenter of each MSB *)
  rack_msb : int array;  (** MSB of each rack *)
  msb_deploy_order : int array;
      (** MSB indices ordered oldest-first; Fig. 13 orders its x-axis this
          way and the generator skews hardware mixes by age *)
}

val num_servers : t -> int

val servers_of_msb : t -> int -> server list
(** Servers located in the given MSB (region-global index). *)

val hw_mix_of_msb : t -> int -> (Hardware.t * int) list
(** Count of servers per hardware subtype within one MSB (only subtypes
    present), sorted by catalog index — the per-bar data of Fig. 2. *)

val pp_summary : Format.formatter -> t -> unit
