(** Synthetic region builder.

    Reproduces the structural properties the paper's evaluation depends on:

    - MSBs differ in hardware mixture, and the mixture is skewed by MSB age
      (Fig. 2): the oldest MSBs carry generation-1 hardware that is absent
      from the newest ones, and vice versa — which is what forces some
      services off some MSBs in Fig. 13;
    - racks are hardware-homogeneous, as in real fleets;
    - datacenters receive MSBs in an interleaved deployment order.

    Generation is deterministic in the seed. *)

type params = {
  name : string;
  num_dcs : int;
  msbs_per_dc : int;
  racks_per_msb : int;
  servers_per_rack : int;
  seed : int;
}

val small_params : params
(** A laptop-scale region for tests and the quickstart example: 2 DCs,
    3 MSBs each, 4 racks per MSB, 6 servers per rack. *)

val region_scale_params : params
(** The north-star scale: 4 DCs × 9 MSBs (36, as in the production region
    of §3.3.1) × 580 racks × 48 servers ≈ 1.0M servers.  Rack hardware is
    drawn independently of [servers_per_rack], so shrinking that one field
    yields a structurally identical region at any scale — the property the
    scale-sweep regression tests pin. *)

val generate : params -> Region.t

val extend : Region.t -> new_msbs_per_dc:int -> racks_per_msb:int -> servers_per_rack:int -> seed:int -> Region.t
(** Append newly deployed MSBs to every datacenter, keeping all existing
    indices stable (servers, racks and MSBs only ever gain entries).  The
    new MSBs are the youngest and carry the newest hardware mixture.  Fig. 12
    uses this to model the mid-experiment datacenter expansion. *)
