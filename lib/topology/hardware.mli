(** Server hardware catalog.

    The paper (§2.2, Fig. 2) breaks hardware into [<C-S>] tuples: a category
    [C] (compute, storage, GPU, ...) and a subtype [S] within the category
    when subtypes differ enough in performance to matter.  Its example region
    exposes nine categories and the Fig. 2 legend enumerates sixteen [<C-S>]
    tuples; this catalog reproduces those sixteen entries with plausible
    resource shapes and per-generation performance. *)

type category =
  | Compute  (** general-purpose CPU servers, one per generation *)
  | Storage  (** high-capacity disk servers *)
  | Memory  (** memory-optimized *)
  | Flash  (** NVMe-heavy *)
  | Gpu  (** accelerator hosts *)
  | Asic  (** video/AI inference accelerators *)
  | Compute_dense  (** newest-generation high-core-count compute *)

type t = {
  index : int;  (** dense index into {!catalog} *)
  code : string;  (** the paper's label, e.g. "C4-S2" *)
  category : category;
  subtype : int;  (** S within the category, 1-based *)
  cpu_generation : int;  (** 1..3, drives Relative Value (Fig. 3) *)
  cores : int;
  mem_gb : int;
  flash_tb : float;
  gpus : int;
  power_watts : float;  (** nameplate draw, used by the Fig. 14 power model *)
  base_rru : float;
      (** throughput of this server type for a generation-neutral workload,
          in relative resource units; service-specific RRU values scale this
          by the service's relative value on the server's generation *)
}

val catalog : t array
(** All sixteen subtypes, ordered by [index].  The array is shared and must
    not be mutated. *)

val count : int
(** [Array.length catalog]. *)

val find_by_code : string -> t option
