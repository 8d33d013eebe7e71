type t = {
  id : int;
  reservation : int;
  replicas : int;
  rru_per_replica : float;
  spread_msbs : bool;
}

type container = { job : t; index : int }

let make ~id ~reservation ~replicas ~rru_per_replica () =
  if replicas <= 0 then invalid_arg "Job.make: replicas must be positive";
  if rru_per_replica <= 0.0 then invalid_arg "Job.make: rru_per_replica must be positive";
  { id; reservation; replicas; rru_per_replica; spread_msbs = true }

let containers t = List.init t.replicas (fun index -> { job = t; index })
