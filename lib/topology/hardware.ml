type category = Compute | Storage | Memory | Flash | Gpu | Asic | Compute_dense

type t = {
  index : int;
  code : string;
  category : category;
  subtype : int;
  cpu_generation : int;
  cores : int;
  mem_gb : int;
  flash_tb : float;
  gpus : int;
  power_watts : float;
  base_rru : float;
}

(* The sixteen <C-S> tuples of the paper's Fig. 2 legend.  base_rru grows
   with CPU generation and core count so that newer compute is worth more
   RRUs to generation-sensitive services, while storage/flash value is
   dominated by capacity rather than generation. *)
let make index code category subtype cpu_generation cores mem_gb flash_tb gpus power_watts base_rru =
  { index; code; category; subtype; cpu_generation; cores; mem_gb; flash_tb; gpus; power_watts; base_rru }

let catalog =
  [|
    make 0 "C1" Compute 1 1 16 32 0.5 0 250.0 1.0;
    make 1 "C2-S1" Compute 1 2 24 64 0.5 0 300.0 1.3;
    make 2 "C2-S2" Compute 2 2 24 128 1.0 0 330.0 1.35;
    make 3 "C3" Compute 1 3 36 64 1.0 0 360.0 1.7;
    make 4 "C4-S1" Storage 1 1 8 32 16.0 0 400.0 1.0;
    make 5 "C4-S2" Storage 2 2 12 64 24.0 0 420.0 1.4;
    make 6 "C4-S3" Storage 3 3 16 64 32.0 0 450.0 1.8;
    make 7 "C5" Memory 1 2 24 512 1.0 0 380.0 1.4;
    make 8 "C6-S1" Flash 1 2 16 128 8.0 0 350.0 1.2;
    make 9 "C6-S2" Flash 2 3 24 128 16.0 0 380.0 1.6;
    make 10 "C7-S1" Gpu 1 1 12 128 2.0 4 900.0 1.0;
    make 11 "C7-S2" Gpu 2 2 16 256 2.0 8 1400.0 2.2;
    make 12 "C7-S3" Gpu 3 3 24 512 4.0 8 1800.0 3.5;
    make 13 "C8" Asic 1 2 12 64 1.0 2 500.0 1.5;
    make 14 "C9-S1" Compute_dense 1 3 48 128 1.0 0 420.0 2.0;
    make 15 "C9-S2" Compute_dense 2 3 64 256 2.0 0 480.0 2.4;
  |]

let count = Array.length catalog

let find_by_code code = Array.find_opt (fun h -> h.code = code) catalog
