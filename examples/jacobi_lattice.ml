(* Jacobi is the paper's showcase for genuinely non-unimodular tiling: the
   transformation H' = V·H is not unimodular (det 2), so the TTIS is a
   strict sublattice — loop strides and the incremental offsets of Fig. 2
   appear. This example prints that machinery and then runs the plan.

   Run with:  dune exec examples/jacobi_lattice.exe *)

module Jacobi = Tiles_apps.Jacobi
module Nest = Tiles_loop.Nest
module Tiling = Tiles_core.Tiling
module Ttis = Tiles_core.Ttis
module Plan = Tiles_core.Plan
module Executor = Tiles_runtime.Executor
module Seq_exec = Tiles_runtime.Seq_exec
module Grid = Tiles_runtime.Grid
module Intmat = Tiles_linalg.Intmat
module Vec = Tiles_util.Vec

let () =
  let p = Jacobi.make ~t_steps:24 ~size:64 in
  let nest = Jacobi.nest p in
  let kernel = Jacobi.kernel p in
  let tiling = Jacobi.nonrect ~x:6 ~y:22 ~z:22 in
  Printf.printf "Jacobi non-rectangular tiling (x=6, y=22, z=22):\n\n";
  Printf.printf "H  =\n%s\n\n" (Tiles_linalg.Ratmat.to_string tiling.Tiling.h);
  Printf.printf "V  = diag%s   (v_1 = 2x because of the -1/2x entry)\n"
    (Vec.to_string tiling.Tiling.v);
  Printf.printf "H' = V.H =\n%s\n\n" (Intmat.to_string tiling.Tiling.h');
  Printf.printf "HNF(H') =\n%s\n\n" (Intmat.to_string tiling.Tiling.hnf);
  Printf.printf "strides c = %s, incremental offset a21 = %d\n"
    (Vec.to_string tiling.Tiling.c)
    tiling.Tiling.hnf.(1).(0);
  Printf.printf
    "so TTIS loop j'_2 steps by 2, and its start alternates 0/1 as j'_1 \
     advances:\n";
  for j1 = 0 to 3 do
    Printf.printf "  j'_1 = %d -> j'_2 starts at %d\n" j1
      (Ttis.start_offset tiling 1 [| j1 |])
  done;
  Printf.printf "\nTTIS has %d lattice points = tile size %d (box %s)\n"
    (List.length (Ttis.points tiling)) (Tiling.tile_size tiling)
    (Vec.to_string tiling.Tiling.v);

  let plan = Plan.make ~m:Jacobi.mapping_dim nest tiling in
  print_newline ();
  print_string (Plan.summary plan);
  let net = Tiles_mpisim.Netmodel.fast_ethernet_cluster in
  let r = Executor.run ~mode:Executor.Full ~plan ~kernel ~net () in
  let seq = Seq_exec.run ~space:nest.Nest.space ~kernel () in
  let err =
    match r.Executor.grid with
    | Some g -> Grid.max_abs_diff g seq nest.Nest.space
    | None -> infinity
  in
  Printf.printf "\nexecuted %d points on %d procs, speedup %.2f, max err %g\n"
    r.Executor.points_computed (Plan.nprocs plan) r.Executor.speedup err
