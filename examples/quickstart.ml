(* Quickstart: tile a 2-D recurrence, inspect every compile-time object the
   framework derives (the geometry of the paper's Figures 1-3), execute the
   plan on the simulated cluster and check it against sequential execution.

   Run with:  dune exec examples/quickstart.exe *)

module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Tiling = Tiles_core.Tiling
module Ttis = Tiles_core.Ttis
module Plan = Tiles_core.Plan
module Lds = Tiles_core.Lds
module Kernel = Tiles_runtime.Kernel
module Executor = Tiles_runtime.Executor
module Seq_exec = Tiles_runtime.Seq_exec
module Grid = Tiles_runtime.Grid
module Sim = Tiles_mpisim.Sim
module Rat = Tiles_rat.Rat

let () =
  print_endline "== 1. the input program ==";
  print_endline "  for i = 0..959: for j = 0..959:";
  print_endline "    u[i,j] = u[i-1,j] + u[i,j-1]";
  let kernel =
    Kernel.make ~name:"pascal" ~dim:2
      ~reads:[ [| 1; 0 |]; [| 0; 1 |] ]
      ~boundary:(fun _ _ -> 1.)
      ~compute:(fun ~read ~j:_ ~out -> out.(0) <- read 0 0 +. read 1 0)
      ()
  in
  let space = Polyhedron.box [ (0, 959); (0, 959) ] in
  let nest = Nest.make ~name:"pascal" ~space ~deps:(Kernel.deps kernel) in

  print_endline "\n== 2. a non-rectangular tiling transformation ==";
  (* H = [[1/4, 1/8], [0, 1/8]]: oblique first family of hyperplanes. *)
  let tiling =
    Tiling.of_rows [ [ Rat.make 1 120; Rat.make 1 240 ]; [ Rat.zero; Rat.make 1 240 ] ]
  in
  Format.printf "%a@." Tiling.pp tiling;

  print_endline "== 3. the TTIS lattice (dots = lattice points, Fig. 1/2) ==";
  (* render a 12x12 corner of the (large) TTIS box *)
  let cells = Array.make_matrix 12 12 ' ' in
  Ttis.iter tiling (fun j' ->
      if j'.(0) < 12 && j'.(1) < 12 then cells.(j'.(0)).(j'.(1)) <- 'o');
  Array.iter
    (fun row ->
      print_string "  ";
      Array.iter (fun c -> Printf.printf "%c " (if c = ' ' then '.' else c)) row;
      print_newline ())
    cells;
  Printf.printf "  strides c = %s; %d lattice points = tile size %d\n"
    (Tiles_util.Vec.to_string tiling.Tiling.c)
    (List.length (Ttis.points tiling)) (Tiling.tile_size tiling);

  print_endline "\n== 4. the parallelisation plan (§3) ==";
  let plan = Plan.make nest tiling in
  print_string (Plan.summary plan);

  print_endline "== 5. the LDS of rank 0 (Fig. 3: halo + computation cells) ==";
  let shape = Plan.lds_shape plan ~rank:0 in
  Printf.printf "  dims = %s, %d cells (halo offsets %s)\n"
    (Tiles_util.Vec.to_string shape.Lds.dims)
    shape.Lds.total
    (Tiles_util.Vec.to_string plan.Plan.comm.Tiles_core.Comm.off);

  print_endline "\n== 6. execute on the simulated cluster and verify ==";
  let net = Tiles_mpisim.Netmodel.fast_ethernet_cluster in
  let r = Executor.run ~mode:Executor.Full ~plan ~kernel ~net () in
  let seq = Seq_exec.run ~space ~kernel () in
  let diff =
    match r.Executor.grid with
    | Some g -> Grid.max_abs_diff g seq space
    | None -> infinity
  in
  Printf.printf "  procs     : %d\n" (Plan.nprocs plan);
  Printf.printf "  messages  : %d (%d bytes)\n" r.Executor.stats.Sim.messages
    r.Executor.stats.Sim.bytes;
  Printf.printf "  parallel  : %.6f s (simulated)\n"
    r.Executor.stats.Sim.completion;
  Printf.printf "  sequential: %.6f s (modelled)\n" r.Executor.seq_modelled;
  Printf.printf "  speedup   : %.2f\n" r.Executor.speedup;
  Printf.printf "  max |parallel - sequential| = %g %s\n" diff
    (if diff = 0. then "(exact)" else "")
