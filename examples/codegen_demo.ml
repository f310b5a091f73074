(* End-to-end code generation: emit the data-parallel MPI C program for
   non-rectangularly tiled SOR (what the paper's tool produced) plus the
   sequential tiled program, and write both next to the vendored
   single-machine MPI stub with build instructions.

   Run with:  dune exec examples/codegen_demo.exe [output-dir]  *)

module Sor = Tiles_apps.Sor
module Plan = Tiles_core.Plan
module Pseqgen = Tiles_codegen.Pseqgen
module Mpigen = Tiles_codegen.Mpigen

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let p = Sor.make ~m_steps:12 ~size:16 in
  let nest = Sor.nest p in
  let tiling = Sor.nonrect ~x:6 ~y:7 ~z:4 in
  let plan = Plan.make ~m:Sor.mapping_dim nest tiling in
  let mpi =
    Mpigen.generate ~plan ~kernel:Sor.ckernel ~reads:Sor.skewed_reads
      ~skew:Sor.skew_matrix ()
  in
  let seq =
    Pseqgen.generate
      ~pspace:(Tiles_poly.Pspace.of_polyhedron nest.Tiles_loop.Nest.space)
      ~tiling ~kernel:Sor.ckernel ~reads:Sor.skewed_reads
      ~skew:Sor.skew_matrix ()
  in
  let write name contents =
    let path = Filename.concat dir name in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "wrote %s (%d lines)\n" path
      (List.length (String.split_on_char '\n' contents))
  in
  write "sor_tiled_seq.c" seq;
  write "sor_tiled_mpi.c" mpi;
  Printf.printf "\nplan: %d MPI processes\n" (Plan.nprocs plan);
  print_endline "build and run them with:";
  print_endline "  gcc -O2 sor_tiled_seq.c -lm -o sor_seq && ./sor_seq";
  Printf.printf
    "  gcc -O2 -I vendor/mpistub sor_tiled_mpi.c vendor/mpistub/mpi_stub.c \
     -lm -o sor_mpi \\\n  && TILES_MPI_NPROCS=%d ./sor_mpi\n"
    (Plan.nprocs plan);
  print_endline "(both print the same checksum; any real MPI works too:";
  print_endline "  mpicc sor_tiled_mpi.c -lm && mpirun -np N ./a.out)"
