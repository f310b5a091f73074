module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Tiling = Tiles_core.Tiling
module Plan = Tiles_core.Plan
module C_ast = Tiles_codegen.C_ast
module Ckernel = Tiles_codegen.Ckernel
module Pseqgen = Tiles_codegen.Pseqgen
module Pspace = Tiles_poly.Pspace
module Mpigen = Tiles_codegen.Mpigen
module Kernel = Tiles_runtime.Kernel
module Grid = Tiles_runtime.Grid
module Seq_exec = Tiles_runtime.Seq_exec
module Sor = Tiles_apps.Sor
module Jacobi = Tiles_apps.Jacobi
module Adi = Tiles_apps.Adi
module Triband = Tiles_apps.Triband

(* ---------- C AST ---------- *)

let expr_str e =
  let b = Buffer.create 64 in
  C_ast.pp_expr b e;
  Buffer.contents b

let test_expr_printing () =
  Alcotest.(check string) "add" "(x + 1)" (expr_str C_ast.(Add (Var "x", Int 1)));
  Alcotest.(check string) "floord" "floord(x, 2)"
    (expr_str C_ast.(FloorDiv (Var "x", Int 2)));
  Alcotest.(check string) "max" "imax(a, b)"
    (expr_str C_ast.(Max (Var "a", Var "b")));
  Alcotest.(check string) "neg int" "(-3)" (expr_str (C_ast.Int (-3)));
  Alcotest.(check string) "idx" "a[i][j]"
    (expr_str C_ast.(Idx ("a", [ Var "i"; Var "j" ])))

let test_simplify () =
  let s = C_ast.simplify in
  Alcotest.(check string) "x+0" "x" (expr_str (s C_ast.(Add (Var "x", Int 0))));
  Alcotest.(check string) "1*x" "x" (expr_str (s C_ast.(Mul (Int 1, Var "x"))));
  Alcotest.(check string) "0*x" "0" (expr_str (s C_ast.(Mul (Int 0, Var "x"))));
  Alcotest.(check string) "fold" "7" (expr_str (s C_ast.(Add (Int 3, Int 4))));
  Alcotest.(check string) "fdiv fold" "(-2)"
    (expr_str (s C_ast.(FloorDiv (Int (-7), Int 4))))

let test_balanced_braces src =
  let opens = ref 0 and closes = ref 0 in
  String.iter
    (fun c ->
      if c = '{' then incr opens else if c = '}' then incr closes)
    src;
  Alcotest.(check int) "balanced braces" !opens !closes

(* ---------- compile & run helpers ---------- *)

let run_cmd cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let tmpdir = Filename.get_temp_dir_name ()

(* locate the vendored MPI stub: walk up from cwd (works both under
   `dune runtest`, where deps are staged at _build/default/vendor, and
   when running the test binary from the source tree) *)
let stub_dir =
  lazy
    (let rec search dir depth =
       let cand = Filename.concat dir "vendor/mpistub" in
       if Sys.file_exists (Filename.concat cand "mpi.h") then Some cand
       else if depth = 0 then None
       else search (Filename.dirname dir) (depth - 1)
     in
     match search (Sys.getcwd ()) 8 with
     | Some d -> d
     | None -> Alcotest.fail "vendor/mpistub not found from cwd")

let compile_and_run ?(nprocs = 1) ~mpi name src =
  let base = Filename.concat tmpdir ("tiles_" ^ name) in
  let cfile = base ^ ".c" and exe = base ^ ".exe" in
  let oc = open_out cfile in
  output_string oc src;
  close_out oc;
  let compile =
    if mpi then
      let stub = Lazy.force stub_dir in
      Printf.sprintf "gcc -O1 -std=c99 -I %s %s %s -lm -o %s 2>&1"
        (Filename.quote stub) (Filename.quote cfile)
        (Filename.quote (Filename.concat stub "mpi_stub.c"))
        (Filename.quote exe)
    else
      Printf.sprintf "gcc -O1 -std=c99 %s -lm -o %s 2>&1" (Filename.quote cfile)
        (Filename.quote exe)
  in
  let status, out = run_cmd compile in
  if status <> Unix.WEXITED 0 then
    Alcotest.failf "gcc failed for %s:\n%s" name out;
  let status, out =
    run_cmd (Printf.sprintf "TILES_MPI_NPROCS=%d %s 2>&1" nprocs (Filename.quote exe))
  in
  if status <> Unix.WEXITED 0 then Alcotest.failf "%s run failed:\n%s" name out;
  out

let parse_output out =
  let points = ref (-1) and checksum = ref Float.nan in
  List.iter
    (fun line ->
      (try Scanf.sscanf line "points %d" (fun p -> points := p) with _ -> ());
      try Scanf.sscanf line "checksum %e" (fun c -> checksum := c) with _ -> ())
    (String.split_on_char '\n' out);
  (!points, !checksum)

let rel_close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* ---------- generated sequential code vs OCaml oracle ---------- *)

(* a concrete space is the zero-parameter case of the one sequential
   generator: the program runs with no arguments *)
let check_seq ~name ~nest ~kernel ~ckernel ~reads ~skew ~tiling =
  let space = nest.Nest.space in
  let src =
    Pseqgen.generate ~pspace:(Pspace.of_polyhedron space) ~tiling
      ~kernel:ckernel ~reads ?skew ()
  in
  test_balanced_braces src;
  let out = compile_and_run ~mpi:false name src in
  let points, checksum = parse_output out in
  Alcotest.(check int) (name ^ " points") (Polyhedron.count_points space) points;
  let oracle = Grid.checksum (Seq_exec.run ~space ~kernel ()) space in
  if not (rel_close checksum oracle) then
    Alcotest.failf "%s checksum %.12e vs oracle %.12e" name checksum oracle

let test_seqgen_sor () =
  let p = Sor.make ~m_steps:5 ~size:7 in
  check_seq ~name:"seq_sor" ~nest:(Sor.nest p) ~kernel:(Sor.kernel p)
    ~ckernel:Sor.ckernel ~reads:Sor.skewed_reads ~skew:(Some Sor.skew_matrix)
    ~tiling:(Sor.nonrect ~x:3 ~y:4 ~z:3)

let test_seqgen_jacobi () =
  let p = Jacobi.make ~t_steps:4 ~size:6 in
  check_seq ~name:"seq_jacobi" ~nest:(Jacobi.nest p) ~kernel:(Jacobi.kernel p)
    ~ckernel:Jacobi.ckernel ~reads:Jacobi.skewed_reads
    ~skew:(Some Jacobi.skew_matrix)
    ~tiling:(Jacobi.nonrect ~x:2 ~y:4 ~z:4)

let test_seqgen_adi () =
  let p = Adi.make ~t_steps:4 ~size:6 in
  check_seq ~name:"seq_adi" ~nest:(Adi.nest p) ~kernel:(Adi.kernel p)
    ~ckernel:Adi.ckernel ~reads:Adi.creads ~skew:None
    ~tiling:(Adi.nr3 ~x:2 ~y:3 ~z:3)

let test_seqgen_triband () =
  (* a triangular (non-box) space: the extents the program computes at
     runtime are the space's bounding box, not a rectangle it fills *)
  let p = Triband.make ~size:18 in
  check_seq ~name:"seq_triband" ~nest:(Triband.nest p)
    ~kernel:(Triband.kernel p) ~ckernel:Triband.ckernel ~reads:Triband.creads
    ~skew:None ~tiling:(Triband.oblique ~x:4 ~y:5)

(* ---------- generated MPI code vs OCaml oracle ---------- *)

let check_mpi ?m ~name ~nest ~kernel ~ckernel ~reads ~skew ~tiling () =
  let plan = Plan.make ?m nest tiling in
  let src = Mpigen.generate ~plan ~kernel:ckernel ~reads ?skew () in
  test_balanced_braces src;
  Alcotest.(check bool) "has MPI_Send" true
    (Astring.String.is_infix ~affix:"MPI_Send" src);
  let out = compile_and_run ~mpi:true ~nprocs:(Plan.nprocs plan) name src in
  let points, checksum = parse_output out in
  let space = nest.Nest.space in
  Alcotest.(check int) (name ^ " points") (Polyhedron.count_points space) points;
  let oracle = Grid.checksum (Seq_exec.run ~space ~kernel ()) space in
  if not (rel_close checksum oracle) then
    Alcotest.failf "%s checksum %.12e vs oracle %.12e (procs=%d)" name checksum
      oracle (Plan.nprocs plan)

let test_mpigen_sor () =
  let p = Sor.make ~m_steps:6 ~size:8 in
  check_mpi ~m:2 ~name:"mpi_sor" ~nest:(Sor.nest p) ~kernel:(Sor.kernel p)
    ~ckernel:Sor.ckernel ~reads:Sor.skewed_reads ~skew:(Some Sor.skew_matrix)
    ~tiling:(Sor.nonrect ~x:3 ~y:4 ~z:4) ()

let test_mpigen_sor_rect () =
  let p = Sor.make ~m_steps:6 ~size:8 in
  check_mpi ~m:2 ~name:"mpi_sor_rect" ~nest:(Sor.nest p) ~kernel:(Sor.kernel p)
    ~ckernel:Sor.ckernel ~reads:Sor.skewed_reads ~skew:(Some Sor.skew_matrix)
    ~tiling:(Sor.rect ~x:3 ~y:4 ~z:4) ()

let test_mpigen_jacobi () =
  let p = Jacobi.make ~t_steps:4 ~size:7 in
  check_mpi ~m:0 ~name:"mpi_jacobi" ~nest:(Jacobi.nest p)
    ~kernel:(Jacobi.kernel p) ~ckernel:Jacobi.ckernel
    ~reads:Jacobi.skewed_reads ~skew:(Some Jacobi.skew_matrix)
    ~tiling:(Jacobi.nonrect ~x:2 ~y:4 ~z:4) ()

let test_mpigen_adi () =
  let p = Adi.make ~t_steps:5 ~size:8 in
  check_mpi ~m:0 ~name:"mpi_adi" ~nest:(Adi.nest p) ~kernel:(Adi.kernel p)
    ~ckernel:Adi.ckernel ~reads:Adi.creads ~skew:None
    ~tiling:(Adi.nr3 ~x:3 ~y:4 ~z:4) ()

(* ---------- Bounds ---------- *)

let test_bounds_exprs () =
  let module Constr = Tiles_poly.Constr in
  let module FM = Tiles_poly.Fourier_motzkin in
  (* x0 >= 2, x0 <= 9, x1 >= x0, 2*x1 <= 3*x0 + 5 *)
  let cs =
    [
      Constr.ge [| 1; 0 |] 2;
      Constr.le [| 1; 0 |] 9;
      Constr.ge [| -1; 1 |] 0;
      Constr.le [| -3; 2 |] 5;
    ]
  in
  let proj = FM.project cs ~dim:2 in
  let name k = Printf.sprintf "x%d" k in
  Alcotest.(check string) "x0 lower" "2"
    (expr_str (Tiles_codegen.Bounds.lower (FM.system proj ~var:0) ~var:0 ~name));
  Alcotest.(check string) "x0 upper" "9"
    (expr_str (Tiles_codegen.Bounds.upper (FM.system proj ~var:0) ~var:0 ~name));
  Alcotest.(check string) "x1 lower" "x0"
    (expr_str (Tiles_codegen.Bounds.lower (FM.system proj ~var:1) ~var:1 ~name));
  Alcotest.(check string) "x1 upper" "floord((5 + (3 * x0)), 2)"
    (expr_str (Tiles_codegen.Bounds.upper (FM.system proj ~var:1) ~var:1 ~name));
  (* passing the unprojected system is an error, not a silent wrong bound *)
  Alcotest.(check bool) "unprojected raises" true
    (try
       ignore (Tiles_codegen.Bounds.upper cs ~var:0 ~name);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unbounded raises" true
    (try
       ignore
         (Tiles_codegen.Bounds.upper [ Constr.ge [| 1 |] 0 ] ~var:0 ~name);
       false
     with Failure _ -> true)

let test_seqgen_rejects_read_mismatch () =
  let p = Adi.make ~t_steps:3 ~size:4 in
  let pspace = Pspace.of_polyhedron (Adi.nest p).Nest.space in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Pseqgen.generate ~pspace ~tiling:(Adi.rect ~x:2 ~y:2 ~z:2)
            ~kernel:Adi.ckernel ~reads:[ [| 1; 0; 0 |] ] ());
       false
     with Invalid_argument _ -> true)

let test_mpigen_adi_rect () =
  let p = Adi.make ~t_steps:5 ~size:8 in
  check_mpi ~m:0 ~name:"mpi_adi_rect" ~nest:(Adi.nest p) ~kernel:(Adi.kernel p)
    ~ckernel:Adi.ckernel ~reads:Adi.creads ~skew:None
    ~tiling:(Adi.rect ~x:3 ~y:4 ~z:4) ()

let test_mpigen_single_process () =
  (* a plan whose grid collapses to one pid still generates and runs *)
  let p = Adi.make ~t_steps:6 ~size:4 in
  check_mpi ~m:0 ~name:"mpi_adi_1p" ~nest:(Adi.nest p) ~kernel:(Adi.kernel p)
    ~ckernel:Adi.ckernel ~reads:Adi.creads ~skew:None
    ~tiling:(Adi.rect ~x:2 ~y:4 ~z:4) ()

(* ---------- parametric sequential generation ---------- *)

let compile_parametric name src =
  let base = Filename.concat tmpdir ("tiles_" ^ name) in
  let cfile = base ^ ".c" and exe = base ^ ".exe" in
  let oc = open_out cfile in
  output_string oc src;
  close_out oc;
  let status, out =
    run_cmd
      (Printf.sprintf "cc -O1 -std=c99 %s -lm -o %s 2>&1"
         (Filename.quote cfile) (Filename.quote exe))
  in
  if status <> Unix.WEXITED 0 then Alcotest.failf "cc failed:\n%s" out;
  exe

let cc_available = lazy (Sys.command "command -v cc >/dev/null 2>&1" = 0)

let run_parametric exe args =
  let status, out =
    run_cmd (Printf.sprintf "%s %s 2>&1" (Filename.quote exe) args)
  in
  if status <> Unix.WEXITED 0 then Alcotest.failf "run failed:\n%s" out;
  parse_output out

let check_parametric ~name ~pspace ~tiling ~kernel_ml ~ckernel ~reads ~skew
    ~mk_nest sizes =
  let src =
    Tiles_codegen.Pseqgen.generate ~pspace ~tiling ~kernel:ckernel ~reads
      ?skew ()
  in
  test_balanced_braces src;
  (* one binary, several problem sizes *)
  let exe = compile_parametric name src in
  List.iter
    (fun (a, b) ->
      let points, checksum = run_parametric exe (Printf.sprintf "%d %d" a b) in
      let nest : Tiles_loop.Nest.t = mk_nest a b in
      Alcotest.(check int)
        (Printf.sprintf "%s points (%d,%d)" name a b)
        (Polyhedron.count_points nest.Nest.space)
        points;
      let oracle =
        Grid.checksum
          (Seq_exec.run ~space:nest.Nest.space ~kernel:kernel_ml ())
          nest.Nest.space
      in
      if not (rel_close checksum oracle) then
        Alcotest.failf "%s (%d,%d): checksum %.12e vs oracle %.12e" name a b
          checksum oracle)
    sizes

let test_pseqgen_sor () =
  check_parametric ~name:"pseq_sor" ~pspace:(Sor.pspace ())
    ~tiling:(Sor.nonrect ~x:3 ~y:4 ~z:3)
    ~kernel_ml:(Sor.kernel (Sor.make ~m_steps:2 ~size:2))
    ~ckernel:Sor.ckernel ~reads:Sor.skewed_reads ~skew:(Some Sor.skew_matrix)
    ~mk_nest:(fun m n -> Sor.nest (Sor.make ~m_steps:m ~size:n))
    [ (5, 7); (6, 9); (8, 8) ]

let test_pseqgen_adi () =
  check_parametric ~name:"pseq_adi" ~pspace:(Adi.pspace ())
    ~tiling:(Adi.nr3 ~x:2 ~y:3 ~z:3)
    ~kernel_ml:(Adi.kernel (Adi.make ~t_steps:2 ~size:2))
    ~ckernel:Adi.ckernel ~reads:Adi.creads ~skew:None
    ~mk_nest:(fun t n -> Adi.nest (Adi.make ~t_steps:t ~size:n))
    [ (4, 6); (5, 9); (7, 7) ]

let test_pseqgen_jacobi () =
  (* parametric + non-unimodular strides (1,2,1) together *)
  check_parametric ~name:"pseq_jacobi" ~pspace:(Jacobi.pspace ())
    ~tiling:(Jacobi.nonrect ~x:2 ~y:4 ~z:4)
    ~kernel_ml:(Jacobi.kernel (Jacobi.make ~t_steps:2 ~size:2))
    ~ckernel:Jacobi.ckernel ~reads:Jacobi.skewed_reads
    ~skew:(Some Jacobi.skew_matrix)
    ~mk_nest:(fun t n -> Jacobi.nest (Jacobi.make ~t_steps:t ~size:n))
    [ (4, 7); (6, 10) ]

(* the emitted program checks its arguments and its allocation: garbage
   sizes are usage errors (exit 2), a data space that cannot be allocated
   is a clean failure (exit 1), never a silent size 0 or a segfault *)
let test_pseqgen_rejects_bad_input () =
  if not (Lazy.force cc_available) then Alcotest.skip ();
  let src =
    Pseqgen.generate ~pspace:(Sor.pspace ())
      ~tiling:(Sor.nonrect ~x:3 ~y:4 ~z:3) ~kernel:Sor.ckernel
      ~reads:Sor.skewed_reads ~skew:Sor.skew_matrix ()
  in
  let exe = compile_parametric "pseq_sor_args" src in
  let expect ?(prefix = "") code needle args =
    let status, out =
      run_cmd (Printf.sprintf "%s%s %s 2>&1" prefix (Filename.quote exe) args)
    in
    if status <> Unix.WEXITED code || not (Astring.String.is_infix ~affix:needle out)
    then
      Alcotest.failf "%s%s: expected exit %d with %S, got %s:\n%s" prefix args
        code needle
        (match status with
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s | Unix.WSTOPPED s -> Printf.sprintf "signal %d" s)
        out
  in
  expect 2 "usage:" "abc 7";
  expect 2 "usage:" "5 7x";
  expect 2 "usage:" "5";
  expect 2 "usage:" "99999999999 7";
  (* the byte count overflows: rejected before malloc is called *)
  expect 1 "cannot allocate" "200000000 200000000";
  (* ~196 GB under a 256 MB address-space limit: malloc returns NULL *)
  expect ~prefix:"ulimit -v 262144; " 1 "cannot allocate" "5 70000";
  expect 0 "points 245" "5 7"

let test_mpigen_triband () =
  (* a triangular iteration space through the generated-code path *)
  let p = Triband.make ~size:18 in
  check_mpi ~m:0 ~name:"mpi_triband" ~nest:(Triband.nest p)
    ~kernel:(Triband.kernel p) ~ckernel:Triband.ckernel ~reads:Triband.creads
    ~skew:None
    ~tiling:(Triband.oblique ~x:4 ~y:5) ()

let test_mpigen_structure () =
  let p = Adi.make ~t_steps:4 ~size:6 in
  let plan = Plan.make ~m:0 (Adi.nest p) (Adi.nr3 ~x:2 ~y:3 ~z:3) in
  let src = Mpigen.generate ~plan ~kernel:Adi.ckernel ~reads:Adi.creads () in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "contains %s" needle)
        true
        (Astring.String.is_infix ~affix:needle src))
    [
      "MPI_Init"; "MPI_Recv"; "MPI_Send"; "MPI_Reduce"; "MPI_Finalize";
      "minsucc_ts"; "valid("; "lds_coords"; "ttis_start";
    ]

let () =
  Alcotest.run "tiles_codegen"
    [
      ( "c-ast",
        [
          Alcotest.test_case "printing" `Quick test_expr_printing;
          Alcotest.test_case "simplify" `Quick test_simplify;
        ] );
      ("bounds", [ Alcotest.test_case "exprs" `Quick test_bounds_exprs ]);
      ( "seqgen",
        [
          Alcotest.test_case "sor" `Quick test_seqgen_sor;
          Alcotest.test_case "jacobi" `Quick test_seqgen_jacobi;
          Alcotest.test_case "adi" `Quick test_seqgen_adi;
          Alcotest.test_case "triband triangular" `Quick test_seqgen_triband;
          Alcotest.test_case "read mismatch" `Quick test_seqgen_rejects_read_mismatch;
          Alcotest.test_case "parametric sor" `Quick test_pseqgen_sor;
          Alcotest.test_case "parametric adi" `Quick test_pseqgen_adi;
          Alcotest.test_case "parametric jacobi" `Quick test_pseqgen_jacobi;
          Alcotest.test_case "parametric bad input" `Quick
            test_pseqgen_rejects_bad_input;
        ] );
      ( "mpigen",
        [
          Alcotest.test_case "structure" `Quick test_mpigen_structure;
          Alcotest.test_case "sor nonrect" `Quick test_mpigen_sor;
          Alcotest.test_case "sor rect" `Quick test_mpigen_sor_rect;
          Alcotest.test_case "jacobi" `Quick test_mpigen_jacobi;
          Alcotest.test_case "adi" `Quick test_mpigen_adi;
          Alcotest.test_case "adi rect" `Quick test_mpigen_adi_rect;
          Alcotest.test_case "single process" `Quick test_mpigen_single_process;
          Alcotest.test_case "triband triangular" `Quick test_mpigen_triband;
        ] );
    ]
