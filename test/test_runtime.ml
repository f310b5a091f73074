module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Dependence = Tiles_loop.Dependence
module Tiling = Tiles_core.Tiling
module Plan = Tiles_core.Plan
module Kernel = Tiles_runtime.Kernel
module Grid = Tiles_runtime.Grid
module Seq_exec = Tiles_runtime.Seq_exec
module Executor = Tiles_runtime.Executor
module Sim = Tiles_mpisim.Sim
module Netmodel = Tiles_mpisim.Netmodel
module Rat = Tiles_rat.Rat

let net = Netmodel.fast_ethernet_cluster

(* a simple 2-point recurrence in 2D: u[i,j] = u[i-1,j] + u[i,j-1] *)
let pascal_kernel =
  Kernel.make ~name:"pascal" ~dim:2
    ~reads:[ [| 1; 0 |]; [| 0; 1 |] ]
    ~boundary:(fun j _ -> if j.(0) = -1 && j.(1) = -1 then 0. else 1.)
    ~compute:(fun ~read ~j:_ ~out -> out.(0) <- read 0 0 +. read 1 0)
    ()

let pascal_nest w h =
  Nest.make ~name:"pascal"
    ~space:(Polyhedron.box [ (0, w - 1); (0, h - 1) ])
    ~deps:(Kernel.deps pascal_kernel)

(* ---------- Grid ---------- *)

let test_grid_basic () =
  let space = Polyhedron.box [ (0, 3); (0, 3) ] in
  let g = Grid.create space ~width:2 in
  Grid.set g [| 1; 2 |] 0 5.;
  Grid.set g [| 1; 2 |] 1 7.;
  Alcotest.(check (float 0.)) "get 0" 5. (Grid.get g [| 1; 2 |] 0);
  Alcotest.(check (float 0.)) "get 1" 7. (Grid.get g [| 1; 2 |] 1);
  Alcotest.(check bool) "unset is nan" true (Float.is_nan (Grid.get g [| 0; 0 |] 0));
  Alcotest.(check bool) "mem" true (Grid.mem g [| 3; 3 |]);
  Alcotest.(check bool) "not mem" false (Grid.mem g [| 4; 0 |])

let test_grid_rank_mismatch () =
  let space = Polyhedron.box [ (0, 3); (0, 3) ] in
  let g = Grid.create space ~width:1 in
  let raises f =
    match f () with
    | (_ : bool) -> false
    | exception Invalid_argument msg ->
      (* the message must name both ranks, not be a generic bounds error *)
      Astring.String.is_infix ~affix:"rank 3" msg
      && Astring.String.is_infix ~affix:"rank 2" msg
  in
  Alcotest.(check bool) "mem rejects long point" true
    (raises (fun () -> Grid.mem g [| 0; 0; 0 |]));
  Alcotest.(check bool) "mem rejects short point" true
    (match Grid.mem g [| 0 |] with
    | (_ : bool) -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "index rejects mismatched point" true
    (match Grid.index g [| 0; 0; 0 |] 0 with
    | (_ : int) -> false
    | exception Invalid_argument _ -> true);
  (* matching rank still answers instead of raising *)
  Alcotest.(check bool) "mem still works" true (Grid.mem g [| 2; 2 |])

let test_grid_checksum_compensated () =
  (* Neumaier summation: 1e16 + lots of 1s + (-1e16) loses every 1 under
     naive left-to-right addition but must survive compensation; and the
     checksum must not depend on traversal/write order *)
  let space = Polyhedron.box [ (0, 9); (0, 9) ] in
  let g = Grid.create space ~width:1 in
  Polyhedron.iter_points space (fun j -> Grid.set g j 0 1.);
  Grid.set g [| 0; 0 |] 0 1e16;
  Grid.set g [| 9; 9 |] 0 (-1e16);
  (* exact sum: 98 ones + 1e16 - 1e16 = 98; naive summation returns 0 *)
  Alcotest.(check (float 0.)) "compensated" 98. (Grid.checksum g space);
  let h = Grid.create space ~width:1 in
  Polyhedron.iter_points space (fun j -> Grid.set h j 0 1.);
  Grid.set h [| 9; 9 |] 0 1e16;
  Grid.set h [| 0; 0 |] 0 (-1e16);
  (* same multiset placed in opposite corners: same checksum *)
  Alcotest.(check (float 0.)) "order independent" 98. (Grid.checksum h space)

let test_grid_diff () =
  let space = Polyhedron.box [ (0, 1); (0, 1) ] in
  let a = Grid.create space ~width:1 and b = Grid.create space ~width:1 in
  Polyhedron.iter_points space (fun j ->
      Grid.set a j 0 1.;
      Grid.set b j 0 1.);
  Alcotest.(check (float 0.)) "equal" 0. (Grid.max_abs_diff a b space);
  Grid.set b [| 1; 1 |] 0 1.5;
  Alcotest.(check (float 1e-12)) "diff" 0.5 (Grid.max_abs_diff a b space)

(* A skewed SOR space: its bounding box holds many cells outside the
   space, and its rows start and end at different offsets. *)
let sor_space () =
  let module Sor = Tiles_apps.Sor in
  (Sor.nest (Sor.make ~m_steps:4 ~size:7)).Nest.space

(* every cell of the bounding box, inside the space or not *)
let fill_box g space f =
  let box = Polyhedron.box (Array.to_list (Polyhedron.bounding_box space)) in
  Polyhedron.iter_points box (fun j ->
      for field = 0 to Grid.width g - 1 do
        Grid.set g j field (f j field)
      done)

let value j field =
  let h = (j.(0) * 131) + (j.(1) * 17) + (j.(2) * 7) + field in
  float_of_int ((h mod 97) - 48) *. 0.37

(* per-point references over Grid.get, in the iter_points order *)
let pointwise_diff a b space =
  let worst = ref 0. in
  Polyhedron.iter_points space (fun j ->
      for f = 0 to Grid.width a - 1 do
        let x = Grid.get a j f and y = Grid.get b j f in
        let d =
          if Float.is_nan x || Float.is_nan y then infinity
          else Float.abs (x -. y)
        in
        if d > !worst then worst := d
      done);
  !worst

let pointwise_checksum g space =
  let sum = ref 0. and comp = ref 0. in
  Polyhedron.iter_points space (fun j ->
      for f = 0 to Grid.width g - 1 do
        let x = Grid.get g j f in
        let s = !sum +. x in
        if Float.abs !sum >= Float.abs x then
          comp := !comp +. ((!sum -. s) +. x)
        else comp := !comp +. ((x -. s) +. !sum);
        sum := s
      done);
  !sum +. !comp

let test_grid_rowwise () =
  let space = sor_space () in
  let a = Grid.create space ~width:2 and b = Grid.create space ~width:2 in
  fill_box a space value;
  fill_box b space (fun j f ->
      if (j.(1) + j.(2) + f) mod 5 = 0 then value j f +. (0.01 *. float_of_int j.(2))
      else value j f);
  Alcotest.(check (float 0.)) "max_abs_diff = per-point"
    (pointwise_diff a b space) (Grid.max_abs_diff a b space);
  Alcotest.(check bool) "the grids differ" true (Grid.max_abs_diff a b space > 0.);
  Alcotest.(check (float 0.)) "checksum = per-point"
    (pointwise_checksum a space) (Grid.checksum a space);
  (* NaN in a bounding-box cell outside the space is never looked at *)
  let outside = ref None in
  Polyhedron.iter_points
    (Polyhedron.box (Array.to_list (Polyhedron.bounding_box space)))
    (fun j ->
      if !outside = None && not (Polyhedron.member space j) then
        outside := Some (Array.copy j));
  let outside = Option.get !outside in
  let sum = Grid.checksum a space and diff = Grid.max_abs_diff a b space in
  Grid.set a outside 1 Float.nan;
  Alcotest.(check (float 0.)) "outside NaN: diff unchanged" diff
    (Grid.max_abs_diff a b space);
  Alcotest.(check (float 0.)) "outside NaN: checksum unchanged" sum
    (Grid.checksum a space);
  (* NaN at a space point, in either operand *)
  let inside = Array.copy (List.nth (Polyhedron.points space) 40) in
  Grid.set b inside 1 Float.nan;
  Alcotest.(check (float 0.)) "NaN in b is infinity" infinity
    (Grid.max_abs_diff a b space);
  Alcotest.(check (float 0.)) "NaN in b, swapped" infinity
    (Grid.max_abs_diff b a space);
  let c = Grid.create space ~width:1 in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Grid.max_abs_diff: widths differ") (fun () ->
      ignore (Grid.max_abs_diff a c space))

(* rows that start inside a grid's box but end outside it are refused,
   not read past the box *)
let test_grid_row_end_checked () =
  let small = Polyhedron.box [ (0, 3); (0, 3) ] in
  let wide = Polyhedron.box [ (0, 3); (0, 5) ] in
  let a = Grid.create small ~width:1 and b = Grid.create wide ~width:1 in
  fill_box a small (fun _ _ -> 1.);
  fill_box b wide (fun _ _ -> 1.);
  Alcotest.check_raises "diff" (Invalid_argument "Grid: out of bounding box")
    (fun () -> ignore (Grid.max_abs_diff b a wide));
  Alcotest.check_raises "checksum"
    (Invalid_argument "Grid: out of bounding box") (fun () ->
      ignore (Grid.checksum a wide))

(* the rows expand to exactly the iter_points sequence, and their
   lengths sum to count_points *)
let test_iter_rows () =
  List.iter
    (fun (name, space) ->
      let n = Polyhedron.dim space in
      let total = ref 0 and expanded = ref [] in
      Polyhedron.iter_rows space (fun j len ->
          Alcotest.(check bool) (name ^ ": row not empty") true (len >= 1);
          total := !total + len;
          for s = 0 to len - 1 do
            expanded :=
              Array.init n (fun k -> if k = n - 1 then j.(k) + s else j.(k))
              :: !expanded
          done);
      Alcotest.(check int) (name ^ ": lengths sum to count_points")
        (Polyhedron.count_points space) !total;
      Alcotest.(check bool) (name ^ ": rows expand to iter_points") true
        (List.rev !expanded = Polyhedron.points space))
    [
      ("sor", sor_space ());
      ("box", Polyhedron.box [ (2, 4); (-1, 3) ]);
      ("line", Polyhedron.box [ (-2, 5) ]);
      ( "cut",
        Polyhedron.add
          (Polyhedron.box [ (0, 6); (0, 6); (0, 3) ])
          (Tiles_poly.Constr.make ~coeffs:[| -1; -1; 1 |] ~const:6) );
    ]

(* ---------- Seq_exec ---------- *)

let test_seq_pascal () =
  (* with boundary ≡ 1, u[i,j] on the diagonal grows like binomials *)
  let space = Polyhedron.box [ (0, 3); (0, 3) ] in
  let g = Seq_exec.run ~space ~kernel:pascal_kernel () in
  Alcotest.(check (float 0.)) "corner" 2. (Grid.get g [| 0; 0 |] 0);
  (* u[1,0] = u[0,0] + boundary = 2 + 1 = 3 *)
  Alcotest.(check (float 0.)) "u10" 3. (Grid.get g [| 1; 0 |] 0);
  Alcotest.(check (float 0.)) "u11" 6. (Grid.get g [| 1; 1 |] 0)

(* ---------- Kernel.skewed ---------- *)

let test_kernel_skewed_equivalence () =
  (* running the skewed kernel over the skewed space gives the same values
     at corresponding points *)
  let w, h = (5, 6) in
  let nest = pascal_nest w h in
  let t = Tiles_loop.Skew.of_factors 2 [ (1, 0, 1) ] in
  let skewed_nest = Tiles_loop.Skew.apply nest t in
  let sk = Kernel.skewed pascal_kernel t in
  let g0 = Seq_exec.run ~space:nest.Nest.space ~kernel:pascal_kernel () in
  let g1 = Seq_exec.run ~space:skewed_nest.Nest.space ~kernel:sk () in
  Polyhedron.iter_points nest.Nest.space (fun j ->
      let js = Tiles_linalg.Intmat.apply t j in
      Alcotest.(check (float 0.)) "same value" (Grid.get g0 j 0) (Grid.get g1 js 0))

(* ---------- Executor: parallel ≡ sequential ---------- *)

let check_equiv ?m name nest kernel tiling =
  let plan = Plan.make ?m nest tiling in
  let seq = Seq_exec.run ~space:nest.Nest.space ~kernel () in
  let r = Executor.run ~mode:Executor.Full ~plan ~kernel ~net () in
  (match r.Executor.grid with
  | None -> Alcotest.fail "no grid"
  | Some g ->
    Alcotest.(check (float 1e-9))
      (name ^ " parallel = sequential")
      0.
      (Grid.max_abs_diff g seq nest.Nest.space));
  Alcotest.(check int)
    (name ^ " all points computed")
    (Polyhedron.count_points nest.Nest.space)
    r.Executor.points_computed;
  r

let test_pascal_rect () =
  let nest = pascal_nest 12 9 in
  ignore (check_equiv "pascal-rect" nest pascal_kernel (Tiling.rectangular [ 3; 4 ]))

let test_pascal_oblique () =
  (* non-trivial strides in 2D: H = [[1/2,1/4],[0,1/4]] gives H' = [[2,1],[0,1]]
     with TTIS strides (1,2); legal for the (1,0),(0,1) dependencies *)
  let nest = pascal_nest 12 12 in
  let tiling =
    Tiling.of_rows
      [ [ Rat.make 1 2; Rat.make 1 4 ]; [ Rat.zero; Rat.make 1 4 ] ]
  in
  ignore (check_equiv "pascal-oblique" nest pascal_kernel tiling)

let test_pascal_speedup_sane () =
  let nest = pascal_nest 40 40 in
  let r = check_equiv "pascal-speedup" nest pascal_kernel (Tiling.rectangular [ 5; 5 ]) in
  Alcotest.(check bool) "speedup positive" true (r.Executor.speedup > 0.);
  Alcotest.(check bool) "speedup below procs" true
    (r.Executor.speedup <= 8.01)

let test_timing_full_agree () =
  (* the two executor modes must report identical virtual times *)
  let nest = pascal_nest 20 17 in
  let plan = Plan.make nest (Tiling.rectangular [ 4; 3 ]) in
  let a = Executor.run ~mode:Executor.Full ~plan ~kernel:pascal_kernel ~net () in
  let b = Executor.run ~mode:Executor.Timing ~plan ~kernel:pascal_kernel ~net () in
  Alcotest.(check (float 0.)) "same completion"
    a.Executor.stats.Sim.completion b.Executor.stats.Sim.completion;
  Alcotest.(check int) "same messages" a.Executor.stats.Sim.messages
    b.Executor.stats.Sim.messages;
  Alcotest.(check int) "same bytes" a.Executor.stats.Sim.bytes
    b.Executor.stats.Sim.bytes;
  Alcotest.(check int) "same points" a.Executor.points_computed
    b.Executor.points_computed

let test_executor_rejects_mismatched_kernel () =
  let nest = pascal_nest 6 6 in
  let plan = Plan.make nest (Tiling.rectangular [ 2; 2 ]) in
  let other =
    Kernel.make ~name:"other" ~dim:2
      ~reads:[ [| 1; 0 |] ]
      ~boundary:(fun _ _ -> 0.)
      ~compute:(fun ~read ~j:_ ~out -> out.(0) <- read 0 0)
      ()
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Executor.run ~plan ~kernel:other ~net ());
       false
     with Invalid_argument _ -> true)

let test_overlap_correct_and_not_slower () =
  (* §5 future-work schedule: results identical, completion no worse *)
  let nest = pascal_nest 40 40 in
  let plan = Plan.make nest (Tiling.rectangular [ 5; 5 ]) in
  let seq = Seq_exec.run ~space:nest.Nest.space ~kernel:pascal_kernel () in
  let blocking = Executor.run ~mode:Executor.Full ~plan ~kernel:pascal_kernel ~net () in
  let overlapped =
    Executor.run ~mode:Executor.Full ~overlap:true ~plan ~kernel:pascal_kernel
      ~net ()
  in
  (match overlapped.Executor.grid with
  | Some g ->
    Alcotest.(check (float 0.)) "still exact" 0.
      (Grid.max_abs_diff g seq nest.Nest.space)
  | None -> Alcotest.fail "no grid");
  Alcotest.(check bool) "not slower" true
    (overlapped.Executor.stats.Sim.completion
    <= blocking.Executor.stats.Sim.completion +. 1e-12)

let test_executor_ideal_net_faster () =
  let nest = pascal_nest 30 30 in
  let plan = Plan.make nest (Tiling.rectangular [ 5; 5 ]) in
  let slow = Executor.run ~mode:Executor.Timing ~plan ~kernel:pascal_kernel ~net () in
  let fast =
    Executor.run ~mode:Executor.Timing ~plan ~kernel:pascal_kernel
      ~net:Netmodel.ideal ()
  in
  Alcotest.(check bool) "ideal faster" true
    (fast.Executor.stats.Sim.completion < slow.Executor.stats.Sim.completion)

(* ---------- Shm_executor: real domains ---------- *)

let test_shm_pascal () =
  let nest = pascal_nest 30 30 in
  let plan = Plan.make nest (Tiling.rectangular [ 6; 10 ]) in
  let r = Tiles_runtime.Shm_executor.run ~plan ~kernel:pascal_kernel () in
  Alcotest.(check (float 0.)) "exact vs oracle" 0. r.Tiles_runtime.Shm_executor.max_abs_err;
  Alcotest.(check int) "procs" (Plan.nprocs plan) r.Tiles_runtime.Shm_executor.nprocs;
  Alcotest.(check bool) "messages sent" true (r.Tiles_runtime.Shm_executor.messages > 0);
  Alcotest.(check bool) "bytes counted" true (r.Tiles_runtime.Shm_executor.bytes > 0);
  (* counters live in the stats record too; spans only with ~trace:true *)
  Alcotest.(check int) "stats messages" r.Tiles_runtime.Shm_executor.messages
    r.Tiles_runtime.Shm_executor.stats.Tiles_obs.Stats.messages;
  Alcotest.(check bool) "untraced: no spans" true
    (r.Tiles_runtime.Shm_executor.trace = [])

let test_shm_sor () =
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:8 ~size:12 in
  let nest = Sor.nest p in
  let plan = Plan.make ~m:Sor.mapping_dim nest (Sor.nonrect ~x:4 ~y:7 ~z:4) in
  let r = Tiles_runtime.Shm_executor.run ~plan ~kernel:(Sor.kernel p) () in
  Alcotest.(check (float 0.)) "exact" 0. r.Tiles_runtime.Shm_executor.max_abs_err

let test_shm_matches_sim_messages () =
  (* the domain backend exchanges exactly the same number of messages as
     the simulator backend — same protocol, different transport *)
  let nest = pascal_nest 24 24 in
  let plan = Plan.make nest (Tiling.rectangular [ 6; 6 ]) in
  let sim = Executor.run ~mode:Executor.Timing ~plan ~kernel:pascal_kernel ~net () in
  let shm = Tiles_runtime.Shm_executor.run ~plan ~kernel:pascal_kernel () in
  Alcotest.(check int) "same messages" sim.Executor.stats.Sim.messages
    shm.Tiles_runtime.Shm_executor.messages;
  Alcotest.(check int) "same bytes" sim.Executor.stats.Sim.bytes
    shm.Tiles_runtime.Shm_executor.bytes

(* the overlapped schedule is the same computation: blocking and
   overlapped shm runs must produce bit-identical grids and identical
   message/byte counters — which must also match the simulator's counters
   in overlap mode (same protocol, different transport) *)
let test_shm_overlap_matches_blocking () =
  let module Shm = Tiles_runtime.Shm_executor in
  let check name ~space ~plan ~kernel =
    let b = Shm.run ~plan ~kernel () in
    let o = Shm.run ~overlap:true ~plan ~kernel () in
    Alcotest.(check (float 0.)) (name ^ ": blocking exact") 0.
      b.Shm.max_abs_err;
    Alcotest.(check (float 0.)) (name ^ ": overlapped exact") 0.
      o.Shm.max_abs_err;
    Alcotest.(check (float 0.)) (name ^ ": grids bit-identical") 0.
      (Grid.max_abs_diff b.Shm.grid o.Shm.grid space);
    Alcotest.(check int) (name ^ ": same messages") b.Shm.messages
      o.Shm.messages;
    Alcotest.(check int) (name ^ ": same bytes") b.Shm.bytes o.Shm.bytes;
    Alcotest.(check int) (name ^ ": same points") b.Shm.points_computed
      o.Shm.points_computed;
    let sim =
      Executor.run ~mode:Executor.Timing ~overlap:true ~plan ~kernel ~net ()
    in
    Alcotest.(check int) (name ^ ": sim overlap messages agree")
      sim.Executor.stats.Sim.messages o.Shm.messages;
    Alcotest.(check int) (name ^ ": sim overlap bytes agree")
      sim.Executor.stats.Sim.bytes o.Shm.bytes
  in
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:8 ~size:12 in
  check "sor" ~space:(Sor.nest p).Nest.space
    ~plan:
      (Plan.make ~m:Sor.mapping_dim (Sor.nest p) (Sor.nonrect ~x:4 ~y:7 ~z:4))
    ~kernel:(Sor.kernel p);
  let module Jacobi = Tiles_apps.Jacobi in
  let p = Jacobi.make ~t_steps:6 ~size:10 in
  check "jacobi" ~space:(Jacobi.nest p).Nest.space
    ~plan:
      (Plan.make ~m:Jacobi.mapping_dim (Jacobi.nest p)
         (Jacobi.nonrect ~x:2 ~y:6 ~z:6))
    ~kernel:(Jacobi.kernel p);
  let module Adi = Tiles_apps.Adi in
  let p = Adi.make ~t_steps:6 ~size:10 in
  check "adi" ~space:(Adi.nest p).Nest.space
    ~plan:
      (Plan.make ~m:Adi.mapping_dim (Adi.nest p) (Adi.nr3 ~x:3 ~y:5 ~z:5))
    ~kernel:(Adi.kernel p)

(* recv_timeout = 0 used to silently mean "wait forever"; it must now
   fail fast instead of disabling the watchdog *)
let test_shm_rejects_nonpositive_recv_timeout () =
  let nest = pascal_nest 8 8 in
  let plan = Plan.make nest (Tiling.rectangular [ 4; 4 ]) in
  let expect t =
    Alcotest.check_raises
      (Printf.sprintf "recv_timeout %g rejected" t)
      (Invalid_argument
         "Shm_executor.run: recv_timeout must be positive (use infinity to \
          disable the watchdog)")
      (fun () ->
        ignore
          (Tiles_runtime.Shm_executor.run ~recv_timeout:t ~plan
             ~kernel:pascal_kernel ()))
  in
  expect 0.;
  expect (-1.)

let () =
  Alcotest.run "tiles_runtime"
    [
      ( "grid",
        [
          Alcotest.test_case "basic" `Quick test_grid_basic;
          Alcotest.test_case "rank mismatch" `Quick test_grid_rank_mismatch;
          Alcotest.test_case "checksum compensated" `Quick
            test_grid_checksum_compensated;
          Alcotest.test_case "diff" `Quick test_grid_diff;
          Alcotest.test_case "row-wise = per-point" `Quick test_grid_rowwise;
          Alcotest.test_case "row end checked" `Quick test_grid_row_end_checked;
          Alcotest.test_case "iter_rows" `Quick test_iter_rows;
        ] );
      ("seq", [ Alcotest.test_case "pascal" `Quick test_seq_pascal ]);
      ( "kernel",
        [ Alcotest.test_case "skewed equivalence" `Quick test_kernel_skewed_equivalence ] );
      ( "executor",
        [
          Alcotest.test_case "pascal rect" `Quick test_pascal_rect;
          Alcotest.test_case "pascal oblique" `Quick test_pascal_oblique;
          Alcotest.test_case "speedup sane" `Quick test_pascal_speedup_sane;
          Alcotest.test_case "timing = full" `Quick test_timing_full_agree;
          Alcotest.test_case "kernel mismatch" `Quick test_executor_rejects_mismatched_kernel;
          Alcotest.test_case "ideal net faster" `Quick test_executor_ideal_net_faster;
          Alcotest.test_case "overlap correct" `Quick test_overlap_correct_and_not_slower;
        ] );
      ( "shm",
        [
          Alcotest.test_case "pascal on domains" `Quick test_shm_pascal;
          Alcotest.test_case "sor on domains" `Quick test_shm_sor;
          Alcotest.test_case "same messages as sim" `Quick test_shm_matches_sim_messages;
          Alcotest.test_case "overlap = blocking (all apps)" `Quick
            test_shm_overlap_matches_blocking;
          Alcotest.test_case "recv_timeout contract" `Quick
            test_shm_rejects_nonpositive_recv_timeout;
        ] );
    ]
