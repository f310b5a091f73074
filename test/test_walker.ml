(* Tests for the compiled tile-execution engine ({!Walker}): walker
   variants are bit-for-bit equivalent, the NaN-read validation knob
   behaves as documented, and corrupted slab messages surface as the
   structured {!Protocol.Slab_mismatch} error. *)

module Fbuf = Tiles_util.Fbuf
module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Tiling = Tiles_core.Tiling
module Plan = Tiles_core.Plan
module Mapping = Tiles_core.Mapping
module Kernel = Tiles_runtime.Kernel
module Grid = Tiles_runtime.Grid
module Walker = Tiles_runtime.Walker
module Protocol = Tiles_runtime.Protocol
module Seq_exec = Tiles_runtime.Seq_exec
module Executor = Tiles_runtime.Executor
module Shm = Tiles_runtime.Shm_executor
module Netmodel = Tiles_mpisim.Netmodel
module Sim = Tiles_mpisim.Sim

let net = Netmodel.fast_ethernet_cluster

(* the 2-point recurrence from test_runtime: u[i,j] = u[i-1,j] + u[i,j-1] *)
let pascal_kernel =
  Kernel.make ~name:"pascal" ~dim:2
    ~reads:[ [| 1; 0 |]; [| 0; 1 |] ]
    ~boundary:(fun _ _ -> 1.)
    ~compute:(fun ~read ~j:_ ~out -> out.(0) <- read 0 0 +. read 1 0)
    ()

let pascal_nest w h =
  Nest.make ~name:"pascal"
    ~space:(Polyhedron.box [ (0, w - 1); (0, h - 1) ])
    ~deps:(Kernel.deps pascal_kernel)

(* ---------- variant naming ---------- *)

let test_variant_strings () =
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Walker.variant_to_string v ^ " roundtrips")
        true
        (Walker.variant_of_string (Walker.variant_to_string v) = Some v))
    Walker.all_variants;
  Alcotest.(check bool) "unknown rejected" true
    (Walker.variant_of_string "turbo" = None)

(* ---------- sequential walkers: bit-for-bit identical ---------- *)

let test_seq_variants_identical () =
  let check_app name space kernel =
    let reference =
      Seq_exec.run ~variant:Walker.Reference ~space ~kernel ()
    in
    List.iter
      (fun v ->
        let g = Seq_exec.run ~variant:v ~space ~kernel () in
        Alcotest.(check (float 0.))
          (name ^ ": " ^ Walker.variant_to_string v ^ " = reference")
          0.
          (Grid.max_abs_diff g reference space))
      Walker.all_variants;
    (* check mode must not change results, only add validation *)
    let checked =
      Seq_exec.run ~variant:Walker.Fastpath ~check:true ~space ~kernel ()
    in
    Alcotest.(check (float 0.))
      (name ^ ": fast+check = reference")
      0.
      (Grid.max_abs_diff checked reference space)
  in
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:6 ~size:10 in
  check_app "sor" (Sor.nest p).Nest.space (Sor.kernel p);
  let module Jacobi = Tiles_apps.Jacobi in
  let p = Jacobi.make ~t_steps:5 ~size:9 in
  check_app "jacobi" (Jacobi.nest p).Nest.space (Jacobi.kernel p);
  let module Adi = Tiles_apps.Adi in
  let p = Adi.make ~t_steps:5 ~size:9 in
  check_app "adi" (Adi.nest p).Nest.space (Adi.kernel p)

(* ---------- sequential row split ---------- *)

(* [Seq_exec]'s fast walk runs each row's interior span with unguarded
   reads, so a span wider than the true one reads outside the space (a
   NaN cell that [~check:true] reports, or memory outside the grid). The
   kernels below are random affine stencils: every field of a point is a
   fixed left-to-right sum over the reads, so the row body and [compute]
   perform the same float operations in the same order. *)
type row_case = {
  space : Polyhedron.t;
  reads : int array list;
  width : int;
  uses_j : bool;
  row : bool;
  coeffs : float array array;  (* [field].(read) *)
}

let row_kernel c =
  let nrd = List.length c.reads in
  let term f j =
    if c.uses_j then 0.01 *. float_of_int ((j.(0) * 3) + j.(1) + f) else 0.
  in
  let compute ~read ~j ~out =
    for f = 0 to c.width - 1 do
      let acc = ref (term f j) in
      for r = 0 to nrd - 1 do
        acc := !acc +. (c.coeffs.(f).(r) *. read r ((r + f) mod c.width))
      done;
      out.(f) <- !acc
    done
  in
  let row ~(la : Fbuf.t) ~dst ~taps ~len =
    for i = dst to dst + len - 1 do
      let acc = ref 0. in
      for r = 0 to nrd - 1 do
        acc := !acc +. (c.coeffs.(0).(r) *. la.{i + taps.(r)})
      done;
      la.{i} <- !acc
    done
  in
  Kernel.make ~name:"rows" ~dim:(Polyhedron.dim c.space) ~width:c.width
    ~uses_j:c.uses_j
    ?row:(if c.row then Some row else None)
    ~reads:c.reads
    ~boundary:(fun j f ->
      0.5 +. (0.1 *. float_of_int ((((j.(0) * 7) + (j.(1) * 3) + f) mod 11 + 11) mod 11)))
    ~compute ()

(* the fast walk with and without check equals the per-point walk *)
let row_split_identical c =
  let kernel = row_kernel c in
  let space = c.space in
  let reference = Seq_exec.run ~variant:Walker.Reference ~space ~kernel () in
  List.for_all
    (fun check ->
      let g = Seq_exec.run ~variant:Walker.Fastpath ~check ~space ~kernel () in
      Grid.max_abs_diff g reference space = 0.)
    [ false; true ]

(* per row, the steps at which every tap reads inside the space, by
   brute force *)
let brute_interior space reads =
  let n = Polyhedron.dim space in
  let spans = ref [] in
  Polyhedron.iter_rows space (fun j len ->
      let x0 = j.(n - 1) in
      let inside =
        List.filter
          (fun s ->
            List.for_all
              (fun d ->
                Polyhedron.member space
                  (Array.init n (fun k ->
                       (if k = n - 1 then x0 + s else j.(k)) - d.(k))))
              reads)
          (List.init len Fun.id)
      in
      spans := (len, inside) :: !spans);
  !spans

let gen_row_case =
  QCheck.Gen.(
    let* n = int_range 2 3 in
    let* ranges =
      list_repeat n
        (let* l = int_range (-3) 3 in
         let* w = int_range 0 7 in
         return (l, l + w))
    in
    (* lower unitriangular skew: unimodular, keeps reads lex-positive *)
    let* below = list_repeat (n * n) (int_range (-2) 2) in
    let below = Array.of_list below in
    let skew =
      Array.init n (fun i ->
          Array.init n (fun k ->
              if k = i then 1 else if k < i then below.((i * n) + k) else 0))
    in
    let* cut =
      opt (pair (array_size (return n) (int_range (-3) 3)) (int_range 0 12))
    in
    let* reads =
      list_size (int_range 1 4)
        (let* lead = int_range 0 (n - 1) in
         let* first = int_range 1 3 in
         let* rest = list_repeat n (int_range (-2) 2) in
         let rest = Array.of_list rest in
         return
           (Array.init n (fun k ->
                if k < lead then 0 else if k = lead then first else rest.(k))))
    in
    let* width = int_range 1 2 in
    let* uses_j = bool in
    let* row = if width = 1 then bool else return false in
    let* coeffs =
      list_repeat 2
        (list_repeat (List.length reads) (float_range (-0.3) 0.3))
    in
    let space =
      Polyhedron.transform_unimodular skew (Polyhedron.box ranges)
    in
    let space =
      match cut with
      | None -> space
      | Some (coeffs, const) ->
        Polyhedron.add space (Tiles_poly.Constr.make ~coeffs ~const)
    in
    return
      {
        space;
        reads;
        width;
        uses_j = uses_j && not row;
        row;
        coeffs = Array.of_list (List.map Array.of_list coeffs);
      })

let print_row_case c =
  Format.asprintf "%a@.reads %s width %d uses_j %b row %b" Polyhedron.pp
    c.space
    (String.concat " " (List.map Tiles_util.Vec.to_string c.reads))
    c.width c.uses_j c.row

let prop_row_split =
  QCheck.Test.make ~name:"seq row split: fast (+check) = reference"
    ~count:300
    (QCheck.make ~print:print_row_case gen_row_case)
    (fun c ->
      if Polyhedron.count_points c.space = 0 then QCheck.assume_fail ()
      else row_split_identical c)

let sor_row_case () =
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:4 ~size:11 in
  let space = (Sor.nest p).Nest.space in
  let reads = (Sor.kernel p).Kernel.reads in
  (space, reads)

(* skewed SOR: the in-row tap of each row's first point leaves the space,
   so no row is wholly interior, yet most rows have an interior part *)
let test_row_split_sor () =
  let space, reads = sor_row_case () in
  let spans = brute_interior space reads in
  Alcotest.(check bool) "every row's span is a strict sub-interval" true
    (List.for_all
       (fun (len, inside) ->
         List.length inside < len
         && (inside = []
            || List.nth inside (List.length inside - 1) - List.hd inside + 1
               = List.length inside))
       spans);
  Alcotest.(check bool) "some rows have an interior part" true
    (List.exists (fun (_, inside) -> inside <> []) spans);
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:4 ~size:11 in
  let kernel = Sor.kernel p in
  let reference = Seq_exec.run ~variant:Walker.Reference ~space ~kernel () in
  List.iter
    (fun check ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "sor fast check:%b = reference" check)
        0.
        (Grid.max_abs_diff
           (Seq_exec.run ~variant:Walker.Fastpath ~check ~space ~kernel ())
           reference space))
    [ false; true ]

(* rows of two points under a tap reaching three points back along the
   row: every span is empty and every point takes the guarded path *)
let test_row_split_short_rows () =
  let space = Polyhedron.box [ (0, 5); (0, 1) ] in
  let reads = [ [| 0; 3 |]; [| 1; 0 |] ] in
  Alcotest.(check bool) "every span is empty" true
    (List.for_all (fun (_, inside) -> inside = []) (brute_interior space reads));
  List.iter
    (fun row ->
      Alcotest.(check bool)
        (Printf.sprintf "short rows (row body %b) = reference" row)
        true
        (row_split_identical
           {
             space;
             reads;
             width = 1;
             uses_j = false;
             row;
             coeffs = [| [| 0.25; 0.5 |] |];
           }))
    [ false; true ]

(* ---------- NaN-read validation modes ---------- *)

(* Build a walker for a rank whose first tile needs halo data, give it a
   freshly NaN-poisoned LDS and no received slabs: the reference walker
   and the fast walkers under ~check:true must refuse the uninitialised
   read; the fast walker without check must sail through (the whole point
   of the knob is skipping that per-read branch). *)
let test_check_modes () =
  let nest = pascal_nest 12 9 in
  let plan = Plan.make nest (Tiling.rectangular [ 3; 4 ]) in
  let mapping = plan.Plan.mapping in
  let nprocs = Mapping.nprocs mapping in
  Alcotest.(check bool) "plan is multi-rank" true (nprocs > 1);
  let rank = nprocs - 1 in
  let tlo, thi = Mapping.chain mapping rank in
  let ntiles = thi - tlo + 1 in
  let pid = Mapping.pid_of_rank mapping rank in
  let tile = Mapping.join mapping ~pid ~ts:tlo in
  let width = pascal_kernel.Kernel.width in
  let fires ~variant ~check =
    let w =
      Walker.make ~plan ~kernel:pascal_kernel ~rank ~ntiles ~variant ~check ()
    in
    let la = Fbuf.make (Walker.lds_total w * width) Float.nan in
    match Walker.compute_tile w ~trel:0 ~tile ~la with
    | (_ : int) -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "reference always validates" true
    (fires ~variant:Walker.Reference ~check:false);
  Alcotest.(check bool) "fast + check validates" true
    (fires ~variant:Walker.Fastpath ~check:true);
  Alcotest.(check bool) "fast without check skips validation" false
    (fires ~variant:Walker.Fastpath ~check:false)

(* ---------- native walker: build, fallback, recording ---------- *)

let test_native_modes () =
  let mk ~plan ~kernel ~check =
    let tlo, thi = Mapping.chain plan.Plan.mapping 0 in
    Walker.make ~plan ~kernel ~rank:0 ~ntiles:(thi - tlo + 1)
      ~variant:Walker.Native ~check ()
  in
  (* a kernel without a C body must fall back and record why *)
  let nest = pascal_nest 12 9 in
  let plan = Plan.make nest (Tiling.rectangular [ 3; 4 ]) in
  (match
     Walker.fallback_reason (mk ~plan ~kernel:pascal_kernel ~check:false)
   with
  | Some reason ->
    Alcotest.(check bool) "reason mentions the C body" true
      (Astring.String.is_infix ~affix:"C body" reason)
  | None -> Alcotest.fail "kernel without C body must fall back");
  let module Sor = Tiles_apps.Sor in
  let p = Sor.make ~m_steps:6 ~size:9 in
  let plan2 =
    Plan.make ~m:Sor.mapping_dim (Sor.nest p) (Sor.rect ~x:3 ~y:9 ~z:9)
  in
  let kernel2 = Sor.kernel p in
  (* compiler disabled: the fallback is taken and the reason recorded *)
  Unix.putenv "TILEC_NO_CC" "1";
  let w_nocc =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "TILEC_NO_CC" "")
      (fun () -> mk ~plan:plan2 ~kernel:kernel2 ~check:false)
  in
  (match Walker.fallback_reason w_nocc with
  | Some reason ->
    Alcotest.(check bool) "reason mentions the compiler" true
      (Astring.String.is_infix ~affix:"compiler" reason)
  | None -> Alcotest.fail "TILEC_NO_CC must force the fallback");
  (* check mode validates reads in OCaml, so native must defer *)
  (match Walker.fallback_reason (mk ~plan:plan2 ~kernel:kernel2 ~check:true) with
  | Some _ -> ()
  | None -> Alcotest.fail "check mode must fall back to the OCaml path");
  (* with a real compiler the native walker builds (no fallback) and a
     full parallel run matches the boxed sequential oracle exactly *)
  if Tiles_runtime.Native_kernel.available () then begin
    let w = mk ~plan:plan2 ~kernel:kernel2 ~check:false in
    Alcotest.(check bool) "native built" true
      (Walker.fallback_reason w = None);
    let space = (Sor.nest p).Nest.space in
    let reference =
      Seq_exec.run ~variant:Walker.Reference ~space ~kernel:kernel2 ()
    in
    let r = Shm.run ~walker:Walker.Native ~plan:plan2 ~kernel:kernel2 () in
    Alcotest.(check (float 0.)) "native run = boxed oracle" 0.
      (Grid.max_abs_diff r.Shm.grid reference space)
  end

(* ---------- structured slab mismatch ---------- *)

(* Run the protocol over an in-memory mailbox and corrupt the first
   delivered message by appending one spurious cell: the receiving rank
   must raise Slab_mismatch naming the rank, stage, direction, tile
   timestamp and both cell counts — not a bare failwith. *)
let test_slab_mismatch () =
  let nest = pascal_nest 12 9 in
  let plan = Plan.make nest (Tiling.rectangular [ 3; 4 ]) in
  let kernel = pascal_kernel in
  let width = kernel.Kernel.width in
  let shared =
    Protocol.prepare ~mode:Protocol.Full ~plan ~kernel ~flop_time:0.
      ~pack_time:0. ()
  in
  let nprocs = Mapping.nprocs plan.Plan.mapping in
  let mail : (int * int * int, Fbuf.t Queue.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let tampered = ref false in
  let comms_for rank =
    {
      Protocol.send =
        (fun ~dst ~tag buf ->
          let key = (rank, dst, tag) in
          let q =
            match Hashtbl.find_opt mail key with
            | Some q -> q
            | None ->
              let q = Queue.create () in
              Hashtbl.add mail key q;
              q
          in
          Queue.add buf q);
      recv =
        (fun ~src ~tag ->
          let buf = Queue.pop (Hashtbl.find mail (src, rank, tag)) in
          if !tampered then buf
          else begin
            tampered := true;
            Fbuf.append buf (Fbuf.make width 0.)
          end);
      compute = ignore;
      pack = ignore;
      unpack = ignore;
    }
  in
  (* every communication direction of this plan points towards higher
     ranks, so running the rank programs in rank order means each receive
     finds its message already enqueued *)
  let outcome =
    try
      for r = 0 to nprocs - 1 do
        Protocol.rank_program shared (comms_for r) r
      done;
      None
    with Protocol.Slab_mismatch m -> Some m
  in
  match outcome with
  | None -> Alcotest.fail "corrupted slab message was not detected"
  | Some m ->
    Alcotest.(check bool) "tampering happened first" true !tampered;
    Alcotest.(check bool) "unpack stage" true (m.Protocol.mm_stage = `Unpack);
    Alcotest.(check bool) "rank in range" true
      (m.Protocol.mm_rank >= 0 && m.Protocol.mm_rank < nprocs);
    Alcotest.(check int) "exactly one extra cell" (m.Protocol.mm_actual + 1)
      m.Protocol.mm_expected;
    let s = Protocol.slab_mismatch_to_string m in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          ("message mentions " ^ needle)
          true
          (Astring.String.is_infix ~affix:needle s))
      [ "rank"; "unpack"; "direction"; "t^S"; "expected" ]

(* ---------- property: fast = reference on every backend ---------- *)

type backend = Sim_backend | Shm_backend

let backend_name = function Sim_backend -> "sim" | Shm_backend -> "shm"

(* (space, plan, kernel) for a random app / tiling-variant / factor
   combination; None when the combination is infeasible (illegal tiling,
   tile too small for the dependencies, ...) *)
let build_case app vi (x, y, z) =
  let build nest mapping_dim variants kernel =
    let _, f = List.nth variants (vi mod List.length variants) in
    match Plan.make ~m:mapping_dim nest (f ~x ~y ~z) with
    | plan -> Some (nest.Nest.space, plan, kernel)
    | exception (Invalid_argument _ | Failure _) -> None
  in
  match app with
  | `Sor ->
    let module A = Tiles_apps.Sor in
    let p = A.make ~m_steps:6 ~size:9 in
    build (A.nest p) A.mapping_dim A.variants (A.kernel p)
  | `Jacobi ->
    let module A = Tiles_apps.Jacobi in
    let p = A.make ~t_steps:5 ~size:9 in
    build (A.nest p) A.mapping_dim A.variants (A.kernel p)
  | `Adi ->
    let module A = Tiles_apps.Adi in
    let p = A.make ~t_steps:5 ~size:9 in
    build (A.nest p) A.mapping_dim A.variants (A.kernel p)

let run_with backend ~overlap ~walker (plan, kernel) =
  match backend with
  | Sim_backend ->
    let r =
      Executor.run ~walker ~mode:Executor.Full ~overlap ~plan ~kernel ~net ()
    in
    ( Option.get r.Executor.grid,
      r.Executor.stats.Sim.messages,
      r.Executor.stats.Sim.bytes,
      r.Executor.points_computed )
  | Shm_backend ->
    let r = Shm.run ~walker ~overlap ~plan ~kernel () in
    (r.Shm.grid, r.Shm.messages, r.Shm.bytes, r.Shm.points_computed)

let gen_case =
  QCheck.Gen.(
    let* app = oneofl [ `Sor; `Jacobi; `Adi ] in
    let* vi = int_range 0 3 in
    let* x = int_range 3 6 in
    let* y = int_range 6 9 in
    let* z = int_range 6 9 in
    let* overlap = bool in
    let* backend = oneofl [ Sim_backend; Shm_backend ] in
    return (app, vi, (x, y, z), overlap, backend))

let print_case (app, vi, (x, y, z), overlap, backend) =
  Printf.sprintf "%s variant#%d %dx%dx%d overlap:%b backend:%s"
    (match app with `Sor -> "sor" | `Jacobi -> "jacobi" | `Adi -> "adi")
    vi x y z overlap (backend_name backend)

(* ---------- walk-plan memo ---------- *)

(* The compiled slab projection depends only on what every rank of a
   plan shares, so the ranks of one plan must share one memo entry. A
   nest/tiling used nowhere else in this process makes the entry-count
   delta exact. *)
let test_plan_memo_shared_by_ranks () =
  let nest = pascal_nest 15 10 in
  let plan = Plan.make nest (Tiling.rectangular [ 3; 5 ]) in
  Alcotest.(check bool) "plan is multi-rank" true
    (Mapping.nprocs plan.Plan.mapping > 1);
  let mk rank =
    let tlo, thi = Mapping.chain plan.Plan.mapping rank in
    ignore
      (Walker.make ~plan ~kernel:pascal_kernel ~rank ~ntiles:(thi - tlo + 1)
         ~variant:Walker.Fastpath ~check:false ())
  in
  let before = Walker.memo_entries () in
  mk 0;
  mk 1;
  mk 0;
  Alcotest.(check int) "one plan for all ranks" (before + 1)
    (Walker.memo_entries ())

let prop_walkers_bit_identical =
  QCheck.Test.make ~name:"fast/native = reference (grids + counters)"
    ~count:10
    (QCheck.make ~print:print_case gen_case)
    (fun (app, vi, factors, overlap, backend) ->
      match build_case app vi factors with
      | None -> QCheck.assume_fail ()
      | Some (space, plan, kernel) ->
        let gr, mr, br, pr =
          run_with backend ~overlap ~walker:Walker.Reference (plan, kernel)
        in
        List.for_all
          (fun walker ->
            let g, m, b, p =
              run_with backend ~overlap ~walker (plan, kernel)
            in
            Grid.max_abs_diff g gr space = 0.
            && m = mr && b = br && p = pr)
          [ Walker.Fastpath; Walker.Native ])

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "tiles_walker"
    [
      ("variant", [ Alcotest.test_case "strings" `Quick test_variant_strings ]);
      ( "equivalence",
        [
          Alcotest.test_case "sequential walkers identical" `Quick
            test_seq_variants_identical;
          Alcotest.test_case "row split: skewed sor" `Quick test_row_split_sor;
          Alcotest.test_case "row split: rows shorter than taps" `Quick
            test_row_split_short_rows;
          q prop_row_split;
          q prop_walkers_bit_identical;
        ] );
      ( "memo",
        [ Alcotest.test_case "plan shared by ranks" `Quick
            test_plan_memo_shared_by_ranks ] );
      ( "validation",
        [ Alcotest.test_case "check modes" `Quick test_check_modes ] );
      ( "native",
        [ Alcotest.test_case "build and fallback modes" `Quick
            test_native_modes ] );
      ( "mismatch",
        [ Alcotest.test_case "structured error" `Quick test_slab_mismatch ] );
    ]
