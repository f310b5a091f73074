(* Randomised cross-layer property tests: random tiling transformations,
   iteration spaces, dependence sets and kernels, checking the global
   invariants the framework's correctness rests on. *)

module Polyhedron = Tiles_poly.Polyhedron
module Nest = Tiles_loop.Nest
module Dependence = Tiles_loop.Dependence
module Tiling = Tiles_core.Tiling
module Ttis = Tiles_core.Ttis
module Tile_space = Tiles_core.Tile_space
module Comm = Tiles_core.Comm
module Constr = Tiles_poly.Constr
module Plan = Tiles_core.Plan
module Kernel = Tiles_runtime.Kernel
module Grid = Tiles_runtime.Grid
module Seq_exec = Tiles_runtime.Seq_exec
module Executor = Tiles_runtime.Executor
module Netmodel = Tiles_mpisim.Netmodel
module Rat = Tiles_rat.Rat
module Vec = Tiles_util.Vec

let net = Netmodel.fast_ethernet_cluster

(* ---------- random tiling generator ---------- *)

(* A tiling is H = diag(1/v)·H' for a random non-singular integer H' and
   random extents v; construction may fail (singular, stride
   divisibility), in which case we retry. *)
let gen_tiling n =
  QCheck.Gen.(
    let entry = int_range (-2) 3 in
    let rec go attempts =
      if attempts = 0 then return None
      else
        let* rows = list_repeat n (list_repeat n entry) in
        let* v = list_repeat n (int_range 2 6) in
        match
          Tiling.of_rows
            (List.map2
               (fun row vk -> List.map (fun e -> Rat.make e vk) row)
               rows v)
        with
        | t -> return (Some t)
        | exception Invalid_argument _ -> go (attempts - 1)
    in
    go 50)

let arb_tiling n =
  QCheck.make
    ~print:(fun t ->
      match t with
      | Some t -> Tiles_linalg.Ratmat.to_string t.Tiling.h
      | None -> "<none>")
    (gen_tiling n)

let prop_count n =
  QCheck.Test.make ~name:(Printf.sprintf "TTIS count = tile size (n=%d)" n)
    ~count:100 (arb_tiling n) (fun t ->
      match t with
      | None -> QCheck.assume_fail ()
      | Some t -> Ttis.count t = Tiling.tile_size t)

let prop_enumerations_agree n =
  QCheck.Test.make
    ~name:(Printf.sprintf "iter = incremental = bruteforce (n=%d)" n)
    ~count:60 (arb_tiling n) (fun t ->
      match t with
      | None -> QCheck.assume_fail ()
      | Some t ->
        let collect iter =
          let acc = ref [] in
          iter t (fun j' -> acc := Vec.copy j' :: !acc);
          List.rev !acc
        in
        let a = collect Ttis.iter in
        a = collect Ttis.iter_incremental && a = collect Ttis.iter_bruteforce)

let prop_roundtrips n =
  QCheck.Test.make
    ~name:(Printf.sprintf "tile/local/global roundtrips (n=%d)" n)
    ~count:60
    (QCheck.pair (arb_tiling n)
       (QCheck.make QCheck.Gen.(array_size (return n) (int_range (-15) 15))))
    (fun (t, j) ->
      match t with
      | None -> QCheck.assume_fail ()
      | Some t ->
        let tile = Tiling.tile_of t j in
        let j' = Tiling.local_of t ~tile j in
        Ttis.mem t j'
        && Vec.equal j (Tiling.global_of t ~tile j'))

let prop_partition n =
  QCheck.Test.make ~name:(Printf.sprintf "tiles partition J^n (n=%d)" n)
    ~count:25
    (QCheck.pair (arb_tiling n)
       (QCheck.make QCheck.Gen.(list_repeat n (int_range 3 9))))
    (fun (t, extents) ->
      match t with
      | None -> QCheck.assume_fail ()
      | Some t ->
        let space = Polyhedron.box (List.map (fun e -> (0, e)) extents) in
        let ts = Tile_space.make space t in
        let total =
          List.fold_left
            (fun acc s -> acc + Tile_space.tile_iterations ts s)
            0 (Tile_space.candidates ts)
        in
        total = Polyhedron.count_points space)

(* the one-shot count and the memoised counter both equal enumeration,
   for every candidate tile and slab origin: zero, the box middle, and
   every slab origin of the plan's communication when the random
   dependences admit one; tiles are visited in shuffled order, twice, so
   memo hits are checked too *)
let prop_slab_count_fast n =
  QCheck.Test.make
    ~name:(Printf.sprintf "fast slab count = enumeration (n=%d)" n)
    ~count:25
    (QCheck.triple (arb_tiling n)
       (QCheck.make QCheck.Gen.(list_repeat n (int_range 3 9)))
       (QCheck.make
          QCheck.Gen.(
            pair
              (list_size (int_range 1 3) (array_size (return n) (int_range 0 1)))
              int)))
    (fun (t, extents, (vecs, seed)) ->
      match t with
      | None -> QCheck.assume_fail ()
      | Some t ->
        let space = Polyhedron.box (List.map (fun e -> (0, e)) extents) in
        let ts = Tile_space.make space t in
        (* the random dependences this tiling is legal for, and the slab
           origins of every mapping dimension Comm accepts them on *)
        let legal d =
          (not (Vec.is_zero d)) && Tiling.legal_for t (Dependence.of_vectors [ d ])
        in
        let comm_los =
          match List.filter legal vecs with
          | [] -> []
          | ds ->
            List.concat_map
              (fun m ->
                match Comm.make t (Dependence.of_vectors ds) ~m with
                | comm ->
                  List.map (fun (dm, _) -> Comm.slab_lo comm ~dm) comm.Comm.dm
                | exception (Invalid_argument _ | Failure _) -> [])
              (List.init n Fun.id)
        in
        let los =
          Array.make n 0
          :: Array.init n (fun k -> t.Tiling.v.(k) / 2)
          :: comm_los
        in
        let rng = Random.State.make [| seed |] in
        let tiles = Array.of_list (Tile_space.candidates ts) in
        let shuffled () =
          let a = Array.copy tiles in
          for i = Array.length a - 1 downto 1 do
            let j = Random.State.int rng (i + 1) in
            let x = a.(i) in
            a.(i) <- a.(j);
            a.(j) <- x
          done;
          Array.to_list a
        in
        List.for_all
          (fun lo ->
            let counter = Tile_space.slab_counter ts ~lo in
            List.for_all
              (fun s ->
                let brute = ref 0 in
                Tile_space.iter_slab_points ts ~tile:s ~lo
                  (fun ~local:_ ~global:_ -> incr brute);
                !brute = Tile_space.slab_points ts ~tile:s ~lo
                && !brute = counter s)
              (shuffled () @ shuffled ()))
          los)

(* row-arithmetic counting = enumeration = brute force over the box, on
   random polyhedra of dimension 1–3: a box (empty when some lo > hi)
   cut by up to two random half-spaces *)
let prop_count_points =
  QCheck.Test.make ~name:"count_points = enumeration" ~count:200
    (QCheck.make
       QCheck.Gen.(
         let* n = int_range 1 3 in
         let* ranges =
           list_repeat n
             (let* l = int_range (-4) 4 in
              let* w = int_range (-1) 6 in
              return (l, l + w))
         in
         let* cuts =
           list_size (int_range 0 2)
             (pair (array_size (return n) (int_range (-3) 3)) (int_range (-6) 12))
         in
         return (ranges, cuts)))
    (fun (ranges, cuts) ->
      let n = List.length ranges in
      let p =
        List.fold_left
          (fun p (coeffs, const) -> Polyhedron.add p (Constr.make ~coeffs ~const))
          (Polyhedron.box ranges) cuts
      in
      let brute = ref 0 in
      let x = Array.make n 0 in
      let rec go k = function
        | [] -> if Polyhedron.member p x then incr brute
        | (l, u) :: rest ->
          for v = l to u do
            x.(k) <- v;
            go (k + 1) rest
          done
      in
      go 0 ranges;
      let count = Polyhedron.count_points p in
      count = Polyhedron.fold_points p ~init:0 ~f:(fun c _ -> c + 1)
      && count = !brute)

(* ---------- random dependence sets + loc roundtrip ---------- *)

let gen_deps n =
  QCheck.Gen.(
    let* q = int_range 1 3 in
    let* vecs =
      list_repeat q
        (let* v = list_repeat n (int_range 0 1) in
         return (Array.of_list v))
    in
    let vecs = List.filter (fun v -> not (Vec.is_zero v)) vecs in
    if vecs = [] then return None
    else
      match Dependence.of_vectors vecs with
      | d -> return (Some d)
      | exception Invalid_argument _ -> return None)

let prop_loc_roundtrip n =
  QCheck.Test.make ~name:(Printf.sprintf "loc/loc_inv roundtrip (n=%d)" n)
    ~count:30
    (QCheck.pair (arb_tiling n) (QCheck.make (gen_deps n)))
    (fun (t, deps) ->
      match (t, deps) with
      | Some t, Some deps when Tiling.legal_for t deps -> (
        let space = Polyhedron.box (List.init n (fun _ -> (0, 7))) in
        match Nest.make ~name:"rand" ~space ~deps with
        | nest -> (
          match Plan.make nest t with
          | plan ->
            Polyhedron.fold_points space ~init:true ~f:(fun acc j ->
                acc
                &&
                let pid, j'' = Plan.loc plan j in
                Vec.equal j (Plan.loc_inv plan ~pid j''))
          | exception (Invalid_argument _ | Failure _) ->
            QCheck.assume_fail () (* tile too small for the deps *))
        | exception Invalid_argument _ -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

(* ---------- random kernels: parallel = sequential ---------- *)

let gen_kernel_2d =
  QCheck.Gen.(
    let* coeffs = list_repeat 3 (float_bound_inclusive 0.3) in
    let coeffs = Array.of_list coeffs in
    let reads = [ [| 1; 0 |]; [| 0; 1 |]; [| 1; 1 |] ] in
    return
      (Kernel.make ~name:"rand" ~dim:2 ~reads
         ~boundary:(fun j _ ->
           0.5 +. (0.1 *. float_of_int (((j.(0) * 7) + (j.(1) * 3)) mod 11)))
         ~compute:(fun ~read ~j:_ ~out ->
           out.(0) <-
             0.1
             +. (coeffs.(0) *. read 0 0)
             +. (coeffs.(1) *. read 1 0)
             +. (coeffs.(2) *. read 2 0))
         ()))

let prop_executor_equivalence =
  QCheck.Test.make ~name:"random kernel: parallel = sequential" ~count:25
    (QCheck.pair
       (QCheck.make gen_kernel_2d)
       (QCheck.pair (arb_tiling 2)
          (QCheck.make QCheck.Gen.(pair (int_range 6 14) (int_range 6 14)))))
    (fun (kernel, (tiling, (w, h))) ->
      match tiling with
      | Some tiling when Tiling.legal_for tiling (Kernel.deps kernel) -> (
        let space = Polyhedron.box [ (0, w); (0, h) ] in
        let nest = Nest.make ~name:"rand" ~space ~deps:(Kernel.deps kernel) in
        match Plan.make nest tiling with
        | plan ->
          let r = Executor.run ~mode:Executor.Full ~plan ~kernel ~net () in
          let seq = Seq_exec.run ~space ~kernel () in
          (match r.Executor.grid with
          | Some g -> Grid.max_abs_diff g seq space < 1e-9
          | None -> false)
        | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

let prop_executor_overlap_equivalence =
  QCheck.Test.make ~name:"random kernel: overlapped = sequential" ~count:15
    (QCheck.pair (QCheck.make gen_kernel_2d) (arb_tiling 2))
    (fun (kernel, tiling) ->
      match tiling with
      | Some tiling when Tiling.legal_for tiling (Kernel.deps kernel) -> (
        let space = Polyhedron.box [ (0, 11); (0, 9) ] in
        let nest = Nest.make ~name:"rand" ~space ~deps:(Kernel.deps kernel) in
        match Plan.make nest tiling with
        | plan ->
          let r =
            Executor.run ~mode:Executor.Full ~overlap:true ~plan ~kernel ~net ()
          in
          let seq = Seq_exec.run ~space ~kernel () in
          (match r.Executor.grid with
          | Some g -> Grid.max_abs_diff g seq space < 1e-9
          | None -> false)
        | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

(* real domains: the overlapped shm schedule is the same computation as
   the blocking one — bit-identical grids, identical counters (few cases:
   each run spawns one domain per rank, plus senders when overlapped) *)
let prop_shm_overlap_equals_blocking =
  let module Shm = Tiles_runtime.Shm_executor in
  QCheck.Test.make ~name:"random kernel: shm overlapped = shm blocking"
    ~count:8
    (QCheck.pair (QCheck.make gen_kernel_2d) (arb_tiling 2))
    (fun (kernel, tiling) ->
      match tiling with
      | Some tiling when Tiling.legal_for tiling (Kernel.deps kernel) -> (
        let space = Polyhedron.box [ (0, 11); (0, 9) ] in
        let nest = Nest.make ~name:"rand" ~space ~deps:(Kernel.deps kernel) in
        match Plan.make nest tiling with
        | plan ->
          let b = Shm.run ~plan ~kernel () in
          let o = Shm.run ~overlap:true ~plan ~kernel () in
          Grid.max_abs_diff b.Shm.grid o.Shm.grid space = 0.
          && b.Shm.messages = o.Shm.messages
          && b.Shm.bytes = o.Shm.bytes
          && b.Shm.max_abs_err = 0.
          && o.Shm.max_abs_err = 0.
        | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

let prop_timing_equals_full =
  QCheck.Test.make ~name:"timing mode = full mode virtual times" ~count:20
    (QCheck.pair (QCheck.make gen_kernel_2d) (arb_tiling 2))
    (fun (kernel, tiling) ->
      match tiling with
      | Some tiling when Tiling.legal_for tiling (Kernel.deps kernel) -> (
        let space = Polyhedron.box [ (0, 12); (0, 10) ] in
        let nest = Nest.make ~name:"rand" ~space ~deps:(Kernel.deps kernel) in
        match Plan.make nest tiling with
        | plan ->
          let a = Executor.run ~mode:Executor.Full ~plan ~kernel ~net () in
          let b = Executor.run ~mode:Executor.Timing ~plan ~kernel ~net () in
          a.Executor.stats.Tiles_mpisim.Sim.completion
          = b.Executor.stats.Tiles_mpisim.Sim.completion
          && a.Executor.points_computed = b.Executor.points_computed
        | exception (Invalid_argument _ | Failure _) -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "tiles_props"
    [
      ( "tiling",
        [
          q (prop_count 2); q (prop_count 3);
          q (prop_enumerations_agree 2); q (prop_enumerations_agree 3);
          q (prop_roundtrips 2); q (prop_roundtrips 3);
        ] );
      ( "tile-space",
        [
          q (prop_partition 2); q (prop_partition 3);
          q (prop_slab_count_fast 2); q (prop_slab_count_fast 3);
        ] );
      ("polyhedron", [ q prop_count_points ]);
      ("plan", [ q (prop_loc_roundtrip 2); q (prop_loc_roundtrip 3) ]);
      ( "executor",
        [
          q prop_executor_equivalence;
          q prop_executor_overlap_equivalence;
          q prop_shm_overlap_equals_blocking;
          q prop_timing_equals_full;
        ] );
    ]
