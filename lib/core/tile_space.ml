module Poly = Tiles_poly
module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module Vec = Tiles_util.Vec
module Rat = Tiles_rat.Rat

type t = {
  tiling : Tiling.t;
  space : Polyhedron.t;
  poly : Polyhedron.t;
  bbox : (int * int) array;
}

(* Constraints over (j^S, j) ∈ Z^{2n}:  tile-membership band
   0 <= h'_k·j − v_k·j^S_k <= v_k − 1  plus J^n lifted onto the j part. *)
let combined_system space (tiling : Tiling.t) =
  let n = tiling.n in
  let lift c =
    let coeffs = Array.make (2 * n) 0 in
    for i = 0 to n - 1 do
      coeffs.(n + i) <- Constr.coeff c i
    done;
    Constr.make ~coeffs ~const:(Constr.const c)
  in
  let band k =
    let lo = Array.make (2 * n) 0 and hi = Array.make (2 * n) 0 in
    for i = 0 to n - 1 do
      lo.(n + i) <- tiling.h'.(k).(i);
      hi.(n + i) <- -tiling.h'.(k).(i)
    done;
    lo.(k) <- -tiling.v.(k);
    hi.(k) <- tiling.v.(k);
    [ Constr.make ~coeffs:lo ~const:0;
      Constr.make ~coeffs:hi ~const:(tiling.v.(k) - 1) ]
  in
  List.map lift (Polyhedron.constraints space)
  @ List.concat (List.init n band)

let make space tiling =
  let n = Tiling.dim tiling in
  if Polyhedron.dim space <> n then invalid_arg "Tile_space.make: dimension";
  let sys = combined_system space tiling in
  let projected =
    Poly.Fourier_motzkin.eliminate_all_but sys ~dim:(2 * n)
      ~keep:(List.init n (fun i -> i))
  in
  (* restrict constraints to the first n coordinates *)
  let cs =
    List.map
      (fun c ->
        let coeffs = Array.init n (Constr.coeff c) in
        Constr.make ~coeffs ~const:(Constr.const c))
      projected
  in
  let poly = Polyhedron.make ~dim:n cs in
  let bbox = Polyhedron.bounding_box poly in
  { tiling; space; poly; bbox }

let candidates t = Polyhedron.points t.poly
let contains t s = Polyhedron.member t.poly s
let trip_count t k =
  let lo, hi = t.bbox.(k) in
  hi - lo + 1

(* P' = Q / den with integer Q and den > 0. *)
let scaled_p' (tiling : Tiling.t) =
  let den =
    Array.fold_left
      (fun acc row ->
        Array.fold_left
          (fun acc x -> Tiles_util.Ints.lcm acc (Rat.den x))
          acc row)
      1 tiling.p'
  in
  (den, Array.map (Array.map (fun x -> Rat.num x * (den / Rat.den x))) tiling.p')

(* Fast exact P'-application. *)
let global_applier (tiling : Tiling.t) =
  let n = tiling.n in
  let den, q = scaled_p' tiling in
  fun (scaled : int array) (dst : int array) ->
    for i = 0 to n - 1 do
      let acc = ref 0 in
      for j = 0 to n - 1 do
        acc := !acc + (q.(i).(j) * scaled.(j))
      done;
      assert (!acc mod den = 0);
      dst.(i) <- !acc / den
    done

let iter_slab_points t ~tile ~lo f =
  let tiling = t.tiling in
  let n = tiling.n in
  let apply = global_applier tiling in
  let scaled = Array.make n 0 in
  let j = Array.make n 0 in
  let base = Array.init n (fun k -> tiling.v.(k) * tile.(k)) in
  Ttis.iter_from tiling ~lo (fun j' ->
      for k = 0 to n - 1 do
        scaled.(k) <- base.(k) + j'.(k)
      done;
      apply scaled j;
      if Polyhedron.member t.space j then f ~local:j' ~global:j)

let iter_tile_points t ~tile f =
  iter_slab_points t ~tile ~lo:(Array.make t.tiling.Tiling.n 0) f

let tile_iterations t tile =
  let n = ref 0 in
  iter_tile_points t ~tile (fun ~local:_ ~global:_ -> incr n);
  !n

(* Exact clipped-slab point counting without enumerating points.

   The space constraints pull back to affine constraints over j': for a
   space constraint a·j + b >= 0 and j = P'(V·s + j') = Q(V·s + j')/den,
   the constraint becomes (a·Q)·j' + [(a·Q)·(V·s) + b·den] >= 0 — only the
   constant depends on the tile. A pulled constraint whose minimum over
   the slab box [max 0 lo_k, v_k − 1] is non-negative removes no point of
   the box, so only the {e active} ones — those failing somewhere in the
   box — clip the slab, and the count depends on the tile only through
   their constants. A tile with no active constraint is interior: every
   TTIS point of the slab is an iteration. *)
type pullback = {
  w : int array array;  (* a_i·Q per space constraint *)
  bden : int array;  (* b_i·den *)
  boxmin : int array;  (* min of w_i·j' over the slab box *)
  blo : int array;  (* the slab box [blo, bhi] *)
  bhi : int array;
}

let pullback t ~lo =
  let tiling = t.tiling in
  let n = tiling.Tiling.n in
  let den, q = scaled_p' tiling in
  let cs = Array.of_list (Polyhedron.constraints t.space) in
  let w =
    Array.map
      (fun c ->
        Array.init n (fun k ->
            let acc = ref 0 in
            for i = 0 to n - 1 do
              acc := !acc + (Constr.coeff c i * q.(i).(k))
            done;
            !acc))
      cs
  in
  let blo = Array.init n (fun k -> max 0 lo.(k)) in
  let bhi = Array.init n (fun k -> tiling.Tiling.v.(k) - 1) in
  let boxmin =
    Array.map
      (fun wi ->
        let acc = ref 0 in
        for k = 0 to n - 1 do
          acc := !acc + (wi.(k) * if wi.(k) > 0 then blo.(k) else bhi.(k))
        done;
        !acc)
      w
  in
  { w; bden = Array.map (fun c -> Constr.const c * den) cs; boxmin; blo; bhi }

(* The active constraints of [tile] as (index, tile constant) pairs, in
   index order. *)
let active pb (tiling : Tiling.t) tile =
  let acc = ref [] in
  for i = Array.length pb.w - 1 downto 0 do
    let wi = pb.w.(i) in
    let c = ref pb.bden.(i) in
    for k = 0 to tiling.n - 1 do
      c := !c + (wi.(k) * tiling.v.(k) * tile.(k))
    done;
    if !c + pb.boxmin.(i) < 0 then acc := (i, !c) :: !acc
  done;
  !acc

(* Lattice points of the slab box satisfying the given pulled constraints:
   project with Fourier–Motzkin and enumerate only the outer n-1
   dimensions (stride-aligned); the innermost dimension contributes an
   arithmetic range count. Exact because the innermost level uses the
   original (unprojected) constraints. *)
let count_clipped t pb act =
  let module FM = Tiles_poly.Fourier_motzkin in
  let module Lattice = Tiles_linalg.Lattice in
  let module Ints = Tiles_util.Ints in
  let tiling = t.tiling in
  let n = tiling.Tiling.n in
  let box =
    List.concat
      (List.init n (fun k ->
           [
             Constr.lower_bound_var n k pb.blo.(k);
             Constr.upper_bound_var n k pb.bhi.(k);
           ]))
  in
  let sys =
    List.map (fun (i, const) -> Constr.make ~coeffs:pb.w.(i) ~const) act @ box
  in
  let proj = FM.project sys ~dim:n in
  let j' = Array.make n 0 in
  let rec go k acc =
    match FM.bounds proj ~var:k ~prefix:j' with
    | None -> acc
    | Some (blo, bhi) ->
      let residue = Lattice.first_in_residue tiling.Tiling.lattice k j' in
      let c = tiling.Tiling.c.(k) in
      let start = residue + (c * Ints.cdiv (blo - residue) c) in
      if start > bhi then acc
      else if k = n - 1 then acc + (((bhi - start) / c) + 1)
      else begin
        let acc = ref acc in
        let x = ref start in
        while !x <= bhi do
          j'.(k) <- !x;
          acc := go (k + 1) !acc;
          x := !x + c
        done;
        !acc
      end
  in
  go 0 0

let slab_points t ~tile ~lo =
  let pb = pullback t ~lo in
  match active pb t.tiling tile with
  | [] -> Ttis.count_from t.tiling ~lo
  | act -> count_clipped t pb act

let slab_counter t ~lo =
  let pb = pullback t ~lo in
  let interior = Ttis.count_from t.tiling ~lo in
  let memo = Hashtbl.create 64 and lock = Mutex.create () in
  fun tile ->
    match active pb t.tiling tile with
    | [] -> interior
    | act -> (
      match Mutex.protect lock (fun () -> Hashtbl.find_opt memo act) with
      | Some count -> count
      | None ->
        (* counted outside the lock: a racing domain computes the same
           value, so the later [replace] is harmless *)
        let count = count_clipped t pb act in
        Mutex.protect lock (fun () -> Hashtbl.replace memo act count);
        count)
