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

(* Lines bounding the innermost coordinate, x = (u·i + w)/d with d > 0,
   as affine functions of the step index i of the level above: [n] of
   them in struct-of-arrays form, sized once per count. *)
type lines = { u : int array; w : int array; d : int array; mutable n : int }

let lines cap =
  { u = Array.make cap 0; w = Array.make cap 0; d = Array.make cap 0; n = 0 }

(* Lattice points (x_{n-2}, x_{n-1}) satisfying [cs] once x_0..x_{n-3}
   are fixed in [j'], in closed form. With x_{n-2} = start + c_{n-2}·i,
   each constraint becomes a lower or an upper line of x_{n-1} in i, or a
   bound on i itself; the lattice residue of x_{n-1} drifts as
   (α + β·i) mod c_{n-1} with β = h'~_{n-1,n-2}. Between the integer
   floors of the pairwise crossings of the lower lines (and of the upper
   ones) one lower and one upper line are active; where the upper is at
   least the lower, row i holds ⌊(U−r)/c⌋ − ⌊(L−1−r)/c⌋ points. The
   nested floors fold into one floor of an affine function of i each and
   the ⌊(α+βi)/c⌋ terms cancel, leaving two floor sums per piece.
   [lo], [up] and [cuts] are work buffers. *)
let count_last_two (tiling : Tiling.t) pb cs ~lo ~up ~cuts j' =
  let module Lattice = Tiles_linalg.Lattice in
  let module Ints = Tiles_util.Ints in
  let ( +! ) = Ints.add_exn and ( *! ) = Ints.mul_exn in
  let ( -! ) a b = a +! -b in
  let n = tiling.n in
  let k2 = n - 2 and k1 = n - 1 in
  let c2 = tiling.c.(k2) and c1 = tiling.c.(k1) in
  let residue = Lattice.first_in_residue tiling.lattice k2 j' in
  let start = residue + (c2 * Ints.cdiv (pb.blo.(k2) - residue) c2) in
  if start > pb.bhi.(k2) then 0
  else begin
    j'.(k2) <- start;
    let alpha = Lattice.first_in_residue tiling.lattice k1 j' in
    let beta = tiling.hnf.(k1).(k2) in
    let ilo = ref 0 and ihi = ref ((pb.bhi.(k2) - start) / c2) in
    let push l u w d =
      l.u.(l.n) <- u;
      l.w.(l.n) <- w;
      l.d.(l.n) <- d;
      l.n <- l.n + 1
    in
    lo.n <- 0;
    up.n <- 0;
    Array.iter
      (fun cstr ->
        let e = ref (Constr.const cstr) in
        for k = 0 to k2 - 1 do
          e := !e +! (Constr.coeff cstr k *! j'.(k))
        done;
        (* a·x_{n-1} + b·i + e >= 0 *)
        let a = Constr.coeff cstr k1 and b = Constr.coeff cstr k2 *! c2 in
        let e = !e +! (Constr.coeff cstr k2 *! start) in
        if a > 0 then push lo (-b) (-e) a
        else if a < 0 then push up b e (-a)
        else if b > 0 then ilo := max !ilo (Ints.cdiv (-e) b)
        else if b < 0 then ihi := min !ihi (Ints.fdiv e (-b))
        else if e < 0 then ihi := -1)
      cs;
    (* the last i at which two lines keep their order from i → −∞,
       inside [ilo, ihi), insertion-sorted *)
    let ncuts = ref 0 in
    let add_cuts l =
      for p = 0 to l.n - 1 do
        for q = 0 to l.n - 1 do
          let dd = (l.u.(p) *! l.d.(q)) -! (l.u.(q) *! l.d.(p)) in
          if dd > 0 then begin
            let f =
              Ints.fdiv ((l.w.(q) *! l.d.(p)) -! (l.w.(p) *! l.d.(q))) dd
            in
            if f >= !ilo && f < !ihi then begin
              let j = ref !ncuts in
              while !j > 0 && cuts.(!j - 1) > f do
                cuts.(!j) <- cuts.(!j - 1);
                decr j
              done;
              cuts.(!j) <- f;
              incr ncuts
            end
          end
        done
      done
    in
    add_cuts lo;
    add_cuts up;
    (* the line of [l] that [better] prefers at i, its values compared
       across denominators exactly *)
    let pick l i better =
      let best = ref 0 in
      for p = 1 to l.n - 1 do
        let vp = ((l.u.(p) *! i) +! l.w.(p)) *! l.d.(!best)
        and vb = ((l.u.(!best) *! i) +! l.w.(!best)) *! l.d.(p) in
        if better vp vb then best := p
      done;
      !best
    in
    (* Σ ⌊(u·i + w − δ − d·(α + β·i))/(d·c1)⌋ over i ∈ [a1, b1] *)
    let sum l p delta a1 b1 =
      let u = l.u.(p) and d = l.d.(p) in
      let slope = u -! (d *! beta) in
      let const = l.w.(p) -! delta -! (d *! alpha) in
      Ints.floor_sum ~n:(b1 - a1 + 1) ~m:(d *! c1) ~a:slope
        ~b:((slope *! a1) +! const)
    in
    let piece a0 b0 =
      let pl = pick lo a0 ( > ) and pu = pick up a0 ( < ) in
      (* upper >= lower ⟺ i·(U·dl − L·du) >= wl·du − wu·dl *)
      let dd = (up.u.(pu) *! lo.d.(pl)) -! (lo.u.(pl) *! up.d.(pu)) in
      let e = (lo.w.(pl) *! up.d.(pu)) -! (up.w.(pu) *! lo.d.(pl)) in
      let a1, b1 =
        if dd > 0 then (max a0 (Ints.cdiv e dd), b0)
        else if dd < 0 then (a0, min b0 (Ints.fdiv e dd))
        else if e <= 0 then (a0, b0)
        else (a0, a0 - 1)
      in
      if a1 > b1 then 0 else sum up pu 0 a1 b1 -! sum lo pl 1 a1 b1
    in
    if !ilo > !ihi then 0
    else begin
      (* the slab box bounds x_{n-1} on both sides *)
      assert (lo.n > 0 && up.n > 0);
      let total = ref 0 and a0 = ref !ilo in
      for c = 0 to !ncuts - 1 do
        if cuts.(c) >= !a0 then begin
          total := !total +! piece !a0 cuts.(c);
          a0 := cuts.(c) + 1
        end
      done;
      !total +! piece !a0 !ihi
    end
  end

(* Lattice points of the slab box satisfying the given pulled constraints:
   project with Fourier–Motzkin and walk the outer n-2 dimensions
   (stride-aligned) on the projected bounds, which keep them inside the
   slab box; the last two levels are counted in closed form on the
   original constraints (the active ones and x_{n-1}'s box), so the count
   is exact. *)
let count_clipped t pb act =
  let module FM = Tiles_poly.Fourier_motzkin in
  let module Lattice = Tiles_linalg.Lattice in
  let module Ints = Tiles_util.Ints in
  let tiling = t.tiling in
  let n = tiling.Tiling.n in
  let box k =
    [
      Constr.lower_bound_var n k pb.blo.(k);
      Constr.upper_bound_var n k pb.bhi.(k);
    ]
  in
  let act =
    List.map (fun (i, const) -> Constr.make ~coeffs:pb.w.(i) ~const) act
  in
  (* read only by the outer walk, which 2-D slabs skip *)
  let proj =
    lazy (FM.project (act @ List.concat_map box (List.init n Fun.id)) ~dim:n)
  in
  let tail = Array.of_list (act @ box (n - 1)) in
  let cap = Array.length tail in
  let lo = lines cap and up = lines cap and cuts = Array.make (cap * cap) 0 in
  let j' = Array.make n 0 in
  let rec go k acc =
    if k = n - 2 then acc + count_last_two tiling pb tail ~lo ~up ~cuts j'
    else
      match FM.bounds (Lazy.force proj) ~var:k ~prefix:j' with
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
