module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module Ints = Tiles_util.Ints
module Vec = Tiles_util.Vec
module A1 = Bigarray.Array1

(* The oracle deliberately computes on a boxed [float array] (addressed
   through [Grid.index]) and publishes the result via [Grid.load_boxed]:
   it shares no storage code with the fast paths, so a bug in the
   Bigarray migration cannot cancel out of a reference comparison. *)
let reference_run ~space ~kernel =
  let n = Polyhedron.dim space in
  let grid = Grid.create space ~width:kernel.Kernel.width in
  let data = Array.make (Grid.slots grid) Float.nan in
  let reads = Array.of_list kernel.Kernel.reads in
  let src = Array.make n 0 in
  let out = Array.make kernel.Kernel.width 0. in
  Polyhedron.iter_points space (fun j ->
      let read i field =
        let d = reads.(i) in
        for k = 0 to n - 1 do
          src.(k) <- j.(k) - d.(k)
        done;
        if Polyhedron.member space src then data.(Grid.index grid src field)
        else kernel.Kernel.boundary src field
      in
      kernel.Kernel.compute ~read ~j ~out;
      for f = 0 to kernel.Kernel.width - 1 do
        data.(Grid.index grid j f) <- out.(f)
      done);
  Grid.load_boxed grid data;
  grid

(* Fast sequential walk over the rows of {!Polyhedron.iter_rows}. The
   grid's dense row-major box makes each tap's slot delta a global
   constant, so a read whose source is known to lie in the space is pure
   index arithmetic.

   Tap spans: tap r of the point x reads x − d_r, which satisfies the
   constraint a·x + b >= 0 of the space exactly when a·x + b − a·d_r >= 0.
   Along a row x = j + s·e_(n-1) that is linear in s — base =
   a·j + b − a·d_r, slope = a_(n-1) — so one division per constraint
   gives the exact steps [lo_r, hi_r] of the row at which tap r reads
   inside the space. Only constraints with a·d_r > 0 are tested: the
   others hold at every tap of every point of the space. The row's
   interior span is the intersection of the tap spans (per constraint,
   base = a·j + b − max_r a·d_r: the arithmetic of
   [Walker.row_interior_span], on the untiled space). It runs unguarded,
   through the kernel's OCaml row body when it has one; the prefix and
   suffix around it read a tap from the grid inside its span and from
   the boundary function outside it.

   The oracle stays in OCaml on purpose: it checks the native walker, so
   running its rows through the same compiled C body would compare that
   body with itself. *)
let fast_run ~check ~space ~kernel =
  let n = Polyhedron.dim space in
  let width = kernel.Kernel.width in
  let grid = Grid.create space ~width in
  let gdata = Grid.data grid in
  let gstr = Grid.strides grid in
  let reads = Array.of_list kernel.Kernel.reads in
  let nrd = Array.length reads in
  (* slot delta of tap r: constant over the whole box *)
  let deltas =
    Array.map
      (fun d ->
        let acc = ref 0 in
        for k = 0 to n - 1 do
          acc := !acc - (gstr.(k) * d.(k))
        done;
        !acc)
      reads
  in
  (* per tap, the constraints it can leave, as (a, b − a·d_r) *)
  let cons =
    let cs =
      List.map
        (fun c -> (Array.init n (Constr.coeff c), Constr.const c))
        (Polyhedron.constraints space)
    in
    Array.map
      (fun d ->
        Array.of_list
          (List.filter_map
             (fun (a, b) ->
               let ad = Vec.dot a d in
               if ad > 0 then Some (a, b - ad) else None)
             cs))
      reads
  in
  let lo = Array.make nrd 0 and hi = Array.make nrd 0 in
  let src = Array.make n 0 in
  let out = Array.make width 0. in
  let row_body = if check then None else kernel.Kernel.row in
  let uses_j = kernel.Kernel.uses_j in
  let nan_error j r =
    failwith
      (Printf.sprintf
         "Seq_exec: read of uninitialised grid cell at iteration %s read %d"
         (Vec.to_string j) r)
  in
  (* guarded segment [a, b] of the row at [j] (slot [g0]) *)
  let guarded j g0 x0 a b =
    let s = ref a in
    let cur = ref (g0 + (a * width)) in
    let read r field =
      if !s >= lo.(r) && !s <= hi.(r) then begin
        let v = gdata.{!cur + deltas.(r) + field} in
        if check && Float.is_nan v then nan_error j r;
        v
      end
      else begin
        let d = reads.(r) in
        for k = 0 to n - 1 do
          src.(k) <- j.(k) - d.(k)
        done;
        kernel.Kernel.boundary src field
      end
    in
    while !s <= b do
      j.(n - 1) <- x0 + !s;
      kernel.Kernel.compute ~read ~j ~out;
      for f = 0 to width - 1 do
        gdata.{!cur + f} <- out.(f)
      done;
      cur := !cur + width;
      incr s
    done
  in
  (* interior segment [a, b]: every tap is in the space *)
  let interior j g0 x0 a b =
    match row_body with
    | Some rb ->
      (* width = 1 (enforced by Kernel.make), so slots = cells *)
      rb ~la:gdata ~dst:(g0 + a) ~taps:deltas ~len:(b - a + 1)
    | None ->
      let cur = ref (g0 + (a * width)) in
      let read r field =
        let v = A1.unsafe_get gdata (!cur + deltas.(r) + field) in
        if check && Float.is_nan v then nan_error j r;
        v
      in
      for s = a to b do
        if uses_j || check then j.(n - 1) <- x0 + s;
        kernel.Kernel.compute ~read ~j ~out;
        for f = 0 to width - 1 do
          A1.unsafe_set gdata (!cur + f) (Array.unsafe_get out f)
        done;
        cur := !cur + width
      done
  in
  Polyhedron.iter_rows space (fun j len ->
      let s0 = ref 0 and s1 = ref (len - 1) in
      for r = 0 to nrd - 1 do
        let l = ref 0 and h = ref (len - 1) in
        Array.iter
          (fun (a, b) ->
            let base = ref b in
            for k = 0 to n - 1 do
              base := !base + (a.(k) * j.(k))
            done;
            let slope = a.(n - 1) in
            if slope > 0 then l := max !l (Ints.cdiv (- !base) slope)
            else if slope < 0 then h := min !h (Ints.fdiv !base (-slope))
            else if !base < 0 then l := len)
          cons.(r);
        lo.(r) <- !l;
        hi.(r) <- !h;
        s0 := max !s0 !l;
        s1 := min !s1 !h
      done;
      let x0 = j.(n - 1) in
      let g0 = Grid.index grid j 0 in
      if !s0 > !s1 then guarded j g0 x0 0 (len - 1)
      else begin
        guarded j g0 x0 0 (!s0 - 1);
        interior j g0 x0 !s0 !s1;
        guarded j g0 x0 (!s1 + 1) (len - 1)
      end);
  grid

let run ?(variant = Walker.Fastpath) ?(check = false) ~space ~kernel () =
  if Polyhedron.dim space <> kernel.Kernel.dim then
    invalid_arg "Seq_exec.run: dimension";
  match variant with
  | Walker.Reference -> reference_run ~space ~kernel
  | Walker.Fastpath | Walker.Native -> fast_run ~check ~space ~kernel

let modelled_time ~space ~net =
  float_of_int (Polyhedron.count_points space)
  *. net.Tiles_mpisim.Netmodel.flop_time
