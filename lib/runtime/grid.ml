module Polyhedron = Tiles_poly.Polyhedron
module Fbuf = Tiles_util.Fbuf
module A1 = Bigarray.Array1

type t = {
  width : int;
  lo : int array;
  dims : int array;
  strides : int array;
  data : Fbuf.t;
}

let create space ~width =
  if width <= 0 then invalid_arg "Grid.create: width";
  let bbox = Polyhedron.bounding_box space in
  let n = Array.length bbox in
  let lo = Array.map fst bbox in
  let dims = Array.map (fun (l, h) -> h - l + 1) bbox in
  let strides = Array.make n width in
  for k = n - 2 downto 0 do
    strides.(k) <- strides.(k + 1) * dims.(k + 1)
  done;
  let total = strides.(0) * dims.(0) in
  { width; lo; dims; strides; data = Fbuf.make total Float.nan }

let width t = t.width

let check_rank fn t j =
  if Array.length j <> Array.length t.lo then
    invalid_arg
      (Printf.sprintf "Grid.%s: point rank %d differs from grid rank %d" fn
         (Array.length j) (Array.length t.lo))

let index t j field =
  check_rank "index" t j;
  let idx = ref field in
  for k = 0 to Array.length t.lo - 1 do
    let x = j.(k) - t.lo.(k) in
    if x < 0 || x >= t.dims.(k) then invalid_arg "Grid: out of bounding box";
    idx := !idx + (t.strides.(k) * x)
  done;
  !idx

let get t j field = Fbuf.get t.data (index t j field)
let set t j field v = Fbuf.set t.data (index t j field) v
let strides t = t.strides
let data t = t.data
let slots t = Fbuf.length t.data

let mem t j =
  check_rank "mem" t j;
  let ok = ref true in
  for k = 0 to Array.length t.lo - 1 do
    let rel = j.(k) - t.lo.(k) in
    if rel < 0 || rel >= t.dims.(k) then ok := false
  done;
  !ok

let boxed t = Fbuf.to_array t.data

let load_boxed t a =
  if Array.length a <> Fbuf.length t.data then
    invalid_arg
      (Printf.sprintf "Grid.load_boxed: %d slots given, grid has %d"
         (Array.length a) (Fbuf.length t.data));
  Array.iteri (fun i v -> Fbuf.set t.data i v) a

(* Row-wise scans: a row of the space is a contiguous slot range of every
   grid (the last dimension has stride [width]), so [index] at the row's
   two end points bounds-checks the whole range and the slots in between
   are read in the same point-major, field-minor order a per-point walk
   would visit them. *)
let iter_row_slots grids space f =
  let n = Polyhedron.dim space in
  let jend = Array.make n 0 in
  Polyhedron.iter_rows space (fun j len ->
      Array.blit j 0 jend 0 n;
      jend.(n - 1) <- j.(n - 1) + len - 1;
      let starts =
        Array.map
          (fun g ->
            let s = index g j 0 in
            ignore (index g jend (g.width - 1));
            s)
          grids
      in
      f starts (len * grids.(0).width))

let max_abs_diff a b space =
  if a.width <> b.width then invalid_arg "Grid.max_abs_diff: widths differ";
  let worst = ref 0. in
  iter_row_slots [| a; b |] space (fun starts slots ->
      let ia = starts.(0) and ib = starts.(1) in
      for i = 0 to slots - 1 do
        let x = A1.unsafe_get a.data (ia + i)
        and y = A1.unsafe_get b.data (ib + i) in
        let d =
          if Float.is_nan x || Float.is_nan y then infinity
          else Float.abs (x -. y)
        in
        if d > !worst then worst := d
      done);
  !worst

(* Neumaier compensated summation: the running error term absorbs the
   low-order bits ordinary left-to-right addition drops, so the result is
   faithful to the exact sum well past double rounding noise and — the
   property walkers rely on — stable under any traversal order of the
   same multiset of values. *)
let checksum t space =
  let sum = ref 0. and comp = ref 0. in
  iter_row_slots [| t |] space (fun starts slots ->
      let i0 = starts.(0) in
      for i = 0 to slots - 1 do
        let x = A1.unsafe_get t.data (i0 + i) in
        let s = !sum +. x in
        if Float.abs !sum >= Float.abs x then
          comp := !comp +. ((!sum -. s) +. x)
        else comp := !comp +. ((x -. s) +. !sum);
        sum := s
      done);
  !sum +. !comp
