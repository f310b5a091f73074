(** A dense global value store over the bounding box of an iteration
    space — the Data Space [DS] stand-in ([f_w] is the identity in all the
    paper's benchmarks). Cells start as NaN so that any protocol bug that
    reads a never-written cell poisons the results visibly.

    Storage is a flat unboxed {!Tiles_util.Fbuf.t} (1-D [float64]
    Bigarray): no per-element boxing, no GC write barrier, and the data
    pointer can be passed straight to native compiled kernels. *)

type t

val create : Tiles_poly.Polyhedron.t -> width:int -> t
val width : t -> int
val get : t -> Tiles_util.Vec.t -> int -> float
val set : t -> Tiles_util.Vec.t -> int -> float -> unit

val mem : t -> Tiles_util.Vec.t -> bool
(** Is the point inside the backing bounding box? Raises
    [Invalid_argument] when the point's rank differs from the grid's —
    a silent [true] (short point) or an index error escaping from array
    access (long point) would hide a protocol bug. *)

val index : t -> Tiles_util.Vec.t -> int -> int
(** [index t j field] — flat index of [field] at point [j] into [data].
    Bounds-checked per dimension (and rank-checked like {!mem}); raises
    [Invalid_argument] outside the bounding box. Because storage is a
    dense row-major box, the flat index is affine in [j]: walkers exploit
    this by computing [index] once per row and incrementing by a
    precomputed step. *)

val strides : t -> int array
(** Per-dimension flat-index strides, in slot units (field width folded
    in: moving by 1 in the last dimension moves [width t] slots). *)

val data : t -> Tiles_util.Fbuf.t
(** The raw backing store. Raw access is for the fast walkers
    that have validated their index arithmetic against [index]; everyone
    else should go through [get]/[set]. *)

val slots : t -> int
(** Total slots of the backing store ([cells * width]). *)

val boxed : t -> float array
(** Copy of the backing store as a boxed [float array] — the
    compatibility shim for code (the reference oracle) that still
    computes on boxed arrays. *)

val load_boxed : t -> float array -> unit
(** Overwrite the backing store from a boxed array of exactly [slots t]
    elements (the inverse shim of {!boxed}). *)

val max_abs_diff : t -> t -> Tiles_poly.Polyhedron.t -> float
(** Maximum absolute difference over the points of the given space (all
    fields). NaN in either operand at a space point yields [infinity];
    cells of the bounding box outside the space are ignored. Scans each
    row of {!Tiles_poly.Polyhedron.iter_rows} as one contiguous slot range
    per grid, bounds-checked at both ends. *)

val checksum : t -> Tiles_poly.Polyhedron.t -> float
(** Sum of all field values over the space, using Neumaier compensated
    summation. Guarantee: the result is faithful to the exact sum (one
    final rounding), so it does not depend on the order in which walker
    variants happened to write — or this function happens to visit — the
    cells; checksums of bit-identical grids compare equal across
    variants and traversal orders. Visits the cells row by row like
    {!max_abs_diff}, in lexicographic point order with fields innermost. *)
