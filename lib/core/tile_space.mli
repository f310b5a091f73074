(** The Tile Space [J^S = {⌊H·j⌋ | j ∈ J^n}] and its loop bounds.

    Following ref [7], the exact characterisation
    [v_kk·j^S_k <= h'_k·j <= v_kk·j^S_k + v_kk − 1] is joined with the
    constraints of [J^n] in a [2n]-variable system and the [j] variables
    are eliminated by Fourier–Motzkin, leaving a polyhedron over [j^S]
    whose integer points are the candidate tiles. The projection is a
    rational relaxation, so a few boundary candidates may contain no
    iteration; they stay in the protocol (both communication end-points
    agree on the same candidate set) and simply execute zero iterations. *)

type t = private {
  tiling : Tiling.t;
  space : Tiles_poly.Polyhedron.t;  (** [J^n] *)
  poly : Tiles_poly.Polyhedron.t;   (** candidate tiles over [j^S] *)
  bbox : (int * int) array;         (** per-dimension tile index range *)
}

val make : Tiles_poly.Polyhedron.t -> Tiling.t -> t

val candidates : t -> Tiles_util.Vec.t list
(** All candidate tiles, lexicographic. *)

val contains : t -> Tiles_util.Vec.t -> bool
(** Candidate-tile membership — the paper's [valid()] predicate. *)

val trip_count : t -> int -> int
(** [trip_count t k] — number of tile indices along dimension [k]
    (bounding-box width); §3.1 maps the dimension with the maximum trip
    count to the same processor. *)

val tile_iterations : t -> Tiles_util.Vec.t -> int
(** Exact number of iterations [j ∈ J^n] inside a given tile (enumerates
    the TTIS and clips against [J^n]). *)

val iter_tile_points :
  t -> tile:Tiles_util.Vec.t -> (local:Tiles_util.Vec.t -> global:Tiles_util.Vec.t -> unit) -> unit
(** Enumerate the iterations of one tile: for each TTIS point [j'] whose
    global image [j] lies in [J^n], call the function with both (reused
    buffers). Lexicographic in [j']. *)

val iter_slab_points :
  t ->
  tile:Tiles_util.Vec.t ->
  lo:int array ->
  (local:Tiles_util.Vec.t -> global:Tiles_util.Vec.t -> unit) ->
  unit
(** Like {!iter_tile_points} but restricted to the slab
    [j'_k >= lo.(k)] — the §3.2 pack/unpack loops. Clipping against
    [J^n] is what makes the boundary-tile "corrected bounds" of the paper:
    only real iterations are communicated, so the rectangular and
    non-rectangular variants move exactly the same data. *)

val slab_points : t -> tile:Tiles_util.Vec.t -> lo:int array -> int
(** Number of points {!iter_slab_points} would visit, without enumerating
    them. The space constraints are pulled back onto TTIS coordinates,
    where only their constants depend on the tile; a constraint is
    {e active} when it fails somewhere in the slab box
    [[max 0 lo_k, v_kk − 1]] (an exact integer test). With no active
    constraint the tile is interior and the count is the unclipped
    {!Ttis.count_from}; otherwise the active constraints are projected
    with Fourier–Motzkin and counted row by row. *)

val slab_counter : t -> lo:int array -> Tiles_util.Vec.t -> int
(** [slab_counter t ~lo] is [fun tile -> slab_points t ~tile ~lo], with
    the tile-independent work done once: the pullback, the interior
    count, and a memo of the clipped counts keyed by the active
    constraints' (index, constant) pairs — tiles clipped by the same
    faces at the same offsets share one count. Build it once per slab
    origin and share it; it is safe to call from several domains at
    once (the memo is guarded by a mutex). *)
