(** Convex polyhedra as conjunctions of affine inequalities — the iteration
    spaces [J^n] of the paper (always bounded in practice). *)

type t

val make : dim:int -> Constr.t list -> t
val dim : t -> int
val constraints : t -> Constr.t list
val add : t -> Constr.t -> t
val inter : t -> t -> t

val box : (int * int) list -> t
(** [box [(l1,u1); …]] is the rectangular space [l_i <= x_i <= u_i]. *)

val member : t -> Tiles_util.Vec.t -> bool

val is_empty_rational : t -> bool
(** Emptiness of the rational relaxation (Fourier–Motzkin to the ground).
    Sound for declaring integer emptiness; may report non-empty for systems
    with rational but no integer points. *)

val bounding_box : t -> (int * int) array
(** Per-variable [lo, hi] over the rational relaxation (integer-tightened).
    Raises [Failure] if some direction is unbounded. *)

val projection : t -> Fourier_motzkin.projection
(** Cached projection chain for loop-style enumeration. *)

val iter_rows : t -> (Tiles_util.Vec.t -> int -> unit) -> unit
(** [iter_rows p f] calls [f x len] once per innermost row, in
    lexicographic order: the row holds the [len >= 1] points
    [x], [x + e_(n-1)], …, [x + (len-1)·e_(n-1)], all of them in [p].
    Rows come from the outer levels of the cached {!projection}; the
    innermost range needs no membership test, because the innermost level
    of the chain is the original (unprojected) system. [x] is a buffer
    reused between calls: [f] may overwrite its last coordinate but must
    leave the others alone, and must copy it to keep it. *)

val iter_points : t -> (Tiles_util.Vec.t -> unit) -> unit
(** Enumerate all integer points in lexicographic order, by expanding
    {!iter_rows}. The callback receives a buffer that is reused between
    calls; copy it if you keep it. *)

val fold_points : t -> init:'a -> f:('a -> Tiles_util.Vec.t -> 'a) -> 'a
val count_points : t -> int
(** Number of integer points, without visiting them: the sum of the
    {!iter_rows} lengths. *)

val points : t -> Tiles_util.Vec.t list
(** Materialised (copied) points, lexicographic order. *)

val transform_unimodular : Tiles_linalg.Intmat.t -> t -> t
(** [transform_unimodular t p] is the image [{t·x | x ∈ p}] for unimodular
    [t] (used for loop skewing). Raises [Invalid_argument] if [t] is not
    unimodular. *)

val pp : Format.formatter -> t -> unit
