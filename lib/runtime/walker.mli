(** The compiled tile-execution engine (§2.3, Tables 1–2).

    A walker is built once per (plan, kernel, rank, chain length) and
    precomputes everything the per-point protocol body used to re-derive
    at every iteration: the TTIS→LDS linear-index strides, the
    tile-relative LDS base shift, the integer numerator [Q/den] of [P'],
    the per-innermost-step global-coordinate delta, and — per row — a
    flat [int array] of linear read-offset deltas for each stencil tap.
    The hot loop is then pure unsafe indexing on the local array
    (an unboxed {!Tiles_util.Fbuf.t}) with index increments: no [Vec]
    allocation, no [Lds.map], no bounds re-derivation.

    Enumeration happens row-wise: the space constraints are pulled back
    onto TTIS coordinates (tile-dependent constants only), projected
    with Fourier–Motzkin, and walked with residue-aligned strides
    exactly as {!Tiles_core.Tile_space.slab_points} counts them — the innermost
    level of the projection chain is the original system, so every
    aligned point of a row is a member and rows need no per-point
    membership test. The enumeration order is lexicographic ascending,
    identical to the reference walker's, so pack buffers are filled in
    the same order and results are bit-for-bit equal. *)

type variant =
  | Reference
      (** the original per-point walker ([Lds.map] + bounds-checked
          indexing per tap); always validates against NaN reads.
          Kept as the correctness oracle. *)
  | Fastpath
      (** row enumeration with precomputed linear indices: contiguous-row
          blit pack/unpack, unguarded reads on interior row segments, and
          the kernel's unrolled [row] body there (width-1 kernels). The
          default. *)
  | Native
      (** [Fastpath] whose per-row work runs in a C-compiled,
          [dlopen]'d kernel built at plan time from the kernel's
          [ckernel] body ({!Native_kernel}). Falls back to [Fastpath]
          behaviour — recording the reason — when no C compiler is
          available, the kernel carries no C body, or [check] is set
          (NaN validation needs the OCaml read path). *)

val variant_to_string : variant -> string

val variant_of_string : string -> variant option
(** Accepts ["reference"], ["fast"], ["native"]. *)

val all_variants : variant list

type t

val make :
  plan:Tiles_core.Plan.t ->
  kernel:Kernel.t ->
  rank:int ->
  ntiles:int ->
  variant:variant ->
  check:bool ->
  unit ->
  t
(** [check] makes the fast variants validate every LDS read against NaN
    (uninitialised-cell poisoning) like the reference walker does; the
    fast variants skip the check — and become eligible for the unrolled
    row bodies — when it is false. [Reference] validates regardless.
    [Native] compiles (or loads from cache) its row kernel here. *)

val variant : t -> variant

val memo_entries : unit -> int
(** Number of process-wide compiled walk plans currently memoised. The
    memo key is the pulled-back constraint system and the tile box, so
    every rank of a plan shares one entry — exposed so tests can assert
    that. *)

val fallback_reason : t -> string option
(** [Some reason] when [Native] was requested but the walker is running
    the OCaml fast path instead (no compiler, no C body, check mode,
    compile/dlopen failure); [None] otherwise. *)

val lds_total : t -> int
(** Cells of the rank's local array ([Lds.shape] total); the backing
    buffer must have [lds_total * width] slots. *)

val compute_tile :
  t -> trel:int -> tile:Tiles_util.Vec.t -> la:Tiles_util.Fbuf.t -> int
(** Execute the kernel over the tile's clipped TTIS, reading/writing the
    local array. Returns the number of iteration points computed. *)

val pack_slab :
  t ->
  trel:int ->
  tile:Tiles_util.Vec.t ->
  lo:int array ->
  la:Tiles_util.Fbuf.t ->
  buf:Tiles_util.Fbuf.t ->
  int
(** Gather the clipped slab [j' >= lo] of the tile into [buf] in
    lexicographic TTIS order. Returns the number of cells packed. *)

val unpack_slab :
  t ->
  trel:int ->
  pred_tile:Tiles_util.Vec.t ->
  ds:Tiles_util.Vec.t ->
  lo:int array ->
  la:Tiles_util.Fbuf.t ->
  buf:Tiles_util.Fbuf.t ->
  int
(** Scatter a received slab (packed by the predecessor tile
    [pred_tile], arriving over tile dependence [ds]) into this rank's
    local array. Returns the number of cells scattered. *)

val write_back :
  t ->
  trel:int ->
  tile:Tiles_util.Vec.t ->
  la:Tiles_util.Fbuf.t ->
  Grid.t ->
  unit
(** Copy the tile's computed points from the local array into the
    global grid (LDS → DS). *)
