(** Reference sequential execution of a kernel over its iteration space in
    lexicographic order — the paper's "original program", both the
    correctness oracle for the distributed executor and the baseline of
    the speedup measurements.

    Two walks back the variants of {!Walker.variant}. [Reference] is the
    original per-point loop ([Polyhedron.iter_points], a membership test
    per tap, bounds-checked [Grid] accesses). [Fastpath] and [Native]
    walk the rows of {!Tiles_poly.Polyhedron.iter_rows}: each row's exact
    interior span — the steps at which every tap reads inside the space —
    comes from one division per constraint, runs unguarded through the
    kernel's OCaml row body (or [compute]) and is framed by a guarded
    prefix and suffix. Both walks visit the space in the same
    lexicographic order, so results are bit-for-bit identical.

    The oracle is OCaml only: [Native] runs the same OCaml rows as
    [Fastpath] and never the compiled C row kernel, so the native
    walker's results are checked against code that shares none of its
    arithmetic. *)

val run :
  ?variant:Walker.variant ->
  ?check:bool ->
  space:Tiles_poly.Polyhedron.t ->
  kernel:Kernel.t ->
  unit ->
  Grid.t
(** [variant] defaults to {!Walker.Fastpath}; [check] (default false)
    makes the fast variants validate reads against NaN poisoning (and
    disables the unrolled row bodies so every read is inspected — an
    interior span wider than the true one then surfaces as a NaN read
    of a cell outside the space). *)

val modelled_time :
  space:Tiles_poly.Polyhedron.t -> net:Tiles_mpisim.Netmodel.t -> float
(** Virtual sequential execution time under the cluster's cost model:
    [|J^n| · flop_time]. *)
