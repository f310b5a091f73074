(** Sequential tiled code generation (§2.3, after ref [7]).

    Emits a standalone C program that executes the kernel over the tiled
    iteration space as a [2n]-deep loop nest: [n] outer loops over tile
    coordinates with Fourier–Motzkin bounds, and [n] inner loops over the
    TTIS with strides [c_k] and lattice start offsets. Boundary tiles are
    handled by an [in_space] guard (the paper's "corrected bounds").

    The iteration space may carry symbolic size parameters (§2.1's
    parameterized bounds): the emitted program takes the parameter
    values on its command line, computes the data-space extents and all
    tile-loop bounds at runtime from Fourier–Motzkin systems in which the
    parameters are ordinary leading variables, and runs the same tiled
    sweep. One compiled binary therefore serves every problem size. A
    concrete space is the zero-parameter case
    ({!Tiles_poly.Pspace.of_polyhedron}); its program takes no arguments.

    A parameter that is not a whole decimal [int], or a wrong argument
    count, prints the usage line and exits 2; a data space whose byte
    count overflows or cannot be allocated prints a message and exits 1.
    Otherwise the program prints [points <count>] and [checksum <sum>] so
    its output can be validated against the OCaml reference executor. *)

val generate :
  pspace:Tiles_poly.Pspace.t ->
  tiling:Tiles_core.Tiling.t ->
  kernel:Ckernel.t ->
  reads:Tiles_util.Vec.t list ->
  ?skew:Tiles_linalg.Intmat.t ->
  unit ->
  string
(** [pspace] is the (already skewed, if applicable) parametric iteration
    space; [reads] are in its coordinates; [skew] only affects how the
    kernel body's original-coordinate macros are computed. Raises
    [Invalid_argument] on dimension mismatches and [Failure] if a bound
    is unbounded. *)
