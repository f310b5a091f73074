(** Shared pieces of the sequential and MPI code generators: the static
    tables (tiling matrices, dependence offsets, space constraints) and
    the runtime helper functions (lattice start offsets, space membership,
    global-coordinate reconstruction) that both emitted programs need. *)

val int_table1 : string -> int array -> string
val int_table2 : string -> int array array -> string

val constraint_tables : string -> Tiles_poly.Constr.t list -> int -> string list
(** [[prefix]NC] count define plus [[prefix]A]/[[prefix]B] coefficient and
    constant tables for a constraint system over [n] variables. *)

val jstep : Tiles_core.Tiling.t -> int array
(** Global-space delta of one innermost TTIS increment, i.e.
    [c_{n-1} * Q[:,n-1] / QDEN].  Integral because [c_{n-1} * e_{n-1}] is
    the last HNF basis column; raises [Invalid_argument] otherwise. *)

val core_tables :
  tiling:Tiles_core.Tiling.t ->
  kernel:Ckernel.t ->
  skew:Tiles_linalg.Intmat.t ->
  reads:Tiles_util.Vec.t list ->
  string list
(** Space-independent prelude: NDIM/W/NRD defines, V/C/HNF/Q/QDEN/D/DP/
    TINV tables, [ttis_start], [global_of], [orig] and [boundary] (from
    the kernel's C body). [boundary] calls [in_space]-independent code;
    the space-membership test itself comes from {!space_tables} or a
    parametric equivalent. *)

val space_tables : Tiles_poly.Polyhedron.t -> string list
(** Concrete-space constraint tables plus the [in_space] helper. *)

val tables :
  plan:Tiles_core.Plan.t ->
  kernel:Ckernel.t ->
  skew:Tiles_linalg.Intmat.t ->
  reads:Tiles_util.Vec.t list ->
  string list
(** [space_tables] + [core_tables] for a concrete plan. *)

val strength_helpers : string list
(** Strength-reduced DATA addressing for the sequential generator:
    GS/GSTEP/DOFF tables with a runtime [strength_init()] (GDIMS may be
    parametric) and the flat-offset tap reader [rd_sr].  Must be emitted
    after GDIMS, the JSTEP table (from {!core_tables}) and [DATA]. *)
