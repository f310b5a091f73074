(** Parameterized convex iteration spaces (§2.1: bounds are affine in
    symbolic size parameters such as M and N).

    A parametric space over [dim] iteration variables and [p] parameters
    is a constraint system over [p + dim] variables with the parameters
    occupying the leading indices. Because Fourier–Motzkin projections
    keep leading variables, all the loop-bound machinery works unchanged:
    the bounds of iteration variable [k] come out affine in the
    parameters and the outer iteration variables — exactly what a
    parametric code generator needs to print.

    [instantiate] substitutes concrete parameter values and yields an
    ordinary {!Polyhedron} for execution and verification. *)

type t = private {
  params : string array;
  dim : int;
  cs : Constr.t list;  (** over [nparams + dim] variables, parameters first *)
}

val make : params:string list -> dim:int -> Constr.t list -> t
(** Raises [Invalid_argument] on dimension mismatches or duplicate
    parameter names. *)

val nparams : t -> int

val of_polyhedron : Polyhedron.t -> t
(** A concrete space as a zero-parameter one. *)

val param_coeff_ge : t -> var:int -> params:(string * int) list -> const:int -> Constr.t
(** Convenience constructor: the constraint
    [x_var >= const + Σ coeff·param] expressed in this space's variable
    numbering (iteration variable [var] is index [nparams + var]). *)

val param_coeff_le : t -> var:int -> params:(string * int) list -> const:int -> Constr.t

val add : t -> Constr.t -> t

val box :
  params:string list ->
  (((string * int) list * int) * ((string * int) list * int)) list ->
  t
(** [box ~params [ ((lo_params, lo_c), (hi_params, hi_c)); … ]] — one
    entry per iteration variable: [lo_c + Σ coeff·param <= x_k <= hi_c +
    Σ coeff·param]. *)

val instantiate : t -> int list -> Polyhedron.t
(** Substitute concrete parameter values (in declaration order). *)

val transform_unimodular : Tiles_linalg.Intmat.t -> t -> t
(** Skew the {e iteration} variables (parameters are untouched). *)

val projection : t -> Fourier_motzkin.projection
(** Projection chain over the full [nparams + dim] variable list;
    parameters are never eliminated, so iteration variable [k]'s system
    is at index [nparams + k]. *)

val var_bounds_system : t -> var:int -> Constr.t list
(** Constraints bounding iteration variable [var] in terms of the
    parameters only (all other iteration variables eliminated) — used to
    compute data-space extents at runtime in generated code. *)
