module Pspace = Tiles_poly.Pspace
module Constr = Tiles_poly.Constr
module FM = Tiles_poly.Fourier_motzkin
module Tiling = Tiles_core.Tiling
module Intmat = Tiles_linalg.Intmat
open C_ast

(* C identifier for a parameter *)
let cname p = "P_" ^ p

(* Constraints over (params, j^S, j): the parametric analogue of
   Tile_space.combined_system. Variable layout: p parameters, then n tile
   coordinates, then n iteration coordinates. *)
let combined_system (pspace : Pspace.t) (tiling : Tiling.t) =
  let p = Pspace.nparams pspace in
  let n = tiling.Tiling.n in
  let lift c =
    (* pspace constraints are over (params, j); insert the j^S block *)
    let coeffs = Array.make (p + (2 * n)) 0 in
    for i = 0 to p - 1 do
      coeffs.(i) <- Constr.coeff c i
    done;
    for i = 0 to n - 1 do
      coeffs.(p + n + i) <- Constr.coeff c (p + i)
    done;
    Constr.make ~coeffs ~const:(Constr.const c)
  in
  let band k =
    let lo = Array.make (p + (2 * n)) 0 and hi = Array.make (p + (2 * n)) 0 in
    for i = 0 to n - 1 do
      lo.(p + n + i) <- tiling.Tiling.h'.(k).(i);
      hi.(p + n + i) <- -tiling.Tiling.h'.(k).(i)
    done;
    lo.(p + k) <- -tiling.Tiling.v.(k);
    hi.(p + k) <- tiling.Tiling.v.(k);
    [ Constr.make ~coeffs:lo ~const:0;
      Constr.make ~coeffs:hi ~const:(tiling.Tiling.v.(k) - 1) ]
  in
  List.map lift pspace.Pspace.cs @ List.concat (List.init n band)

let generate ~pspace ~tiling ~kernel ~reads ?skew () =
  let n = Tiling.dim tiling in
  let p = Pspace.nparams pspace in
  if pspace.Pspace.dim <> n then invalid_arg "Pseqgen.generate: dimension";
  if List.length reads <> kernel.Ckernel.nreads then
    invalid_arg "Pseqgen.generate: reads count differs from kernel.nreads";
  let skew = match skew with Some s -> s | None -> Intmat.identity n in
  (* name resolution for expressions over (params, j^S): indices < p are
     parameters, the rest are tile-loop variables *)
  let sname idx =
    if idx < p then cname pspace.Pspace.params.(idx)
    else Printf.sprintf "s[%d]" (idx - p)
  in
  (* tile-space projection: eliminate the n iteration variables *)
  let tile_sys =
    FM.eliminate_all_but
      (combined_system pspace tiling)
      ~dim:(p + (2 * n))
      ~keep:(List.init (p + n) (fun i -> i))
  in
  let restrict c =
    Constr.make
      ~coeffs:(Array.init (p + n) (Constr.coeff c))
      ~const:(Constr.const c)
  in
  let tile_proj = FM.project (List.map restrict tile_sys) ~dim:(p + n) in
  (* parametric in_space over (params, j) *)
  let pn = p + n in
  let space_tables =
    Emit_common.constraint_tables "SP" pspace.Pspace.cs pn
    @ [
        Printf.sprintf "#define NPAR %d" p;
        "static int PAR[NPAR > 0 ? NPAR : 1];";
        {|/* is j inside the parameterized iteration space? */
static int in_space(const int *j) {
  int c, k; long acc;
  for (c = 0; c < SPNC; c++) {
    acc = SPB[c];
    for (k = 0; k < NPAR; k++) acc += (long)SPA[c][k] * PAR[k];
    for (k = 0; k < NDIM; k++) acc += (long)SPA[c][NPAR + k] * j[k];
    if (acc < 0) return 0;
  }
  return 1;
}|};
      ]
  in
  (* parameter name aliases so printed bound expressions compile *)
  let param_aliases =
    List.init p (fun i ->
        Printf.sprintf "#define %s (PAR[%d])" (cname pspace.Pspace.params.(i)) i)
  in
  let prelude =
    Emit_common.core_tables ~tiling ~kernel ~skew ~reads
    @ space_tables @ param_aliases
    @ [
        "/* data-space extents, computed at runtime from the parameters */";
        "static int GLO[NDIM], GDIMS[NDIM];";
        "static long GTOT;";
        {|static long gidx(const int *j) {
  int k; long idx = 0;
  for (k = 0; k < NDIM; k++) idx = idx * GDIMS[k] + (j[k] - GLO[k]);
  return idx;
}|};
        "static double *DATA;";
        {|/* one size parameter: a whole decimal int and nothing else */
static int parse_param(const char *s, int *out) {
  char *end; long v;
  errno = 0;
  v = strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < INT_MIN || v > INT_MAX)
    return 0;
  *out = (int)v;
  return 1;
}|};
        {|/* GTOT = prod GDIMS cells of W doubles each; 0 when the byte count
   overflows or malloc fails */
static int alloc_data(void) {
  int k;
  GTOT = 1;
  for (k = 0; k < NDIM; k++) {
    if (GDIMS[k] <= 0) { GTOT = 0; break; }
    if (GTOT > LONG_MAX / GDIMS[k]) return 0;
    GTOT *= GDIMS[k];
  }
  if ((size_t)GTOT > SIZE_MAX / (W * sizeof(double))) return 0;
  DATA = (double *)malloc(GTOT > 0 ? (size_t)GTOT * W * sizeof(double) : 1);
  return DATA != NULL;
}|};
      ]
    @ Emit_common.strength_helpers
    @ [
        "#define RD(i, f) rd_sr(j, gi, (i), (f))";
        "#define WR(f) out[(f)]";
        "#define J(k) jo[(k)]";
      ]
  in
  (* runtime extent computation per dimension *)
  let extent_stmts =
    List.concat
      (List.init n (fun k ->
           let cs = Pspace.var_bounds_system pspace ~var:k in
           let name idx =
             if idx < p then cname pspace.Pspace.params.(idx)
             else "GLO_unreachable"
           in
           let lo = Bounds.lower cs ~var:(p + k) ~name in
           let hi = Bounds.upper cs ~var:(p + k) ~name in
           [
             Assign (Raw (Printf.sprintf "GLO[%d]" k), lo);
             Assign
               ( Raw (Printf.sprintf "GDIMS[%d]" k),
                 Sub (Add (hi, Int 1), Raw (Printf.sprintf "GLO[%d]" k)) );
           ]))
  in
  let body_store =
    List.init kernel.Ckernel.width (fun f ->
        Assign
          ( Idx ("DATA", [ Add (Mul (Var "gi", Int kernel.Ckernel.width), Int f) ]),
            Idx ("out", [ Int f ]) ))
  in
  let kernel_body = List.map (fun l -> RawStmt l) kernel.Ckernel.body in
  let point_body =
    [
      If
        ( Call ("in_space", [ Var "j" ]),
          [ Expr (Call ("orig", [ Var "j"; Var "jo" ])); Comment "loop body" ]
          @ kernel_body @ body_store
          @ [ RawStmt "npoints++;" ],
          [] );
      Comment "strength-reduced step: addition-only j / flat-index update";
      RawStmt "for (k = 0; k < NDIM; k++) j[k] += JSTEP[k];";
      RawStmt "gi += GSTEP;";
    ]
  in
  (* innermost TTIS loop as a row: hoist global_of/gidx to the row start,
     then advance by constant deltas per point *)
  let last = n - 1 in
  let row_block =
    [
      RawStmt (Printf.sprintf "jp[%d] = ttis_start(%d, jp);" last last);
      If
        ( Cmp ("<=", Raw (Printf.sprintf "jp[%d]" last),
               Int (tiling.Tiling.v.(last) - 1)),
          [
            Expr (Call ("global_of", [ Var "s"; Var "jp"; Var "j" ]));
            RawStmt "gi = gidx(j);";
            For
              {
                var = Printf.sprintf "jp[%d]" last;
                lo = Raw (Printf.sprintf "jp[%d]" last);
                hi = Int (tiling.Tiling.v.(last) - 1);
                step = Int tiling.Tiling.c.(last);
                body = point_body;
              };
          ],
          [] );
    ]
  in
  let rec inner k body =
    if k < 0 then body
    else
      inner (k - 1)
        [
          For
            {
              var = Printf.sprintf "jp[%d]" k;
              lo = Call ("ttis_start", [ Int k; Var "jp" ]);
              hi = Int (tiling.Tiling.v.(k) - 1);
              step = Int tiling.Tiling.c.(k);
              body;
            };
        ]
  in
  let rec outer k body =
    if k < 0 then body
    else
      let cs = FM.system tile_proj ~var:(p + k) in
      outer (k - 1)
        [
          For
            {
              var = Printf.sprintf "s[%d]" k;
              lo = Bounds.lower cs ~var:(p + k) ~name:sname;
              hi = Bounds.upper cs ~var:(p + k) ~name:sname;
              step = Int 1;
              body;
            };
        ]
  in
  let checksum_loops =
    let rec go k body =
      if k < 0 then body
      else
        go (k - 1)
          [
            For
              {
                var = Printf.sprintf "jj[%d]" k;
                lo = Raw (Printf.sprintf "GLO[%d]" k);
                hi = Raw (Printf.sprintf "GLO[%d] + GDIMS[%d] - 1" k k);
                step = Int 1;
                body;
              };
          ]
    in
    go (n - 1)
      [
        If
          ( Call ("in_space", [ Var "jj" ]),
            [
              RawStmt
                "{ int f; for (f = 0; f < W; f++) sum += DATA[gidx(jj) * W + f]; }";
            ],
            [] );
      ]
  in
  let main =
    {
      ret = "int";
      name = "main";
      params = [ ("int", "argc"); ("char **", "argv") ];
      body =
        [
          Decl ("int", "s[NDIM]", None);
          Decl ("int", "jp[NDIM]", None);
          Decl ("int", "j[NDIM]", None);
          Decl ("int", "jo[NDIM]", None);
          Decl ("int", "jj[NDIM]", None);
          Decl ("int", "k", None);
          Decl ("long", "gi", None);
          Decl ("double", "out[W]", None);
          Decl ("long", "npoints", Some (Int 0));
          Decl ("double", "sum", Some (Flt 0.));
          RawStmt "k = 0;";
          RawStmt "if (argc == 1 + NPAR)";
          RawStmt "  while (k < NPAR && parse_param(argv[1 + k], &PAR[k])) k++;";
          RawStmt
            (Printf.sprintf
               "if (argc != 1 + NPAR || k < NPAR) { fprintf(stderr, \
                \"usage: %%s%s\\n\", argv[0]); return 2; }"
               (String.concat ""
                  (List.init p (fun i ->
                       " <" ^ pspace.Pspace.params.(i) ^ ">"))));
          Comment "data-space extents from the parameters";
        ]
        @ extent_stmts
        @ [
            RawStmt
              "if (!alloc_data()) { fprintf(stderr, \"%s: cannot allocate \
               the data space\\n\", argv[0]); return 1; }";
            RawStmt "strength_init();";
            Comment "tile loops (parametric Fourier-Motzkin bounds), then TTIS";
          ]
        @ outer (n - 1) (inner (n - 2) row_block)
        @ [ Comment "verification output" ]
        @ checksum_loops
        @ [
            RawStmt "printf(\"points %ld\\n\", npoints);";
            RawStmt "printf(\"checksum %.10e\\n\", sum);";
            RawStmt "free(DATA);";
            Return (Some (Int 0));
          ];
    }
  in
  program
    ~includes:
      [ "stdio.h"; "stdlib.h"; "stdint.h"; "limits.h"; "errno.h"; "math.h" ]
    ~prelude [ main ]
