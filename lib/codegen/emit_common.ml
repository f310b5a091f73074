module Plan = Tiles_core.Plan
module Tiling = Tiles_core.Tiling
module Polyhedron = Tiles_poly.Polyhedron
module Constr = Tiles_poly.Constr
module Ratmat = Tiles_linalg.Ratmat
module Intmat = Tiles_linalg.Intmat
module Rat = Tiles_rat.Rat

let int_table1 name a =
  Printf.sprintf "static const int %s[%d] = { %s };" name (Array.length a)
    (String.concat ", " (Array.to_list (Array.map string_of_int a)))

let int_table2 name m =
  let rows =
    Array.to_list
      (Array.map
         (fun r ->
           Printf.sprintf "{ %s }"
             (String.concat ", " (Array.to_list (Array.map string_of_int r))))
         m)
  in
  Printf.sprintf "static const int %s[%d][%d] = { %s };" name (Array.length m)
    (Array.length m.(0))
    (String.concat ", " rows)

(* P' = Q / QDEN with integer Q *)
let pprime_numerator (tiling : Tiling.t) =
  let den =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc x -> Tiles_util.Ints.lcm acc (Rat.den x)) acc row)
      1 tiling.Tiling.p'
  in
  let q =
    Array.map (Array.map (fun x -> Rat.num x * (den / Rat.den x))) tiling.Tiling.p'
  in
  (q, den)

let constraint_tables prefix cs n =
  let a = Array.of_list (List.map (fun c -> Array.init n (Constr.coeff c)) cs) in
  let b = Array.of_list (List.map Constr.const cs) in
  [
    Printf.sprintf "#define %sNC %d" prefix (Array.length a);
    int_table2 (prefix ^ "A") a;
    int_table1 (prefix ^ "B") b;
  ]

let space_tables space =
  let n = Polyhedron.dim space in
  constraint_tables "SP" (Polyhedron.constraints space) n
  @ [
      {|/* is j inside the iteration space J^n? */
static int in_space(const int *j) {
  int c, k; long acc;
  for (c = 0; c < SPNC; c++) {
    acc = SPB[c];
    for (k = 0; k < NDIM; k++) acc += (long)SPA[c][k] * j[k];
    if (acc < 0) return 0;
  }
  return 1;
}|};
    ]

(* global-space step of one innermost TTIS increment: moving j' by
   c_{n-1}·e_{n-1} (a lattice vector, the last HNF basis column) moves j by
   c_{n-1}·Q[:,n-1]/QDEN, which is therefore integral *)
let jstep (tiling : Tiling.t) =
  let n = Tiling.dim tiling in
  let q, qden = pprime_numerator tiling in
  let c = tiling.Tiling.c.(n - 1) in
  Array.init n (fun i ->
      let num = c * q.(i).(n - 1) in
      if num mod qden <> 0 then
        invalid_arg "Emit_common.jstep: non-integral innermost global step";
      num / qden)

let core_tables ~tiling ~kernel ~skew ~reads =
  let n = Tiling.dim tiling in
  let q, qden = pprime_numerator tiling in
  let tinv = Ratmat.to_intmat_exn (Ratmat.inverse (Ratmat.of_intmat skew)) in
  let d = Array.of_list reads in
  let dp = Array.map (Intmat.apply tiling.Tiling.h') d in
  let defines =
    [
      Printf.sprintf "#define NDIM %d" n;
      Printf.sprintf "#define W %d" kernel.Ckernel.width;
      Printf.sprintf "#define NRD %d" kernel.Ckernel.nreads;
    ]
  in
  let tbls =
    [
      int_table1 "V" tiling.Tiling.v;
      int_table1 "CS" tiling.Tiling.c;
      int_table2 "HNF" tiling.Tiling.hnf;
      int_table2 "Q" q;
      Printf.sprintf "static const int QDEN = %d;" qden;
      int_table2 "D" d;
      int_table2 "DP" dp;
      int_table2 "TINV" tinv;
      int_table1 "JSTEP" (jstep tiling);
    ]
  in
  let helpers =
    [
      {|/* first admissible value of TTIS coordinate k given outer coords
   (incremental offsets of Fig. 2, as a triangular lattice solve) */
static int ttis_start(int k, const int *jp) {
  int t[NDIM]; int i, l; long acc;
  for (i = 0; i < k; i++) {
    acc = jp[i];
    for (l = 0; l < i; l++) acc -= (long)HNF[i][l] * t[l];
    t[i] = (int)(acc / HNF[i][i]);
  }
  acc = 0;
  for (l = 0; l < k; l++) acc += (long)HNF[k][l] * t[l];
  return imod((int)acc, HNF[k][k]);
}|};
      {|/* j = P'(V·tile + j')  (exact: QDEN divides the numerator on lattice points) */
static void global_of(const int *tile, const int *jp, int *j) {
  int i, l; long acc;
  for (i = 0; i < NDIM; i++) {
    acc = 0;
    for (l = 0; l < NDIM; l++) acc += (long)Q[i][l] * ((long)V[l] * tile[l] + jp[l]);
    j[i] = (int)(acc / QDEN);
  }
}|};
      {|/* original (un-skewed) coordinates */
static void orig(const int *j, int *o) {
  int i, l; long acc;
  for (i = 0; i < NDIM; i++) {
    acc = 0;
    for (l = 0; l < NDIM; l++) acc += (long)TINV[i][l] * j[l];
    o[i] = (int)acc;
  }
}|};
    ]
  in
  let boundary =
    [
      "/* initial / boundary data, in original coordinates */";
      "static double boundary_orig(const int *j, int f) {";
      "  (void)j; (void)f;";
    ]
    @ List.map (fun l -> "  " ^ l) kernel.Ckernel.boundary
    @ [
        "}";
        "static double boundary(const int *js, int f) {";
        "  int o[NDIM]; orig(js, o); return boundary_orig(o, f);";
        "}";
      ]
  in
  defines @ tbls @ helpers @ boundary

let tables ~plan ~kernel ~skew ~reads =
  core_tables ~tiling:plan.Plan.tiling ~kernel ~skew ~reads
  @ space_tables plan.Plan.nest.Tiles_loop.Nest.space

(* Strength-reduced global addressing for the sequential generator: the
   innermost loop keeps a running flat index [gi] into DATA (gidx is affine
   over the dense bounding box, so one innermost step always adds GSTEP) and
   each read tap is a constant flat offset DOFF[r].  Emitted after GDIMS and
   DATA are declared; GDIMS is only known at runtime (pseqgen), so the
   derived strides are filled in by strength_init(). *)
let strength_helpers =
  [
    {|/* row-start gidx, then addition-only addressing (Tables 1-2 applied
   to the dense data box): GS = data strides, GSTEP = flat step of one
   innermost TTIS increment, DOFF[r] = flat offset of read tap r */
static long GS[NDIM], GSTEP, DOFF[NRD];
static void strength_init(void) {
  int k, r;
  GS[NDIM - 1] = 1;
  for (k = NDIM - 2; k >= 0; k--) GS[k] = GS[k + 1] * GDIMS[k + 1];
  GSTEP = 0;
  for (k = 0; k < NDIM; k++) GSTEP += GS[k] * JSTEP[k];
  for (r = 0; r < NRD; r++) {
    DOFF[r] = 0;
    for (k = 0; k < NDIM; k++) DOFF[r] -= GS[k] * (long)D[r][k];
  }
}|};
    {|/* boundary-aware tap read through the precomputed flat offset */
static double rd_sr(const int *j, long gi, int r, int f) {
  int src[NDIM], k;
  for (k = 0; k < NDIM; k++) src[k] = j[k] - D[r][k];
  return in_space(src) ? DATA[(gi + DOFF[r]) * W + f] : boundary(src, f);
}|};
  ]
