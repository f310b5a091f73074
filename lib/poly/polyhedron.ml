module Vec = Tiles_util.Vec

type t = {
  dim : int;
  cs : Constr.t list;
  mutable proj : Fourier_motzkin.projection option;
}

let make ~dim cs =
  if dim <= 0 then invalid_arg "Polyhedron.make: dim";
  List.iter
    (fun c -> if Constr.dim c <> dim then invalid_arg "Polyhedron.make: dim")
    cs;
  { dim; cs = List.sort_uniq Constr.compare cs; proj = None }

let dim p = p.dim
let constraints p = p.cs
let add p c = make ~dim:p.dim (c :: p.cs)

let inter a b =
  if a.dim <> b.dim then invalid_arg "Polyhedron.inter";
  make ~dim:a.dim (a.cs @ b.cs)

let box ranges =
  let n = List.length ranges in
  if n = 0 then invalid_arg "Polyhedron.box: empty";
  let cs =
    List.concat
      (List.mapi
         (fun k (l, u) ->
           [ Constr.lower_bound_var n k l; Constr.upper_bound_var n k u ])
         ranges)
  in
  make ~dim:n cs

let member p x = List.for_all (fun c -> Constr.holds c x) p.cs

let is_empty_rational p =
  let rec go cs var =
    if List.exists Constr.is_contradiction cs then true
    else if var < 0 then false
    else go (Fourier_motzkin.eliminate cs ~var) (var - 1)
  in
  go p.cs (p.dim - 1)

let var_range p k =
  let cs = Fourier_motzkin.eliminate_all_but p.cs ~dim:p.dim ~keep:[ k ] in
  let lo = ref None and hi = ref None in
  List.iter
    (fun c ->
      let a = Constr.coeff c k in
      let b = Constr.const c in
      if a > 0 then begin
        let v = Tiles_util.Ints.cdiv (-b) a in
        match !lo with Some l when l >= v -> () | _ -> lo := Some v
      end
      else if a < 0 then begin
        let v = Tiles_util.Ints.fdiv b (-a) in
        match !hi with Some h when h <= v -> () | _ -> hi := Some v
      end)
    cs;
  match (!lo, !hi) with
  | Some l, Some h -> (l, h)
  | _ -> failwith "Polyhedron.bounding_box: unbounded"

let bounding_box p = Array.init p.dim (var_range p)

let projection p =
  match p.proj with
  | Some pr -> pr
  | None ->
    let pr = Fourier_motzkin.project p.cs ~dim:p.dim in
    p.proj <- Some pr;
    pr

(* The one row enumerator: walk the outer levels of the projection chain
   and hand each innermost range to [f] whole. Every value of that range
   is a point, because the innermost level of the chain is the original
   (unprojected) system. *)
let iter_rows p f =
  let pr = projection p in
  let last = p.dim - 1 in
  let x = Array.make p.dim 0 in
  let rec go k =
    match Fourier_motzkin.bounds pr ~var:k ~prefix:x with
    | None -> ()
    | Some (lo, hi) when k = last ->
      x.(k) <- lo;
      f x (hi - lo + 1)
    | Some (lo, hi) ->
      for v = lo to hi do
        x.(k) <- v;
        go (k + 1)
      done
  in
  go 0

let iter_points p f =
  let last = p.dim - 1 in
  iter_rows p (fun x len ->
      let lo = x.(last) in
      for v = lo to lo + len - 1 do
        x.(last) <- v;
        f x
      done)

let fold_points p ~init ~f =
  let acc = ref init in
  iter_points p (fun x -> acc := f !acc x);
  !acc

let count_points p =
  let acc = ref 0 in
  iter_rows p (fun _ len -> acc := !acc + len);
  !acc

let points p =
  List.rev (fold_points p ~init:[] ~f:(fun acc x -> Vec.copy x :: acc))

let transform_unimodular t p =
  let module Intmat = Tiles_linalg.Intmat in
  let module Ratmat = Tiles_linalg.Ratmat in
  if not (Intmat.is_unimodular t) then
    invalid_arg "Polyhedron.transform_unimodular: not unimodular";
  if Intmat.rows t <> p.dim then
    invalid_arg "Polyhedron.transform_unimodular: dimension";
  let tinv = Ratmat.to_intmat_exn (Ratmat.inverse (Ratmat.of_intmat t)) in
  let cs =
    List.map
      (fun c ->
        let coeffs =
          Array.init p.dim (fun j ->
              let acc = ref 0 in
              for i = 0 to p.dim - 1 do
                acc := !acc + (Constr.coeff c i * tinv.(i).(j))
              done;
              !acc)
        in
        Constr.make ~coeffs ~const:(Constr.const c))
      p.cs
  in
  make ~dim:p.dim cs

let pp ppf p =
  Format.fprintf ppf "@[<v>{ dim = %d;@ " p.dim;
  List.iter (fun c -> Format.fprintf ppf "  %a@ " Constr.pp c) p.cs;
  Format.fprintf ppf "}@]"
