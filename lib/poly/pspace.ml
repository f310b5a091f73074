module Vec = Tiles_util.Vec

type t = { params : string array; dim : int; cs : Constr.t list }

let total t = Array.length t.params + t.dim

let make ~params ~dim cs =
  let params = Array.of_list params in
  if dim <= 0 then invalid_arg "Pspace.make: dim";
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun p ->
      if Hashtbl.mem seen p then invalid_arg "Pspace.make: duplicate parameter";
      Hashtbl.add seen p ())
    params;
  let t = { params; dim; cs = [] } in
  List.iter
    (fun c ->
      if Constr.dim c <> total t then invalid_arg "Pspace.make: constraint dim")
    cs;
  { t with cs = List.sort_uniq Constr.compare cs }

let nparams t = Array.length t.params

let of_polyhedron space =
  make ~params:[] ~dim:(Polyhedron.dim space) (Polyhedron.constraints space)

let param_index t name =
  let rec go i =
    if i = Array.length t.params then
      invalid_arg ("Pspace: unknown parameter " ^ name)
    else if t.params.(i) = name then i
    else go (i + 1)
  in
  go 0

let coeffs_of t ~var ~params ~sign =
  let n = total t in
  let coeffs = Array.make n 0 in
  coeffs.(nparams t + var) <- sign;
  List.iter
    (fun (name, c) -> coeffs.(param_index t name) <- -sign * c)
    params;
  coeffs

let param_coeff_ge t ~var ~params ~const =
  (* x_var - Σ coeff·param - const >= 0 *)
  Constr.make ~coeffs:(coeffs_of t ~var ~params ~sign:1) ~const:(-const)

let param_coeff_le t ~var ~params ~const =
  Constr.make ~coeffs:(coeffs_of t ~var ~params ~sign:(-1)) ~const

let add t c =
  if Constr.dim c <> total t then invalid_arg "Pspace.add: dim";
  { t with cs = List.sort_uniq Constr.compare (c :: t.cs) }

let box ~params entries =
  let dim = List.length entries in
  let t0 = make ~params ~dim [] in
  List.fold_left
    (fun t (k, ((lop, loc), (hip, hic))) ->
      let t = add t (param_coeff_ge t0 ~var:k ~params:lop ~const:loc) in
      add t (param_coeff_le t0 ~var:k ~params:hip ~const:hic))
    t0
    (List.mapi (fun k e -> (k, e)) entries)

let instantiate t values =
  if List.length values <> nparams t then
    invalid_arg "Pspace.instantiate: value count";
  let values = Array.of_list values in
  let p = nparams t in
  let cs =
    List.map
      (fun c ->
        let const = ref (Constr.const c) in
        for i = 0 to p - 1 do
          const := !const + (Constr.coeff c i * values.(i))
        done;
        let coeffs = Array.init t.dim (fun k -> Constr.coeff c (p + k)) in
        Constr.make ~coeffs ~const:!const)
      t.cs
  in
  Polyhedron.make ~dim:t.dim cs

let transform_unimodular m t =
  let module Intmat = Tiles_linalg.Intmat in
  let module Ratmat = Tiles_linalg.Ratmat in
  if not (Intmat.is_unimodular m) then
    invalid_arg "Pspace.transform_unimodular: not unimodular";
  if Intmat.rows m <> t.dim then invalid_arg "Pspace.transform_unimodular: dim";
  let p = nparams t in
  let minv = Ratmat.to_intmat_exn (Ratmat.inverse (Ratmat.of_intmat m)) in
  let cs =
    List.map
      (fun c ->
        let coeffs =
          Array.init (total t) (fun idx ->
              if idx < p then Constr.coeff c idx
              else
                let j = idx - p in
                let acc = ref 0 in
                for i = 0 to t.dim - 1 do
                  acc := !acc + (Constr.coeff c (p + i) * minv.(i).(j))
                done;
                !acc)
        in
        Constr.make ~coeffs ~const:(Constr.const c))
      t.cs
  in
  { t with cs }

let projection t = Fourier_motzkin.project t.cs ~dim:(total t)

let var_bounds_system t ~var =
  let p = nparams t in
  let keep = List.init p (fun i -> i) @ [ p + var ] in
  Fourier_motzkin.eliminate_all_but t.cs ~dim:(total t) ~keep
