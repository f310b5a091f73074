module Vec = Tiles_util.Vec
module Ints = Tiles_util.Ints

type t = {
  m : int;
  d' : Vec.t list;
  max_d' : int array;
  cc : int array;
  off : int array;
  ds : Vec.t list;
  dm : (Vec.t * Vec.t list) list;
}

(* D^S without sweeping the TTIS. For a TTIS point j' and 0 <= d'_k <= v_k,
   iteration j + d lies in tile ⌊(j'_k + d'_k)/v_k⌋ ∈ {0, 1} along k, and
   that is 1 iff j'_k >= v_k − d'_k. So a 0/1 vector d^S over the support
   of d' occurs iff the TTIS has a point in the box putting each j'_k on
   the side d^S_k names: one lattice-in-box query per candidate. *)
let tile_deps (tiling : Tiling.t) d's =
  let n = tiling.n and v = tiling.v in
  let reached d' =
    List.filter_map
      (fun mask ->
        let ds = Array.init n (fun k -> (mask lsr k) land 1) in
        if Array.exists2 (fun b dk -> b = 1 && dk = 0) ds d' then None
        else
          let lo = Array.init n (fun k -> ds.(k) * (v.(k) - d'.(k))) in
          let hi =
            Array.init n (fun k ->
                if ds.(k) = 1 then v.(k) - 1 else v.(k) - d'.(k) - 1)
          in
          if Ttis.exists_in tiling ~lo ~hi then Some ds else None)
      (List.init ((1 lsl n) - 1) succ)
  in
  List.sort_uniq Vec.compare_lex (List.concat_map reached d's)

let make tiling deps ~m =
  let n = Tiling.dim tiling in
  if m < 0 || m >= n then invalid_arg "Comm.make: bad mapping dimension";
  if not (Tiling.legal_for tiling deps) then
    invalid_arg "Comm.make: tiling is illegal for these dependencies (H·d < 0)";
  let d' = Tiling.transformed_deps tiling deps in
  if List.exists (Array.exists (fun x -> x < 0)) d' then
    invalid_arg "Comm.make: a transformed dependence H'·d has a negative entry";
  let max_d' =
    Array.init n (fun k -> List.fold_left (fun acc v -> max acc v.(k)) 0 d')
  in
  Array.iteri
    (fun k md ->
      if md > tiling.v.(k) then
        invalid_arg
          (Printf.sprintf
             "Comm.make: dependence reach %d exceeds tile extent v_%d = %d \
              (tile too small: D^S components would exceed 1)"
             md k tiling.v.(k)))
    max_d';
  let cc = Array.init n (fun k -> tiling.v.(k) - max_d'.(k)) in
  let off =
    Array.init n (fun k ->
        if k = m then tiling.v.(k) / tiling.c.(k)
        else Ints.cdiv max_d'.(k) tiling.c.(k))
  in
  let ds = tile_deps tiling d' in
  let dm =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun dS ->
        let dm = Vec.remove dS m in
        if not (Vec.is_zero dm) then
          Hashtbl.replace tbl dm
            (dS :: (try Hashtbl.find tbl dm with Not_found -> [])))
      ds;
    Hashtbl.fold (fun k v acc -> (k, List.sort Vec.compare_lex v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> Vec.compare_lex a b)
  in
  { m; d'; max_d'; cc; off; ds; dm }

let dm_of_ds t ds = Vec.remove ds t.m

let slab_lo t ~dm =
  let n = Array.length t.cc in
  Array.init n (fun k ->
      if k = t.m then 0
      else
        let kk = if k < t.m then k else k - 1 in
        dm.(kk) * t.cc.(k))

let is_comm_point t j' =
  let crossing = ref false in
  Array.iteri (fun k x -> if x >= t.cc.(k) then crossing := true) j';
  !crossing

let minsucc_ds t dm =
  match List.assoc_opt dm t.dm with
  | None -> invalid_arg "Comm.minsucc_ds: unknown processor direction"
  | Some [] -> assert false
  | Some (first :: rest) ->
    (* the successor tiles s + d^S share every coordinate except m, so the
       lexicographically smallest successor comes from the smallest
       m-component *)
    List.fold_left
      (fun best d -> if d.(t.m) < best.(t.m) then d else best)
      first rest

let pp ppf t =
  Format.fprintf ppf
    "@[<v>comm (m=%d)@ D' = {%s}@ CC = %a@ off = %a@ D^S = {%s}@ D^m = {%s}@]"
    t.m
    (String.concat "; " (List.map Vec.to_string t.d'))
    Vec.pp t.cc Vec.pp t.off
    (String.concat "; " (List.map Vec.to_string t.ds))
    (String.concat "; " (List.map (fun (d, _) -> Vec.to_string d) t.dm))
