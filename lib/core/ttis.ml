module Vec = Tiles_util.Vec
module Lattice = Tiles_linalg.Lattice

let iter (t : Tiling.t) f =
  let n = t.n in
  let j' = Array.make n 0 in
  let rec go k =
    if k = n then f j'
    else begin
      let start = Lattice.first_in_residue t.lattice k j' in
      let x = ref start in
      while !x < t.v.(k) do
        j'.(k) <- !x;
        go (k + 1);
        x := !x + t.c.(k)
      done
    end
  in
  go 0

let points t =
  let acc = ref [] in
  iter t (fun j' -> acc := Vec.copy j' :: !acc);
  List.rev !acc

let count t =
  let n = ref 0 in
  iter t (fun _ -> incr n);
  !n

let mem (t : Tiling.t) j' =
  Array.length j' = t.n
  && Array.for_all2 (fun x vk -> x >= 0 && x < vk) j' t.v
  && Lattice.member t.lattice j'

let start_offset (t : Tiling.t) k prefix =
  Lattice.first_in_residue t.lattice k prefix

(* The paper presents loop k's start as accumulating the incremental
   offsets a_kl = h'~_kl whenever outer loop l advances by one stride.
   That literal scheme is complete only when at most one sub-diagonal
   entry per row is non-zero (true of all the paper's examples): in
   general, advancing loop l also shifts the {e lattice coordinate} at
   which each intermediate loop starts, which feeds h'~-weighted into the
   deeper offsets. The robust incremental form below therefore carries the
   lattice coordinates t_l themselves: loop k's start offset is
   (Σ_{l<k} h'~_kl·t_l) mod c_k, updated with one multiply-add per outer
   level at loop entry and one increment per stride — still division-free
   in the steady state, and identical in output to {!iter} (checked by
   randomised tests; see the note in EXPERIMENTS.md). *)
let iter_incremental (t : Tiling.t) f =
  let n = t.n in
  let j' = Array.make n 0 in
  let tl = Array.make n 0 in
  let rec go k =
    if k = n then f j'
    else begin
      let base = ref 0 in
      for l = 0 to k - 1 do
        base := !base + (t.hnf.(k).(l) * tl.(l))
      done;
      let start = Tiles_util.Ints.fmod !base t.c.(k) in
      tl.(k) <- (start - !base) / t.c.(k);
      let x = ref start in
      while !x < t.v.(k) do
        j'.(k) <- !x;
        go (k + 1);
        tl.(k) <- tl.(k) + 1;
        x := !x + t.c.(k)
      done
    end
  in
  go 0

let iter_from (t : Tiling.t) ~lo f =
  let n = t.n in
  if Array.length lo <> n then invalid_arg "Ttis.iter_from: dimension";
  let j' = Array.make n 0 in
  let rec go k =
    if k = n then f j'
    else begin
      let residue = Lattice.first_in_residue t.lattice k j' in
      (* first value >= max(0, lo.(k)) congruent to residue mod c_k *)
      let lb = max 0 lo.(k) in
      let start =
        residue + (t.c.(k) * Tiles_util.Ints.cdiv (lb - residue) t.c.(k))
      in
      let x = ref start in
      while !x < t.v.(k) do
        j'.(k) <- !x;
        go (k + 1);
        x := !x + t.c.(k)
      done
    end
  in
  go 0

(* [iter_from]'s walk with the innermost level counted, not visited *)
let count_from (t : Tiling.t) ~lo =
  let n = t.n in
  if Array.length lo <> n then invalid_arg "Ttis.count_from: dimension";
  let j' = Array.make n 0 in
  let rec go k acc =
    let residue = Lattice.first_in_residue t.lattice k j' in
    let lb = max 0 lo.(k) in
    let start =
      residue + (t.c.(k) * Tiles_util.Ints.cdiv (lb - residue) t.c.(k))
    in
    if start >= t.v.(k) then acc
    else if k = n - 1 then acc + ((t.v.(k) - 1 - start) / t.c.(k)) + 1
    else begin
      let acc = ref acc in
      let x = ref start in
      while !x < t.v.(k) do
        j'.(k) <- !x;
        acc := go (k + 1) !acc;
        x := !x + t.c.(k)
      done;
      !acc
    end
  in
  go 0 0

let iter_bruteforce (t : Tiling.t) f =
  let n = t.n in
  let j' = Array.make n 0 in
  let rec go k =
    if k = n then begin
      if Lattice.member t.lattice j' then f j'
    end
    else
      for x = 0 to t.v.(k) - 1 do
        j'.(k) <- x;
        go (k + 1)
      done
  in
  go 0
