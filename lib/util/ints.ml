exception Overflow

let fdiv a b =
  if b = 0 then invalid_arg "Ints.fdiv: division by zero";
  let q = a / b and r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let fmod a b = a - (b * fdiv a b)

let cdiv a b = -fdiv (-a) b

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let mul_exn a b =
  if a = 0 || b = 0 then 0
  (* min_int·(−1) wraps to min_int, and min_int / −1 = min_int hides it *)
  else if (a = min_int && b = -1) || (b = min_int && a = -1) then raise Overflow
  else
    let p = a * b in
    if p / b <> a then raise Overflow else p

let add_exn a b =
  let s = a + b in
  (* overflow iff operands share a sign that the sum does not *)
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
    raise Overflow
  else s

(* Σ_{i<n} ⌊(a·i + b)/m⌋ by the Euclid-like reduction: take the whole
   parts of a/m and b/m out, then swap the roles of the slope and the
   modulus on the transposed lattice-point count under the line. Every
   step is overflow-checked. *)
let floor_sum ~n ~m ~a ~b =
  if n < 0 then invalid_arg "Ints.floor_sum: negative n";
  if m <= 0 then invalid_arg "Ints.floor_sum: need m > 0";
  (* n·(n−1)/2 without overflowing the intermediate product *)
  let tri n =
    if n land 1 = 0 then mul_exn (n / 2) (n - 1) else mul_exn n ((n - 1) / 2)
  in
  let rec go acc n m a b =
    (* here 0 <= a, 0 <= b *)
    let acc = add_exn acc (mul_exn (tri n) (a / m)) in
    let a = a mod m in
    let acc = add_exn acc (mul_exn n (b / m)) in
    let b = b mod m in
    let y_max = add_exn (mul_exn a n) b in
    if y_max < m then acc else go acc (y_max / m) a m (y_max mod m)
  in
  if n = 0 then 0
  else
    let qa = fdiv a m and qb = fdiv b m in
    let acc = add_exn (mul_exn (tri n) qa) (mul_exn n qb) in
    go acc n m (a - (qa * m)) (b - (qb * m))

let lcm a b = if a = 0 || b = 0 then 0 else abs (mul_exn (a / gcd a b) b)

let pow b e =
  if e < 0 then invalid_arg "Ints.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul_exn acc b) (mul_exn b b) (e asr 1)
    else go acc (mul_exn b b) (e asr 1)
  in
  (* avoid squaring b one extra time past the last needed step *)
  if e = 0 then 1 else go 1 b e

let divisors n =
  if n <= 0 then invalid_arg "Ints.divisors: need n > 0";
  let rec go d small large =
    if d * d > n then List.rev_append small large
    else if n mod d = 0 then
      let large = if d * d = n then large else (n / d) :: large in
      go (d + 1) (d :: small) large
    else go (d + 1) small large
  in
  go 1 [] []

let sign n = compare n 0
