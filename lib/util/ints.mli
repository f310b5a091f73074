(** Integer helpers used throughout the tiling framework.

    All division here is {e floor} division (rounding towards negative
    infinity), which is what the lattice / LDS addressing arithmetic of the
    paper requires; OCaml's built-in [/] truncates towards zero and is wrong
    for negative operands. *)

val fdiv : int -> int -> int
(** [fdiv a b] is the floor of the rational [a/b]. [b] must be non-zero;
    raises [Invalid_argument] otherwise. *)

val fmod : int -> int -> int
(** [fmod a b] is [a - b * fdiv a b]; the result has the sign of [b]
    (non-negative for positive [b]). *)

val cdiv : int -> int -> int
(** [cdiv a b] is the ceiling of the rational [a/b]. *)

val floor_sum : n:int -> m:int -> a:int -> b:int -> int
(** [floor_sum ~n ~m ~a ~b] is [Σ_{i=0}^{n-1} ⌊(a·i + b)/m⌋] for
    [n >= 0] and [m > 0] (any signs of [a] and [b]), in
    [O(log m + log a)] steps — the lattice points under a line, counted
    without visiting them. Raises [Overflow] rather than return a wrapped
    sum, and [Invalid_argument] on [n < 0] or [m <= 0]. *)

val gcd : int -> int -> int
(** Greatest common divisor, always non-negative; [gcd 0 0 = 0]. *)

val lcm : int -> int -> int
(** Least common multiple, always non-negative. *)

val mul_exn : int -> int -> int
(** Overflow-checked multiplication. Raises [Overflow] if the product does
    not fit a native int. *)

val add_exn : int -> int -> int
(** Overflow-checked addition. Raises [Overflow] on overflow. *)

exception Overflow

val pow : int -> int -> int
(** [pow b e] is [b{^e}] for [e >= 0], overflow-checked. *)

val divisors : int -> int list
(** All positive divisors of [n > 0] in increasing order. *)

val sign : int -> int
(** [-1], [0] or [1]. *)
