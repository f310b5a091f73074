open Tiles_util

let check_int = Alcotest.(check int)

(* ---------- Ints ---------- *)

let test_fdiv_basic () =
  check_int "7/2" 3 (Ints.fdiv 7 2);
  check_int "-7/2" (-4) (Ints.fdiv (-7) 2);
  check_int "7/-2" (-4) (Ints.fdiv 7 (-2));
  check_int "-7/-2" 3 (Ints.fdiv (-7) (-2));
  check_int "0/5" 0 (Ints.fdiv 0 5);
  check_int "-1/3" (-1) (Ints.fdiv (-1) 3)

let test_fmod_basic () =
  check_int "7 mod 2" 1 (Ints.fmod 7 2);
  check_int "-7 mod 2" 1 (Ints.fmod (-7) 2);
  check_int "-6 mod 3" 0 (Ints.fmod (-6) 3);
  check_int "5 mod -3" (-1) (Ints.fmod 5 (-3))

let test_cdiv_basic () =
  check_int "7 cdiv 2" 4 (Ints.cdiv 7 2);
  check_int "-7 cdiv 2" (-3) (Ints.cdiv (-7) 2);
  check_int "6 cdiv 3" 2 (Ints.cdiv 6 3)

let test_fdiv_zero () =
  Alcotest.check_raises "div by zero" (Invalid_argument "Ints.fdiv: division by zero")
    (fun () -> ignore (Ints.fdiv 1 0))

let test_gcd_lcm () =
  check_int "gcd 12 18" 6 (Ints.gcd 12 18);
  check_int "gcd -12 18" 6 (Ints.gcd (-12) 18);
  check_int "gcd 0 5" 5 (Ints.gcd 0 5);
  check_int "gcd 0 0" 0 (Ints.gcd 0 0);
  check_int "lcm 4 6" 12 (Ints.lcm 4 6);
  check_int "lcm 0 5" 0 (Ints.lcm 0 5)

let test_overflow () =
  Alcotest.check_raises "mul overflow" Ints.Overflow (fun () ->
      ignore (Ints.mul_exn max_int 2));
  Alcotest.check_raises "mul min_int by -1" Ints.Overflow (fun () ->
      ignore (Ints.mul_exn min_int (-1)));
  Alcotest.check_raises "add overflow" Ints.Overflow (fun () ->
      ignore (Ints.add_exn max_int 1));
  check_int "mul ok" 6 (Ints.mul_exn 2 3);
  check_int "mul neg" (-6) (Ints.mul_exn 2 (-3))

let test_pow () =
  check_int "2^10" 1024 (Ints.pow 2 10);
  check_int "5^0" 1 (Ints.pow 5 0);
  check_int "0^0" 1 (Ints.pow 0 0);
  check_int "(-2)^3" (-8) (Ints.pow (-2) 3)

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ] (Ints.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (Ints.divisors 1);
  Alcotest.(check (list int)) "divisors 9" [ 1; 3; 9 ] (Ints.divisors 9)

let prop_fdiv_fmod =
  QCheck.Test.make ~name:"fdiv/fmod euclidean identity" ~count:1000
    QCheck.(pair (int_range (-10000) 10000) (int_range (-100) 100))
    (fun (a, b) ->
      QCheck.assume (b <> 0);
      let q = Ints.fdiv a b and r = Ints.fmod a b in
      a = (b * q) + r && if b > 0 then r >= 0 && r < b else r <= 0 && r > b)

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:1000
    QCheck.(pair (int_range (-1000) 1000) (int_range (-1000) 1000))
    (fun (a, b) ->
      let g = Ints.gcd a b in
      if a = 0 && b = 0 then g = 0
      else g > 0 && a mod g = 0 && b mod g = 0)

let floor_sum_brute ~n ~m ~a ~b =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + Ints.fdiv ((a * i) + b) m
  done;
  !acc

let test_floor_sum () =
  check_int "n = 0" 0 (Ints.floor_sum ~n:0 ~m:7 ~a:(-5) ~b:(-3));
  check_int "single term" (-2) (Ints.floor_sum ~n:1 ~m:3 ~a:9 ~b:(-4));
  check_int "negative a and b" (floor_sum_brute ~n:11 ~m:4 ~a:(-7) ~b:(-13))
    (Ints.floor_sum ~n:11 ~m:4 ~a:(-7) ~b:(-13));
  (* Σ_{i<10^6} ⌊i/1⌋ fits; the same sum with slope 2^40 does not *)
  check_int "large n" 499999500000 (Ints.floor_sum ~n:1_000_000 ~m:1 ~a:1 ~b:0);
  Alcotest.check_raises "overflow" Ints.Overflow (fun () ->
      ignore (Ints.floor_sum ~n:(1 lsl 30) ~m:3 ~a:(1 lsl 40) ~b:0));
  Alcotest.check_raises "negative b overflow" Ints.Overflow (fun () ->
      ignore (Ints.floor_sum ~n:(1 lsl 40) ~m:1 ~a:0 ~b:(-(1 lsl 40))));
  Alcotest.check_raises "bad m" (Invalid_argument "Ints.floor_sum: need m > 0")
    (fun () -> ignore (Ints.floor_sum ~n:3 ~m:0 ~a:1 ~b:1))

let prop_floor_sum =
  QCheck.Test.make ~name:"floor_sum = brute force" ~count:2000
    QCheck.(
      quad (int_range 0 40) (int_range 1 30) (int_range (-100) 100)
        (int_range (-1000) 1000))
    (fun (n, m, a, b) ->
      Ints.floor_sum ~n ~m ~a ~b = floor_sum_brute ~n ~m ~a ~b)

(* ---------- Vec ---------- *)

let vec = Alcotest.testable (Fmt.of_to_string Vec.to_string) Vec.equal

let test_vec_ops () =
  Alcotest.check vec "add" [| 4; 6 |] (Vec.add [| 1; 2 |] [| 3; 4 |]);
  Alcotest.check vec "sub" [| -2; -2 |] (Vec.sub [| 1; 2 |] [| 3; 4 |]);
  Alcotest.check vec "scale" [| 3; 6 |] (Vec.scale 3 [| 1; 2 |]);
  check_int "dot" 11 (Vec.dot [| 1; 2 |] [| 3; 4 |]);
  Alcotest.check vec "basis" [| 0; 1; 0 |] (Vec.basis 3 1)

let test_vec_lex () =
  Alcotest.(check bool) "lex pos" true (Vec.is_lex_positive [| 0; 1; -5 |]);
  Alcotest.(check bool) "lex neg" false (Vec.is_lex_positive [| 0; -1; 5 |]);
  Alcotest.(check bool) "zero not pos" false (Vec.is_lex_positive [| 0; 0 |]);
  check_int "cmp" (-1) (Vec.compare_lex [| 1; 2 |] [| 1; 3 |]);
  check_int "cmp eq" 0 (Vec.compare_lex [| 1; 2 |] [| 1; 2 |])

let test_vec_insert_remove () =
  Alcotest.check vec "insert mid" [| 1; 9; 2 |] (Vec.insert [| 1; 2 |] 1 9);
  Alcotest.check vec "insert end" [| 1; 2; 9 |] (Vec.insert [| 1; 2 |] 2 9);
  Alcotest.check vec "remove" [| 1; 3 |] (Vec.remove [| 1; 2; 3 |] 1);
  Alcotest.check vec "permute last" [| 1; 3; 2 |]
    (Vec.permute_to_last [| 1; 2; 3 |] 1);
  Alcotest.check vec "permute last idempotent on last" [| 1; 2; 3 |]
    (Vec.permute_to_last [| 1; 2; 3 |] 2)

let prop_insert_remove =
  QCheck.Test.make ~name:"remove (insert v k x) k = v" ~count:500
    QCheck.(triple (array_of_size (Gen.int_range 1 6) small_int) (int_range 0 5) small_int)
    (fun (v, k, x) ->
      QCheck.assume (k <= Array.length v);
      Vec.remove (Vec.insert v k x) k = v)

(* ---------- Json ---------- *)

let json = Alcotest.testable (Fmt.of_to_string (Json.to_string ~indent:0)) ( = )

let test_json_parse_scalars () =
  Alcotest.(check (result json string)) "null" (Ok Json.Null) (Json.parse "null");
  Alcotest.(check (result json string)) "true" (Ok (Json.Bool true))
    (Json.parse " true ");
  Alcotest.(check (result json string)) "int" (Ok (Json.Int (-42)))
    (Json.parse "-42");
  Alcotest.(check (result json string)) "float" (Ok (Json.Float 2.5))
    (Json.parse "2.5");
  Alcotest.(check (result json string)) "exponent is float"
    (Ok (Json.Float 1e3)) (Json.parse "1e3");
  Alcotest.(check (result json string)) "string escapes"
    (Ok (Json.Str "a\"b\\c\nd"))
    (Json.parse {|"a\"b\\c\nd"|});
  (* \u escapes decode to UTF-8, including surrogate pairs *)
  Alcotest.(check (result json string)) "bmp escape"
    (Ok (Json.Str "\xce\xbb"))
    (Json.parse {|"λ"|});
  Alcotest.(check (result json string)) "surrogate pair"
    (Ok (Json.Str "\xf0\x9f\x98\x80"))
    (Json.parse {|"😀"|})

let test_json_parse_nested () =
  Alcotest.(check (result json string)) "nested"
    (Ok
       (Json.Obj
          [
            ("xs", Json.List [ Json.Int 1; Json.Int 2 ]);
            ("o", Json.Obj [ ("k", Json.Null) ]);
            ("empty", Json.List []);
          ]))
    (Json.parse {|{ "xs": [1, 2], "o": {"k": null}, "empty": [] }|})

(* errors carry the 1-based line and column of the offending byte *)
let check_parse_error src expected_loc =
  match Json.parse src with
  | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" src
  | Error msg ->
    if not (Astring.String.is_infix ~affix:expected_loc msg) then
      Alcotest.failf "parse %S: expected %S in error %S" src expected_loc msg

let test_json_parse_errors () =
  check_parse_error "" "line 1, column 1";
  check_parse_error "[1, 2" "line 1, column 6";
  check_parse_error {|{"a": 1,}|} "line 1, column 9";
  check_parse_error "{\n  \"a\": tru\n}" "line 2, column 8";
  check_parse_error "1 2" "trailing garbage";
  check_parse_error {|"unterminated|} "unterminated string";
  check_parse_error {|{"a" 1}|} "expected ':'"

let test_json_accessors () =
  let j = Json.Obj [ ("n", Json.Int 3); ("f", Json.Float 0.5); ("s", Json.Str "x") ] in
  Alcotest.(check (option int)) "int" (Some 3)
    (Option.bind (Json.member "n" j) Json.to_int_opt);
  (* to_float_opt widens ints: a baseline field written as 3 reads as 3.0 *)
  Alcotest.(check (option (float 0.))) "widen" (Some 3.)
    (Option.bind (Json.member "n" j) Json.to_float_opt);
  Alcotest.(check (option (float 0.))) "float" (Some 0.5)
    (Option.bind (Json.member "f" j) Json.to_float_opt);
  Alcotest.(check (option string)) "str" (Some "x")
    (Option.bind (Json.member "s" j) Json.to_str_opt);
  Alcotest.(check (option int)) "missing" None
    (Option.bind (Json.member "zz" j) Json.to_int_opt);
  Alcotest.(check (option int)) "non-obj" None
    (Option.bind (Json.member "n" (Json.List [])) Json.to_int_opt)

(* emit → parse is the identity on finite values (non-finite floats emit
   as null by design, so the generator stays finite) *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) (float_bound_inclusive 1e9);
        map (fun s -> Json.Str s) (string_size ~gen:printable (int_range 0 10));
      ]
  in
  let key = string_size ~gen:printable (int_range 0 5) in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs -> Json.Obj kvs)
                (list_size (int_range 0 4) (pair key (self (depth - 1)))) );
          ])
    3

let prop_json_roundtrip =
  QCheck.Test.make ~name:"parse (to_string j) = Ok j" ~count:500
    (QCheck.make ~print:(Json.to_string ~indent:1) json_gen)
    (fun j -> Json.parse (Json.to_string j) = Ok j)

let prop_json_roundtrip_compact =
  QCheck.Test.make ~name:"roundtrip at indent 0" ~count:200
    (QCheck.make ~print:(Json.to_string ~indent:1) json_gen)
    (fun j -> Json.parse (Json.to_string ~indent:0 j) = Ok j)

(* to_line frames the serve protocol: one value per physical line, so a
   newline anywhere in the rendering would split a response in two *)
let prop_json_to_line =
  QCheck.Test.make ~name:"to_line is one parseable line" ~count:200
    (QCheck.make ~print:(Json.to_string ~indent:1) json_gen)
    (fun j ->
      let s = Json.to_line j in
      (not (String.contains s '\n')) && Json.parse s = Ok j)

(* ---------- Heap ---------- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (p, v) -> Heap.push h ~priority:p v)
    [ (3.0, "c"); (1.0, "a"); (2.0, "b"); (1.5, "ab") ];
  let drain () =
    let rec go acc =
      match Heap.pop h with None -> List.rev acc | Some (_, v) -> go (v :: acc)
    in
    go []
  in
  Alcotest.(check (list string)) "sorted" [ "a"; "ab"; "b"; "c" ] (drain ())

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h ~priority:1.0 v) [ 1; 2; 3; 4; 5 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (drain [])

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Heap.push h ~priority:1.0 42;
  Alcotest.(check bool) "nonempty" false (Heap.is_empty h);
  check_int "size" 1 (Heap.size h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list (float_range 0. 1000.))
    (fun prios ->
      let h = Heap.create () in
      List.iter (fun p -> Heap.push h ~priority:p ()) prios;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (p, ()) -> drain (p :: acc)
      in
      let out = drain [] in
      out = List.sort compare prios)

(* the heap is the admission queue's spine now, not just the simulator's
   event queue: pops must be a permutation of the pushes (no job lost or
   duplicated), FIFO among equal priorities must hold for arbitrary
   interleavings, and size/peek must stay consistent mid-stream *)
let prop_heap_permutation =
  QCheck.Test.make ~name:"heap pops a permutation of pushes" ~count:200
    QCheck.(list (pair (float_range 0. 10.) small_int))
    (fun items ->
      let h = Heap.create () in
      List.iter (fun (p, v) -> Heap.push h ~priority:p v) items;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (p, v) -> drain ((p, v) :: acc)
      in
      let out = drain [] in
      List.sort compare out = List.sort compare items
      && Heap.is_empty h && Heap.size h = 0)

let prop_heap_fifo_random =
  QCheck.Test.make ~name:"heap FIFO among duplicate priorities" ~count:200
    (* few distinct priorities over many values forces ties *)
    QCheck.(list_of_size Gen.(int_range 0 40) (int_range 0 3))
    (fun prios ->
      let h = Heap.create () in
      List.iteri
        (fun seq p -> Heap.push h ~priority:(float_of_int p) (p, seq))
        prios;
      let rec drain acc =
        match Heap.pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let out = drain [] in
      (* stable sort by priority preserves push order within each tie
         class — exactly the heap's contract *)
      out = List.stable_sort (fun (a, _) (b, _) -> compare a b) out)

let prop_heap_interleaved =
  QCheck.Test.make ~name:"heap size/peek under interleaved push-pop"
    ~count:200
    QCheck.(list (pair bool (float_range 0. 100.)))
    (fun ops ->
      let h = Heap.create () in
      let n = ref 0 in
      List.for_all
        (fun (is_push, p) ->
          let ok =
            if is_push then begin
              Heap.push h ~priority:p ();
              incr n;
              true
            end
            else
              match (Heap.peek h, Heap.pop h) with
              | None, None -> !n = 0
              | Some (pk, ()), Some (pp, ()) ->
                decr n;
                pk = pp
              | _ -> false
          in
          ok && Heap.size h = !n && Heap.is_empty h = (!n = 0))
        ops)

(* ---------- Table ---------- *)

let test_table_rejects_long_row () =
  let t = Table.create ~header:[ "a" ] in
  Alcotest.check_raises "too long"
    (Invalid_argument "Table.add_row: row longer than header") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_vec_dim_mismatch () =
  Alcotest.(check bool) "add raises" true
    (try
       ignore (Vec.add [| 1 |] [| 1; 2 |]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "dot raises" true
    (try
       ignore (Vec.dot [| 1 |] [| 1; 2 |]);
       false
     with Invalid_argument _ -> true)

let test_divisors_rejects_nonpositive () =
  Alcotest.check_raises "zero" (Invalid_argument "Ints.divisors: need n > 0")
    (fun () -> ignore (Ints.divisors 0))

let test_table_render () =
  let t = Table.create ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  Alcotest.(check int) "line count" 4
    (List.length (String.split_on_char '\n' s))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "tiles_util"
    [
      ( "ints",
        [
          Alcotest.test_case "fdiv" `Quick test_fdiv_basic;
          Alcotest.test_case "fmod" `Quick test_fmod_basic;
          Alcotest.test_case "cdiv" `Quick test_cdiv_basic;
          Alcotest.test_case "fdiv zero" `Quick test_fdiv_zero;
          Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "overflow" `Quick test_overflow;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "divisors" `Quick test_divisors;
          Alcotest.test_case "floor_sum" `Quick test_floor_sum;
          q prop_fdiv_fmod;
          q prop_floor_sum;
          q prop_gcd_divides;
        ] );
      ( "vec",
        [
          Alcotest.test_case "ops" `Quick test_vec_ops;
          Alcotest.test_case "lex" `Quick test_vec_lex;
          Alcotest.test_case "insert/remove" `Quick test_vec_insert_remove;
          q prop_insert_remove;
        ] );
      ( "json",
        [
          Alcotest.test_case "scalars" `Quick test_json_parse_scalars;
          Alcotest.test_case "nested" `Quick test_json_parse_nested;
          Alcotest.test_case "error positions" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          q prop_json_roundtrip;
          q prop_json_roundtrip_compact;
          q prop_json_to_line;
        ] );
      ( "heap",
        [
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          q prop_heap_sorted;
          q prop_heap_permutation;
          q prop_heap_fifo_random;
          q prop_heap_interleaved;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "long row" `Quick test_table_rejects_long_row;
        ] );
      ( "edges",
        [
          Alcotest.test_case "vec dim mismatch" `Quick test_vec_dim_mismatch;
          Alcotest.test_case "divisors nonpositive" `Quick
            test_divisors_rejects_nonpositive;
        ] );
    ]
