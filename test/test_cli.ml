(* Integration tests of the tilec command-line tool: drive the built
   binary end-to-end and check its output. *)

let tilec =
  lazy
    (let candidates =
       [ "../bin/tilec.exe"; "_build/default/bin/tilec.exe"; "bin/tilec.exe" ]
     in
     match List.find_opt Sys.file_exists candidates with
     | Some p -> p
     | None -> Alcotest.fail "tilec.exe not found (build it first)")

let run args =
  let cmd = Printf.sprintf "%s %s 2>&1" (Lazy.force tilec) args in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let contains s needle = Astring.String.is_infix ~affix:needle s

let check_ok args needles =
  let status, out = run args in
  if status <> Unix.WEXITED 0 then
    Alcotest.failf "tilec %s failed:\n%s" args out;
  List.iter
    (fun n ->
      if not (contains out n) then
        Alcotest.failf "tilec %s: %S not in output:\n%s" args n out)
    needles

let test_plan () =
  check_ok "plan --app sor -M 12 -N 16 --variant nonrect -x 6 -y 7 -z 4"
    [ "plan for sor"; "tile size"; "CC vector"; "D^S"; "processors" ]

let test_cone () =
  check_ok "cone --app adi" [ "tiling cone extreme rays"; "(1, -1, -1)" ]

let test_simulate () =
  check_ok "simulate --app adi -t 12 -n 16 --variant nr3 -x 3 -y 4 -z 4 --full"
    [ "speedup"; "max |parallel - sequential| = 0" ]

let test_emit () =
  let tmp = Filename.temp_file "tilec" ".c" in
  check_ok
    (Printf.sprintf
       "emit-mpi --app jacobi -t 8 -n 10 --variant nonrect -x 2 -y 4 -z 4 -o %s"
       (Filename.quote tmp))
    [];
  let ic = open_in tmp in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  List.iter
    (fun n ->
      if not (contains src n) then Alcotest.failf "emitted C lacks %S" n)
    [ "MPI_Init"; "MPI_Send"; "ttis_start"; "static const int HNF" ]

(* emit-seq emits the zero-parameter sequential program: it compiles and
   runs with no arguments *)
let test_emit_seq () =
  let tmp = Filename.temp_file "tilec" ".c" in
  check_ok
    (Printf.sprintf
       "emit-seq --app sor -M 5 -N 7 --variant nonrect -x 3 -y 4 -z 3 -o %s"
       (Filename.quote tmp))
    [];
  let ic = open_in tmp in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  if not (contains src "int main") then Alcotest.fail "emitted C lacks main";
  if Sys.command "command -v cc >/dev/null 2>&1" = 0 then begin
    let exe = Filename.remove_extension tmp ^ ".exe" in
    let cmd =
      Printf.sprintf "cc -O1 -std=c99 %s -lm -o %s && %s 2>&1"
        (Filename.quote tmp) (Filename.quote exe) (Filename.quote exe)
    in
    let ic = Unix.open_process_in cmd in
    let out = In_channel.input_all ic in
    let status = Unix.close_process_in ic in
    if Sys.file_exists exe then Sys.remove exe;
    if status <> Unix.WEXITED 0 || not (contains out "points 245") then
      Alcotest.failf "compiled emit-seq program:\n%s" out
  end;
  Sys.remove tmp

let test_simulate_utilisation () =
  check_ok
    "simulate --app sor -M 12 -N 16 --variant nonrect -x 6 -y 7 -z 4 \
     --utilisation"
    [ "rank 0 "; "compute"; "wait"; "busy"; "mean busy" ]

let test_bad_app () =
  let status, _ = run "plan --app nope" in
  Alcotest.(check bool) "non-zero exit" true (status <> Unix.WEXITED 0)

(* illegal or singular tilings must exit non-zero with a one-line
   diagnostic, not an OCaml backtrace *)
let check_err args =
  let status, out = run args in
  if status = Unix.WEXITED 0 then
    Alcotest.failf "tilec %s unexpectedly succeeded:\n%s" args out;
  if not (contains out "tilec: error:") then
    Alcotest.failf "tilec %s: missing error prefix:\n%s" args out;
  List.iter
    (fun marker ->
      if contains out marker then
        Alcotest.failf "tilec %s: leaked a backtrace:\n%s" args out)
    [ "Raised at"; "Called from"; "Fatal error: exception" ];
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)
  in
  if List.length lines <> 1 then
    Alcotest.failf "tilec %s: expected a one-line error, got %d lines:\n%s"
      args (List.length lines) out

let test_singular_tiling () =
  check_err "plan --app sor -M 12 -N 16 --variant nonrect -x 6 -y 7 -z 0"

let test_illegal_tiling () =
  check_err "plan --app sor -M 12 -N 16 --variant rect -x 0 -y 7 -z 4";
  check_err "simulate --app adi -t 12 -n 16 --variant nr3 -x 3 -y 0 -z 4"

(* tilec trace: both backends must produce a loadable Chrome trace with
   the same message/byte counters in the printed summary *)
let test_trace () =
  let counters_of backend =
    let json = Filename.temp_file "tilec_trace" ".json" in
    let svg = Filename.temp_file "tilec_trace" ".svg" in
    let status, out =
      run
        (Printf.sprintf
           "trace --app sor -M 12 -N 16 -x 3 -y 4 -z 4 --backend %s --out %s \
            --svg %s"
           backend (Filename.quote json) (Filename.quote svg))
    in
    if status <> Unix.WEXITED 0 then
      Alcotest.failf "trace --backend %s failed:\n%s" backend out;
    let slurp path =
      let ic = open_in path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      s
    in
    let doc = slurp json and drawing = slurp svg in
    List.iter
      (fun n ->
        if not (contains doc n) then
          Alcotest.failf "%s trace JSON lacks %S" backend n)
      [ {|"traceEvents"|}; {|"ph": "X"|}; {|"thread_name"|}; {|"ts"|} ];
    if not (contains drawing "<svg") then
      Alcotest.failf "%s timeline is not SVG" backend;
    (* "... N messages, M bytes ..." from the aggregate summary *)
    match
      List.find_opt (fun l -> contains l "messages") (String.split_on_char '\n' out)
    with
    | Some line -> line
    | None -> Alcotest.failf "%s summary lacks counters:\n%s" backend out
  in
  let sim = counters_of "sim" and shm = counters_of "shm" in
  let counters l =
    (* keep only "N messages, M bytes": completion differs by clock, and
       the in-flight high-water mark by interleaving *)
    let tail =
      match Astring.String.cut ~sep:" s, " l with
      | Some (_, t) -> t
      | None -> l
    in
    match Astring.String.cut ~sep:", max in-flight" tail with
    | Some (counts, _) -> counts
    | None -> tail
  in
  Alcotest.(check string) "backends agree on counters" (counters sim)
    (counters shm)

let test_simulate_trace_out () =
  let json = Filename.temp_file "tilec_sim" ".json" in
  check_ok
    (Printf.sprintf
       "simulate --app sor -M 12 -N 16 -x 3 -y 4 --trace %s"
       (Filename.quote json))
    [ "speedup" ];
  let ic = open_in json in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove json;
  if not (contains doc {|"traceEvents"|}) then
    Alcotest.fail "simulate --trace did not write a Chrome trace"

(* --backend is a Cmdliner enum: an unknown value must be rejected up
   front with a diagnostic that lists the valid backends *)
let test_trace_bad_backend () =
  let status, out = run "trace --app sor --backend lan" in
  Alcotest.(check bool) "non-zero exit" true (status <> Unix.WEXITED 0);
  if not (contains out "invalid value 'lan'") then
    Alcotest.failf "missing diagnostic:\n%s" out;
  if not (contains out "'sim'" && contains out "'shm'") then
    Alcotest.failf "diagnostic does not list sim and shm:\n%s" out

(* the overlapped schedule runs on the shm backend too: exact vs the
   oracle, and its counters agree with an overlapped sim run *)
let test_trace_overlap_shm () =
  let counters_of backend =
    let json = Filename.temp_file "tilec_trace_ovl" ".json" in
    let status, out =
      run
        (Printf.sprintf
           "trace --app sor -M 12 -N 16 -x 3 -y 4 -z 4 --backend %s --overlap \
            --out %s"
           backend (Filename.quote json))
    in
    Sys.remove json;
    if status <> Unix.WEXITED 0 then
      Alcotest.failf "trace --backend %s --overlap failed:\n%s" backend out;
    if backend = "shm" && not (contains out "max |parallel - sequential| = 0")
    then Alcotest.failf "overlapped shm run is not exact:\n%s" out;
    match
      List.find_opt
        (fun l -> contains l "messages")
        (String.split_on_char '\n' out)
    with
    | Some line -> line
    | None -> Alcotest.failf "%s summary lacks counters:\n%s" backend out
  in
  let sim = counters_of "sim" and shm = counters_of "shm" in
  let counters l =
    let tail =
      match Astring.String.cut ~sep:" s, " l with
      | Some (_, t) -> t
      | None -> l
    in
    match Astring.String.cut ~sep:", max in-flight" tail with
    | Some (counts, _) -> counts
    | None -> tail
  in
  Alcotest.(check string) "overlapped backends agree on counters"
    (counters sim) (counters shm)

(* a genuinely unsupported flag/backend combination is a Cmdliner usage
   error (usage line, exit 124), not a "tilec: error:" failwith *)
let test_perf_inflate_shm_usage_error () =
  let status, out = run "perf --app sor --backend shm --inflate 2.0" in
  Alcotest.(check bool) "non-zero exit" true (status <> Unix.WEXITED 0);
  if not (contains out "Usage: tilec perf") then
    Alcotest.failf "expected a usage error:\n%s" out;
  if contains out "tilec: error:" then
    Alcotest.failf "surfaced as a runtime failure, not a usage error:\n%s" out

(* tilec perf: record a baseline, a clean re-run passes the gate, and a
   synthetically slowed run (inflated net model) trips it *)
let test_perf_record_check () =
  let dir = Filename.temp_file "tilec_perf" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let base =
    Printf.sprintf
      "--app sor -M 12 -N 16 --variant nonrect -x 3 -y 4 -z 4 --repeats 2 \
       --warmup 1 --dir %s"
      (Filename.quote dir)
  in
  check_ok ("perf " ^ base ^ " --record") [ "recorded" ];
  check_ok ("perf " ^ base ^ " --check") [ "PASS" ];
  let status, out = run ("perf " ^ base ^ " --check --inflate 3.0") in
  Alcotest.(check bool) "regression exits non-zero" true
    (status <> Unix.WEXITED 0);
  if not (contains out "REGRESSION") then
    Alcotest.failf "slowed run did not report a regression:\n%s" out;
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir

(* ---------------- exit codes ----------------
   Every failure class has its own documented code so CI and scripts can
   react without parsing stderr: 1 runtime, 2 perf regression,
   3 slab mismatch, 4 rendezvous timeout, 124 usage. *)

let check_exit args code =
  let status, out = run args in
  match status with
  | Unix.WEXITED c ->
    if c <> code then
      Alcotest.failf "tilec %s: expected exit %d, got %d:\n%s" args code c out
  | _ -> Alcotest.failf "tilec %s: killed by signal:\n%s" args out

let test_exit_codes () =
  (* runtime failure: a singular tiling *)
  check_exit "plan --app sor -M 12 -N 16 --variant nonrect -x 6 -y 7 -z 0" 1;
  (* runtime failure: unknown app *)
  check_exit "plan --app nope" 1;
  (* usage errors: Cmdliner's cli_error *)
  check_exit "trace --app sor --backend lan" 124;
  check_exit "perf --app sor --backend shm --inflate 2.0" 124;
  check_exit "serve --workers 0" 1

let test_exit_code_regression () =
  (* perf --check regressions exit 2, distinct from generic failures *)
  let dir = Filename.temp_file "tilec_exit2" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let base =
    Printf.sprintf
      "--app sor -M 12 -N 16 --variant nonrect -x 3 -y 4 -z 4 --repeats 1 \
       --warmup 0 --dir %s"
      (Filename.quote dir)
  in
  check_ok ("perf " ^ base ^ " --record") [ "recorded" ];
  check_exit ("perf " ^ base ^ " --check --inflate 3.0") 2;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir

(* ---------------- the serve daemon over a pipe ---------------- *)

module Json = Tiles_util.Json

(* One worker, a deliberately slow tune job first: while the worker
   chews on it, the three identical plan requests behind it are read,
   submitted and coalesced — deterministically, because reading a pipe
   line is microseconds and the tune is hundreds of milliseconds. *)
let test_serve_pipe () =
  let requests =
    String.concat "\n"
      [
        {|{"id":"warm","op":"tune","app":"adi","variant":"nr1","size1":10,"size2":12,"procs":4,"factors":[2,3]}|};
        {|{"id":"p1","op":"plan","app":"sor","size1":12,"size2":16,"tile":[3,4,4]}|};
        {|{"id":"p2","op":"plan","app":"sor","size1":12,"size2":16,"tile":[3,4,4]}|};
        {|{"id":"p3","op":"plan","app":"sor","size1":12,"size2":16,"tile":[3,4,4]}|};
        {|{"id":"bad","op":"plan","app":"fft"}|};
        {|not even json|};
        {|{"op":"metrics"}|};
        {|{"op":"shutdown"}|};
      ]
    ^ "\n"
  in
  let reqfile = Filename.temp_file "tilec_serve_req" ".jsonl" in
  let oc = open_out reqfile in
  output_string oc requests;
  close_out oc;
  let status, out =
    run
      (Printf.sprintf "serve --workers 1 --capacity 8 < %s"
         (Filename.quote reqfile))
  in
  Sys.remove reqfile;
  if status <> Unix.WEXITED 0 then Alcotest.failf "serve failed:\n%s" out;
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' out)
  in
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok j -> j
        | Error e -> Alcotest.failf "unparseable response %S: %s" l e)
      lines
  in
  let by_id id =
    match
      List.find_opt (fun j -> Json.member "id" j = Some (Json.Str id)) parsed
    with
    | Some j -> j
    | None -> Alcotest.failf "no response for %S in:\n%s" id out
  in
  let str_field name j =
    match Json.member name j with
    | Some (Json.Str s) -> s
    | _ -> Alcotest.failf "missing %S" name
  in
  (* every job answered exactly once *)
  List.iter
    (fun id -> Alcotest.(check string) (id ^ " ok") "ok" (str_field "status" (by_id id)))
    [ "warm"; "p1"; "p2"; "p3" ];
  Alcotest.(check string) "unknown app errors" "error"
    (str_field "status" (by_id "bad"));
  (* the garbage line got an error response, not a crash *)
  Alcotest.(check bool) "parse error answered" true
    (List.exists
       (fun j ->
         Json.member "status" j = Some (Json.Str "error")
         && Json.member "id" j = Some (Json.Str ""))
       parsed);
  (* identical requests coalesced: one miss, two batched followers with
     bit-identical payloads *)
  let labels = List.map (fun id -> str_field "cache" (by_id id)) [ "p1"; "p2"; "p3" ] in
  Alcotest.(check int) "one miss" 1
    (List.length (List.filter (( = ) "miss") labels));
  Alcotest.(check int) "two coalesced" 2
    (List.length (List.filter (( = ) "coalesced") labels));
  let payload id =
    match by_id id with
    | Json.Obj fields ->
      Json.to_line
        (Json.Obj
           (List.filter
              (fun (k, _) ->
                not (List.mem k [ "id"; "cache"; "queued_s"; "service_s" ]))
              fields))
    | _ -> Alcotest.fail "response not an object"
  in
  Alcotest.(check string) "p2 = p1" (payload "p1") (payload "p2");
  Alcotest.(check string) "p3 = p1" (payload "p1") (payload "p3");
  (* the shutdown line carries the final metrics snapshot *)
  let final =
    match
      List.find_opt (fun j -> Json.member "op" j = Some (Json.Str "shutdown")) parsed
    with
    | Some j -> j
    | None -> Alcotest.failf "no shutdown ack:\n%s" out
  in
  (match Json.member "metrics" final with
  | Some m -> (
    match Option.bind (Json.member "coalesce" m) (Json.member "batched") with
    | Some (Json.Int n) -> Alcotest.(check int) "batched counter" 2 n
    | _ -> Alcotest.fail "metrics lack coalesce.batched")
  | None -> Alcotest.fail "shutdown ack lacks metrics");
  (* and a metrics snapshot was served mid-stream *)
  Alcotest.(check bool) "metrics op answered" true
    (List.exists
       (fun j -> Json.member "op" j = Some (Json.Str "metrics"))
       parsed)

(* tilec analyze: causal critical path on a fresh sim run, artifact
   roundtrip via --from, streaming mode, and the flag conflicts *)
let test_analyze () =
  let json = Filename.temp_file "tilec_analyze" ".json" in
  let svg = Filename.temp_file "tilec_analyze" ".svg" in
  check_ok
    (Printf.sprintf
       "analyze --app sor -M 12 -N 16 -x 3 -y 4 -z 4 --backend sim --out %s \
        --svg %s"
       (Filename.quote json) (Filename.quote svg))
    [ "causal critical path"; "coverage 100.0%"; "top laggards"; "flight" ];
  let slurp path =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let doc = slurp json and drawing = slurp svg in
  (* the exported trace carries flow events and the SVG marks the path *)
  List.iter
    (fun n ->
      if not (contains doc n) then Alcotest.failf "trace JSON lacks %S" n)
    [ {|"tiles-flow"|}; {|"ph": "s"|}; {|"ph": "f"|}; {|"seq"|} ];
  if not (contains drawing "critical path") then
    Alcotest.fail "SVG lacks the critical-path legend";
  (* re-analyzing the artifact reproduces the same headline *)
  check_ok
    (Printf.sprintf "analyze --from %s" (Filename.quote json))
    [ "causal critical path"; "coverage 100.0%" ];
  Sys.remove json;
  Sys.remove svg

let test_analyze_stream () =
  check_ok
    "analyze --app jacobi -t 8 -n 16 -x 3 -y 4 -z 4 --backend sim --stream"
    [ "longest waits"; "completion"; "mean busy" ]

let test_analyze_json () =
  let status, out =
    run "analyze --app sor -M 12 -N 16 -x 3 -y 4 -z 4 --json"
  in
  if status <> Unix.WEXITED 0 then
    Alcotest.failf "analyze --json failed:\n%s" out;
  List.iter
    (fun n ->
      if not (contains out n) then
        Alcotest.failf "analyze --json: %S not in output:\n%s" n out)
    [
      {|"path_length_s"|}; {|"coverage"|}; {|"kind_seconds"|};
      {|"slack_s"|}; {|"segments"|}; {|"laggards"|};
    ]

let test_analyze_usage_errors () =
  (* neither --app nor --from; and --stream excludes the span consumers *)
  check_exit "analyze" 1;
  check_exit "analyze --app sor --stream --svg /tmp/x.svg" 1;
  check_exit "analyze --from /nonexistent/trace.json" 1

let test_tune () =
  check_ok
    "tune --app adi -t 10 -n 12 --procs 4 --factors 2,3 --top 3 --workers 2"
    [ "tune adi"; "measured ms"; "best:"; "plan for adi" ]

let test_tune_json () =
  let status, out =
    run "tune --app adi -t 10 -n 12 --procs 4 --factors 2,3 --top 2 --json"
  in
  if status <> Unix.WEXITED 0 then Alcotest.failf "tune --json failed:\n%s" out;
  List.iter
    (fun n ->
      if not (contains out n) then
        Alcotest.failf "tune --json: %S not in output:\n%s" n out)
    [
      {|"best"|}; {|"simulated"|}; {|"pruned"|}; {|"generated"|};
      {|"label"|}; {|"completion_s"|}; {|"predicted"|};
    ]

let () =
  Alcotest.run "tilec_cli"
    [
      ( "cli",
        [
          Alcotest.test_case "plan" `Quick test_plan;
          Alcotest.test_case "cone" `Quick test_cone;
          Alcotest.test_case "simulate --full" `Quick test_simulate;
          Alcotest.test_case "emit-mpi" `Quick test_emit;
          Alcotest.test_case "emit-seq" `Quick test_emit_seq;
          Alcotest.test_case "simulate --utilisation" `Quick
            test_simulate_utilisation;
          Alcotest.test_case "bad app" `Quick test_bad_app;
          Alcotest.test_case "singular tiling error" `Quick test_singular_tiling;
          Alcotest.test_case "illegal tiling error" `Quick test_illegal_tiling;
          Alcotest.test_case "trace both backends" `Quick test_trace;
          Alcotest.test_case "simulate --trace" `Quick test_simulate_trace_out;
          Alcotest.test_case "trace bad backend" `Quick test_trace_bad_backend;
          Alcotest.test_case "trace overlap shm" `Quick test_trace_overlap_shm;
          Alcotest.test_case "perf inflate+shm usage error" `Quick
            test_perf_inflate_shm_usage_error;
          Alcotest.test_case "perf record/check" `Quick test_perf_record_check;
          Alcotest.test_case "analyze roundtrip" `Quick test_analyze;
          Alcotest.test_case "analyze --stream" `Quick test_analyze_stream;
          Alcotest.test_case "analyze --json" `Quick test_analyze_json;
          Alcotest.test_case "analyze usage errors" `Quick
            test_analyze_usage_errors;
          Alcotest.test_case "tune" `Quick test_tune;
          Alcotest.test_case "tune --json" `Quick test_tune_json;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "regression exit 2" `Quick
            test_exit_code_regression;
          Alcotest.test_case "serve pipe e2e" `Quick test_serve_pipe;
        ] );
    ]
