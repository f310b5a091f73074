module Fbuf = Tiles_util.Fbuf
module Sim = Tiles_mpisim.Sim
module Netmodel = Tiles_mpisim.Netmodel
module Trace = Tiles_mpisim.Trace
module Stats = Tiles_obs.Stats

let net = Netmodel.fast_ethernet_cluster

let eps = 1e-12
let close a b = Float.abs (a -. b) < eps

let test_single_rank_compute () =
  let stats = Sim.run ~nprocs:1 ~net (fun _ -> Sim.Api.compute 1.5) in
  Alcotest.(check bool) "completion" true (close stats.Sim.completion 1.5);
  Alcotest.(check int) "no messages" 0 stats.Sim.messages

let test_ping () =
  (* rank 0 sends 100 floats to rank 1 *)
  let payload_bytes = 8 * 100 in
  let stats =
    Sim.run ~nprocs:2 ~net (fun r ->
        if r = 0 then Sim.Api.send ~dst:1 ~tag:0 (Fbuf.make 100 3.14)
        else begin
          let buf = Sim.Api.recv ~src:0 ~tag:0 in
          Alcotest.(check int) "length" 100 (Fbuf.length buf);
          Alcotest.(check (float 0.)) "value" 3.14 buf.{0}
        end)
  in
  let send_done =
    net.Netmodel.send_overhead +. Netmodel.transfer_time net ~bytes:payload_bytes
  in
  let expect = send_done +. net.Netmodel.latency +. net.Netmodel.recv_overhead in
  Alcotest.(check bool) "timing" true (close stats.Sim.completion expect);
  Alcotest.(check int) "one message" 1 stats.Sim.messages;
  Alcotest.(check int) "bytes" payload_bytes stats.Sim.bytes

let test_recv_before_send () =
  (* receiver arrives first and must park *)
  let stats =
    Sim.run ~nprocs:2 ~net (fun r ->
        if r = 1 then ignore (Sim.Api.recv ~src:0 ~tag:7)
        else begin
          Sim.Api.compute 1.0;
          Sim.Api.send ~dst:1 ~tag:7 (Fbuf.of_array [| 42. |])
        end)
  in
  Alcotest.(check bool) "receiver waited" true (stats.Sim.completion > 1.0)

let test_fifo_per_channel () =
  let got = ref [] in
  ignore
    (Sim.run ~nprocs:2 ~net (fun r ->
         if r = 0 then
           for i = 1 to 5 do
             Sim.Api.send ~dst:1 ~tag:0 (Fbuf.of_array [| float_of_int i |])
           done
         else
           for _ = 1 to 5 do
             let b = Sim.Api.recv ~src:0 ~tag:0 in
             got := b.{0} :: !got
           done));
  Alcotest.(check (list (float 0.))) "fifo order" [ 1.; 2.; 3.; 4.; 5. ]
    (List.rev !got)

let test_tag_matching () =
  (* out-of-order tags are matched by tag, not arrival order *)
  let got = ref [] in
  ignore
    (Sim.run ~nprocs:2 ~net (fun r ->
         if r = 0 then begin
           Sim.Api.send ~dst:1 ~tag:2 (Fbuf.of_array [| 2. |]);
           Sim.Api.send ~dst:1 ~tag:1 (Fbuf.of_array [| 1. |])
         end
         else begin
           got := (Sim.Api.recv ~src:0 ~tag:1).{0} :: !got;
           got := (Sim.Api.recv ~src:0 ~tag:2).{0} :: !got
         end));
  Alcotest.(check (list (float 0.))) "by tag" [ 1.; 2. ] (List.rev !got)

let test_isend_overlap () =
  (* the sender pays only the overhead; a following compute overlaps the
     wire time, so sender finishes earlier than with a blocking send *)
  let payload = Fbuf.make 10000 1.0 in
  let run send =
    Sim.run ~nprocs:2 ~net (fun r ->
        if r = 0 then begin
          send ~dst:1 ~tag:0 payload;
          Sim.Api.compute 0.001
        end
        else ignore (Sim.Api.recv ~src:0 ~tag:0))
  in
  let blocking = run Sim.Api.send in
  let overlapped = run Sim.Api.isend in
  Alcotest.(check bool) "sender rank finishes earlier" true
    (overlapped.Sim.rank_clocks.(0) < blocking.Sim.rank_clocks.(0));
  (* receiver still gets the data after the wire time *)
  Alcotest.(check bool) "receiver waits for the wire" true
    (overlapped.Sim.rank_clocks.(1)
    >= Netmodel.transfer_time net ~bytes:80000)

let test_deadlock () =
  Alcotest.(check bool) "deadlock raised" true
    (try
       ignore
         (Sim.run ~nprocs:2 ~net (fun r ->
              ignore (Sim.Api.recv ~src:(1 - r) ~tag:0)));
       false
     with Sim.Deadlock _ -> true)

let test_barrier () =
  let stats =
    Sim.run ~nprocs:4 ~net (fun r ->
        Sim.Api.compute (float_of_int r);
        Sim.Api.barrier ();
        let t = Sim.Api.now () in
        (* everyone leaves at max clock + latency *)
        Alcotest.(check bool) "left together" true
          (close t (3.0 +. net.Netmodel.latency)))
  in
  Alcotest.(check bool) "completion" true
    (close stats.Sim.completion (3.0 +. net.Netmodel.latency))

let test_pipeline_timing () =
  (* 1 -> 2 -> 3: completion accumulates compute along the chain *)
  let stats =
    Sim.run ~nprocs:3 ~net (fun r ->
        if r > 0 then ignore (Sim.Api.recv ~src:(r - 1) ~tag:0);
        Sim.Api.compute 1.0;
        if r < 2 then Sim.Api.send ~dst:(r + 1) ~tag:0 (Fbuf.of_array [| 1. |]))
  in
  Alcotest.(check bool) "at least 3s" true (stats.Sim.completion >= 3.0);
  Alcotest.(check bool) "plus comm" true (stats.Sim.completion < 3.01)

let test_determinism () =
  let run () =
    Sim.run ~nprocs:4 ~net (fun r ->
        (* a little all-to-neighbour exchange *)
        let next = (r + 1) mod 4 and prev = (r + 3) mod 4 in
        Sim.Api.compute (0.1 *. float_of_int (r + 1));
        Sim.Api.send ~dst:next ~tag:0 (Fbuf.of_array [| float_of_int r |]);
        let b = Sim.Api.recv ~src:prev ~tag:0 in
        Sim.Api.compute (0.01 *. b.{0}))
  in
  let a = run () and b = run () in
  Alcotest.(check (float 0.)) "same completion" a.Sim.completion b.Sim.completion;
  Alcotest.(check int) "same messages" a.Sim.messages b.Sim.messages

let test_rank_api () =
  ignore
    (Sim.run ~nprocs:3 ~net (fun r ->
         Alcotest.(check int) "rank" r (Sim.Api.rank ());
         Alcotest.(check int) "nprocs" 3 (Sim.Api.nprocs ())))

let test_exception_propagates () =
  Alcotest.check_raises "escapes" (Failure "boom") (fun () ->
      ignore (Sim.run ~nprocs:2 ~net (fun r -> if r = 1 then failwith "boom")))

let test_send_copies () =
  (* mutating the buffer after send must not affect the message *)
  ignore
    (Sim.run ~nprocs:2 ~net (fun r ->
         if r = 0 then begin
           let buf = Fbuf.of_array [| 1.0 |] in
           Sim.Api.send ~dst:1 ~tag:0 buf;
           buf.{0} <- 99.
         end
         else
           Alcotest.(check (float 0.)) "copied" 1.0
             (Sim.Api.recv ~src:0 ~tag:0).{0}))

let test_zero_nprocs () =
  Alcotest.check_raises "invalid" (Invalid_argument "Sim.run: nprocs")
    (fun () -> ignore (Sim.run ~nprocs:0 ~net (fun _ -> ())))

(* a rank's time not spent busy or blocked: from its own finish to the
   global completion, plus any unaccounted gaps *)
let idle (s : Stats.t) (r : Stats.rank) = s.completion -. r.busy -. r.wait

(* Σ compute / (nprocs · completion): 1.0 is a perfectly busy machine *)
let compute_fraction (s : Stats.t) =
  s.total_compute /. (float_of_int s.nprocs *. s.completion)

let test_trace_and_utilisation () =
  let stats =
    Sim.run ~trace:true ~nprocs:2 ~net (fun r ->
        if r = 0 then begin
          Sim.Api.compute 1.0;
          Sim.Api.send ~dst:1 ~tag:0 (Fbuf.of_array [| 1. |])
        end
        else begin
          ignore (Sim.Api.recv ~src:0 ~tag:0);
          Sim.Api.compute 0.5
        end)
  in
  Alcotest.(check bool) "trace recorded" true (stats.Sim.trace <> []);
  let s = Trace.aggregate stats in
  let u = s.Stats.ranks in
  Alcotest.(check (float 1e-9)) "rank0 compute" 1.0 u.(0).Stats.compute;
  Alcotest.(check (float 1e-9)) "rank1 compute" 0.5 u.(1).Stats.compute;
  Alcotest.(check bool) "rank1 waited" true (u.(1).Stats.wait > 0.9);
  Alcotest.(check bool) "compute fraction in (0,1]" true
    (let e = compute_fraction s in
     e > 0. && e <= 1.);
  (* rank 1 finishes last, so it has no idle tail; rank 0 does *)
  Alcotest.(check (float 1e-9)) "rank1 not idle" 0. (idle s u.(1));
  Alcotest.(check bool) "rank0 idle" true (idle s u.(0) > 0.)

(* on a real traced run (SOR through the executor), every rank's
   time components must account for the whole schedule *)
let test_traced_sor_utilisation () =
  let module Plan = Tiles_core.Plan in
  let module Executor = Tiles_runtime.Executor in
  let p = Tiles_apps.Sor.make ~m_steps:12 ~size:16 in
  let plan =
    Plan.make ~m:2 (Tiles_apps.Sor.nest p)
      (Tiles_apps.Sor.nonrect ~x:6 ~y:7 ~z:4)
  in
  let r =
    Executor.run ~mode:Executor.Timing ~trace:true ~plan
      ~kernel:(Tiles_apps.Sor.kernel p) ~net ()
  in
  let s = Trace.aggregate r.Executor.stats in
  Alcotest.(check bool) "several ranks" true (Array.length s.Stats.ranks > 1);
  Array.iter
    (fun (c : Stats.rank) ->
      let idle = idle s c in
      let sum = c.compute +. c.pack +. c.send +. c.wait +. c.unpack +. idle in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "rank %d components sum to completion" c.rank)
        r.Executor.stats.Sim.completion sum;
      List.iter
        (fun (part, v) ->
          if v < -1e-12 then
            Alcotest.failf "rank %d: negative %s time %.3e" c.rank part v)
        [
          ("compute", c.compute);
          ("pack", c.pack);
          ("send", c.send);
          ("wait", c.wait);
          ("unpack", c.unpack);
          ("idle", idle);
        ])
    s.Stats.ranks;
  let e = compute_fraction s in
  Alcotest.(check bool) "compute fraction in (0,1]" true (e > 0. && e <= 1.)

let test_trace_off_by_default () =
  let stats = Sim.run ~nprocs:1 ~net (fun _ -> Sim.Api.compute 1.0) in
  Alcotest.(check bool) "no trace" true (stats.Sim.trace = [])

let spans_of stats rank kind =
  List.filter
    (fun s -> s.Sim.rank = rank && s.Sim.kind = kind)
    stats.Sim.trace

let span_total spans = List.fold_left (fun a s -> a +. (s.Sim.t1 -. s.Sim.t0)) 0. spans

(* receiver arrives long after the message: no Wait span may be recorded
   (the old recorder logged the [t0, t0 + overhead] interval as Wait even
   when nothing was waited for) *)
let test_recv_no_wait_when_ready () =
  let module Span = Tiles_obs.Span in
  let stats =
    Sim.run ~trace:true ~nprocs:2 ~net (fun r ->
        if r = 0 then Sim.Api.send ~dst:1 ~tag:0 (Fbuf.of_array [| 1. |])
        else begin
          Sim.Api.compute 10.0;
          ignore (Sim.Api.recv ~src:0 ~tag:0)
        end)
  in
  Alcotest.(check (list (float 0.))) "no wait spans" []
    (List.map (fun s -> s.Sim.t1 -. s.Sim.t0) (spans_of stats 1 Span.Wait));
  Alcotest.(check bool) "unpack = recv overhead" true
    (close (span_total (spans_of stats 1 Span.Unpack))
       net.Netmodel.recv_overhead);
  Alcotest.(check bool) "clock = compute + overhead" true
    (close stats.Sim.rank_clocks.(1) (10.0 +. net.Netmodel.recv_overhead))

(* parked receiver: the Wait span covers exactly the blocked interval
   (from the park time to the arrival), and the per-message receive
   overhead is a separate Unpack span *)
let test_recv_wait_covers_blocked_interval () =
  let module Span = Tiles_obs.Span in
  let stats =
    Sim.run ~trace:true ~nprocs:2 ~net (fun r ->
        if r = 0 then begin
          Sim.Api.compute 1.0;
          Sim.Api.send ~dst:1 ~tag:0 (Fbuf.of_array [| 1. |])
        end
        else begin
          Sim.Api.compute 0.25;
          ignore (Sim.Api.recv ~src:0 ~tag:0)
        end)
  in
  match spans_of stats 1 Span.Wait with
  | [ w ] ->
    Alcotest.(check bool) "wait starts at park time" true (close w.Sim.t0 0.25);
    Alcotest.(check bool) "wait ends at arrival" true
      (close w.Sim.t1
         (stats.Sim.rank_clocks.(1) -. net.Netmodel.recv_overhead));
    Alcotest.(check bool) "arrival after sender compute" true (w.Sim.t1 > 1.0);
    Alcotest.(check bool) "unpack = recv overhead" true
      (close (span_total (spans_of stats 1 Span.Unpack))
         net.Netmodel.recv_overhead)
  | spans -> Alcotest.failf "expected one wait span, got %d" (List.length spans)

(* pack/unpack charges appear as their own span kinds *)
let test_pack_unpack_spans () =
  let module Span = Tiles_obs.Span in
  let stats =
    Sim.run ~trace:true ~nprocs:1 ~net (fun _ ->
        Sim.Api.pack 0.25;
        Sim.Api.compute 1.0;
        Sim.Api.unpack 0.5)
  in
  Alcotest.(check bool) "pack total" true
    (close (span_total (spans_of stats 0 Span.Pack)) 0.25);
  Alcotest.(check bool) "unpack total" true
    (close (span_total (spans_of stats 0 Span.Unpack)) 0.5);
  Alcotest.(check bool) "completion" true (close stats.Sim.completion 1.75)

(* per-rank counters split the totals by sender *)
let test_per_rank_counters () =
  let stats =
    Sim.run ~nprocs:3 ~net (fun r ->
        if r = 0 then begin
          Sim.Api.send ~dst:1 ~tag:0 (Fbuf.of_array [| 1.; 2. |]);
          Sim.Api.send ~dst:2 ~tag:0 (Fbuf.of_array [| 3. |])
        end
        else ignore (Sim.Api.recv ~src:0 ~tag:0))
  in
  Alcotest.(check (list int)) "rank messages" [ 2; 0; 0 ]
    (Array.to_list stats.Sim.rank_messages);
  Alcotest.(check (list int)) "rank bytes" [ 24; 0; 0 ]
    (Array.to_list stats.Sim.rank_bytes);
  Alcotest.(check int) "total messages" 2 stats.Sim.messages;
  Alcotest.(check int) "total bytes" 24 stats.Sim.bytes

let test_netmodel () =
  Alcotest.(check (float 1e-9)) "transfer" 8e-5
    (Netmodel.transfer_time { net with Netmodel.bandwidth = 1e6 } ~bytes:80);
  let scaled = Netmodel.with_ratio net 2.0 in
  Alcotest.(check (float 1e-12)) "ratio"
    (2.0 *. net.Netmodel.flop_time)
    scaled.Netmodel.flop_time

(* ---------------- contended network model ---------------- *)

let test_net_spec () =
  (match Netmodel.of_spec "alpha-beta" with
  | Ok n -> Alcotest.(check string) "ab id" "fast_ethernet_cluster"
              (Netmodel.model_id n)
  | Error e -> Alcotest.fail e);
  (match Netmodel.of_spec "contended:snd=2,rcv=3,uplink=1e9" with
  | Ok n ->
    (match n.Netmodel.model with
    | Netmodel.Contended c ->
      Alcotest.(check int) "snd" 2 c.Netmodel.snd_lanes;
      Alcotest.(check int) "rcv" 3 c.Netmodel.rcv_lanes;
      Alcotest.(check (option (float 0.))) "uplink" (Some 1e9)
        c.Netmodel.uplink
    | Netmodel.Alpha_beta -> Alcotest.fail "expected contended")
  | Error e -> Alcotest.fail e);
  (* distinct parameters must never alias in metadata or cache keys *)
  let id s =
    match Netmodel.of_spec s with
    | Ok n -> Netmodel.model_id n
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "ids distinct" true
    (id "contended" <> id "contended:lanes=2"
    && id "contended" <> id "contended:uplink=1e9");
  match Netmodel.of_spec "contended:snd=0" with
  | Ok _ -> Alcotest.fail "snd=0 must be rejected"
  | Error _ -> ()

(* a random timing-independent program: every rank sends [degree]
   messages to its right neighbours then receives the mirror image, so
   control flow never depends on the cost parameters — the precondition
   for the monotonicity guarantees the contended model makes *)
let random_program ~nprocs ~degree ~sizes ~isend r =
  for k = 1 to degree do
    let dst = (r + k) mod nprocs in
    let n = sizes.((r * degree + k - 1) mod Array.length sizes) in
    let buf = Fbuf.make n 1.0 in
    if isend then Sim.Api.isend ~dst ~tag:k buf
    else Sim.Api.send ~dst ~tag:k buf
  done;
  Sim.Api.compute 1e-4;
  for k = 1 to degree do
    let src = (r - k + nprocs) mod nprocs in
    ignore (Sim.Api.recv ~src ~tag:k)
  done

let gen_case =
  QCheck.Gen.(
    int_range 2 8 >>= fun nprocs ->
    int_range 1 (min 3 (nprocs - 1)) >>= fun degree ->
    bool >>= fun isend ->
    array_size (return (nprocs * degree)) (int_range 1 4096) >>= fun sizes ->
    return (nprocs, degree, isend, sizes))

let arb_case =
  QCheck.make
    ~print:(fun (nprocs, degree, isend, sizes) ->
      Printf.sprintf "nprocs=%d degree=%d isend=%b sizes=[%s]" nprocs degree
        isend
        (String.concat ";" (Array.to_list (Array.map string_of_int sizes))))
    gen_case

let run_case ~net' (nprocs, degree, isend, sizes) =
  Sim.run ~nprocs ~net:net' (random_program ~nprocs ~degree ~sizes ~isend)

let contended ?uplink lanes =
  Netmodel.contended ~snd_lanes:lanes ~rcv_lanes:lanes ?uplink net

(* with a lane per possible concurrent transfer and no uplink cap the
   contended path must reproduce alpha-beta bit for bit — same float
   operations in the same order, not merely close *)
let prop_free_lanes_alpha_beta =
  QCheck.Test.make ~name:"contended with free lanes = alpha-beta (exact)"
    ~count:60 arb_case (fun case ->
      let (nprocs, degree, _, _) = case in
      let a = run_case ~net':net case in
      let c = run_case ~net':(contended (nprocs * degree + 1)) case in
      a.Sim.completion = c.Sim.completion
      && a.Sim.rank_clocks = c.Sim.rank_clocks
      && c.Sim.queue_seconds = 0.)

let prop_monotone_bandwidth =
  QCheck.Test.make ~name:"contended completion monotone as bandwidth drops"
    ~count:60 arb_case (fun case ->
      let full = run_case ~net':(contended 1) case in
      let half =
        run_case
          ~net':{ (contended 1) with
                  Netmodel.bandwidth = net.Netmodel.bandwidth /. 2. }
          case
      in
      half.Sim.completion >= full.Sim.completion -. 1e-12)

let prop_monotone_lanes =
  QCheck.Test.make ~name:"contended completion monotone as lanes shrink"
    ~count:60 arb_case (fun case ->
      let one = run_case ~net':(contended 1) case in
      let two = run_case ~net':(contended 2) case in
      let capped = run_case ~net':(contended ~uplink:1e6 1) case in
      one.Sim.completion >= two.Sim.completion -. 1e-12
      && capped.Sim.completion >= one.Sim.completion -. 1e-12)

let prop_queue_accounting =
  QCheck.Test.make ~name:"queueing nonnegative and consistent" ~count:60
    arb_case (fun case ->
      let s = run_case ~net':(contended ~uplink:5e6 1) case in
      let per_rank =
        Array.fold_left ( +. ) 0. s.Sim.rank_queue_seconds
      in
      s.Sim.queue_seconds >= 0.
      && Array.for_all (fun q -> q >= 0.) s.Sim.rank_queue_seconds
      && Float.abs (per_rank -. s.Sim.queue_seconds) <= 1e-9
      (* and alpha-beta charges none *)
      && (run_case ~net':net case).Sim.queue_seconds = 0.)

let prop_critpath_tiles_completion =
  QCheck.Test.make
    ~name:"contended critpath segments sum to completion (queue attributed)"
    ~count:40 arb_case (fun case ->
      let (nprocs, degree, isend, sizes) = case in
      let s =
        Sim.run ~trace:true ~nprocs ~net:(contended 1)
          (random_program ~nprocs ~degree ~sizes ~isend)
      in
      let report =
        Tiles_obs.Critpath.analyze ~completion:s.Sim.completion ~nprocs
          ~edges:s.Sim.edges s.Sim.trace
      in
      let open Tiles_obs in
      let sum =
        List.fold_left
          (fun acc sg -> acc +. Critpath.seg_duration sg)
          0. report.Critpath.segments
      in
      Float.abs (sum -. s.Sim.completion) <= 1e-9
      && Float.abs (report.Critpath.path_length -. s.Sim.completion) <= 1e-9
      && List.for_all
           (fun sg ->
             sg.Critpath.sg_kind <> Critpath.Queue
             || Critpath.seg_duration sg >= 0.)
           report.Critpath.segments)

(* flight queueing must be visible on the matched edges of a traced
   contended run, and absent under alpha-beta *)
let test_edge_queueing () =
  let program r =
    (* both senders contend for rank 2's single receive lane *)
    if r < 2 then Sim.Api.isend ~dst:2 ~tag:r (Fbuf.make 4096 1.0)
    else begin
      ignore (Sim.Api.recv ~src:0 ~tag:0);
      ignore (Sim.Api.recv ~src:1 ~tag:1)
    end
  in
  let ab = Sim.run ~trace:true ~nprocs:3 ~net program in
  List.iter
    (fun (e : Tiles_obs.Recorder.edge) ->
      Alcotest.(check (float 0.)) "alpha-beta edge queueing" 0.
        e.Tiles_obs.Recorder.e_queued)
    ab.Sim.edges;
  Alcotest.(check (float 0.)) "alpha-beta total queueing" 0.
    ab.Sim.queue_seconds;
  let c = Sim.run ~trace:true ~nprocs:3 ~net:(contended 1) program in
  Alcotest.(check bool) "contended run queued" true (c.Sim.queue_seconds > 0.);
  let max_edge_q =
    List.fold_left
      (fun acc (e : Tiles_obs.Recorder.edge) ->
        Float.max acc e.Tiles_obs.Recorder.e_queued)
      0. c.Sim.edges
  in
  Alcotest.(check bool) "some edge carries queueing" true (max_edge_q > 0.)

let () =
  Alcotest.run "tiles_mpisim"
    [
      ( "sim",
        [
          Alcotest.test_case "single rank" `Quick test_single_rank_compute;
          Alcotest.test_case "ping" `Quick test_ping;
          Alcotest.test_case "recv before send" `Quick test_recv_before_send;
          Alcotest.test_case "fifo" `Quick test_fifo_per_channel;
          Alcotest.test_case "tag matching" `Quick test_tag_matching;
          Alcotest.test_case "isend overlap" `Quick test_isend_overlap;
          Alcotest.test_case "deadlock" `Quick test_deadlock;
          Alcotest.test_case "barrier" `Quick test_barrier;
          Alcotest.test_case "pipeline timing" `Quick test_pipeline_timing;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "rank api" `Quick test_rank_api;
          Alcotest.test_case "exception" `Quick test_exception_propagates;
          Alcotest.test_case "send copies" `Quick test_send_copies;
          Alcotest.test_case "zero nprocs" `Quick test_zero_nprocs;
          Alcotest.test_case "trace + utilisation" `Quick test_trace_and_utilisation;
          Alcotest.test_case "traced sor utilisation" `Quick
            test_traced_sor_utilisation;
          Alcotest.test_case "trace off by default" `Quick test_trace_off_by_default;
          Alcotest.test_case "recv no spurious wait" `Quick
            test_recv_no_wait_when_ready;
          Alcotest.test_case "recv wait = blocked interval" `Quick
            test_recv_wait_covers_blocked_interval;
          Alcotest.test_case "pack/unpack spans" `Quick test_pack_unpack_spans;
          Alcotest.test_case "per-rank counters" `Quick test_per_rank_counters;
          Alcotest.test_case "netmodel" `Quick test_netmodel;
        ] );
      ( "contended",
        [
          Alcotest.test_case "net spec parsing" `Quick test_net_spec;
          Alcotest.test_case "edge queueing" `Quick test_edge_queueing;
          QCheck_alcotest.to_alcotest prop_free_lanes_alpha_beta;
          QCheck_alcotest.to_alcotest prop_monotone_bandwidth;
          QCheck_alcotest.to_alcotest prop_monotone_lanes;
          QCheck_alcotest.to_alcotest prop_queue_accounting;
          QCheck_alcotest.to_alcotest prop_critpath_tiles_completion;
        ] );
    ]
