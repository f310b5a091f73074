(* The tilec benchmark: one command, three workloads, every metric by
   name and unit, every output checked.

     main.exe --workload paper-sweep|solve|serve --seed N --seconds S
              --trace 0|1

   Human-readable detail goes to stderr; the last stdout line is one
   JSON object {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 they
   are the per-layer split. Every layer is timed from outside, by
   wrapping calls to the library's public functions — nothing inside
   lib/ is instrumented. README.md defines every metric. *)

module Json = Tiles_util.Json
module Nest = Tiles_loop.Nest
module Tiling = Tiles_core.Tiling
module Tile_space = Tiles_core.Tile_space
module Mapping = Tiles_core.Mapping
module Comm = Tiles_core.Comm
module Plan = Tiles_core.Plan
module Sim = Tiles_mpisim.Sim
module Netmodel = Tiles_mpisim.Netmodel
module Executor = Tiles_runtime.Executor
module Protocol = Tiles_runtime.Protocol
module Walker = Tiles_runtime.Walker
module Kernel = Tiles_runtime.Kernel
module Grid = Tiles_runtime.Grid
module Seq_exec = Tiles_runtime.Seq_exec
module Native_kernel = Tiles_runtime.Native_kernel
module E = Tiles_apps.Experiment
module Registry = Tiles_serve.Registry
module Server = Tiles_serve.Server
module Job = Tiles_serve.Job

let now = Tiles_obs.Clock.monotonic
let net = Netmodel.fast_ethernet_cluster
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---------------- statistics ---------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest-rank percentile, [pm] in per-mille *)
let percentile a pm =
  let n = Array.length a in
  a.(max 0 (((n * pm) + 999) / 1000 - 1))

let median xs = percentile (sorted xs) 500

(* The tail percentile of a workload is fixed, so every run reports the
   same statistic: [pm] in per-mille, and the fewest samples that leave
   at least 10 beyond it. A run with fewer samples has no comparable
   tail and counts as incorrect. *)
type tail_rung = { pm : int; min_samples : int }

let tail rung xs =
  let a = sorted xs in
  let n = Array.length a in
  log "latency: %d samples, tail is p%g (needs %d)" n
    (float_of_int rung.pm /. 10.) rung.min_samples;
  if n < rung.min_samples then
    log "latency: too few samples for the tail percentile";
  (percentile a rung.pm, n >= rung.min_samples)

let sum = List.fold_left ( +. ) 0.

let geomean xs =
  exp (sum (List.map Float.log xs) /. float_of_int (List.length xs))

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---------------- environment ---------------- *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* temporary space inside the working directory, removed at exit *)
let tmp_root = ".tilebench-tmp"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_cache_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o755;
    let d =
      Filename.concat tmp_root (Printf.sprintf "native-%d-%d" (Unix.getpid ()) !n)
    in
    Sys.mkdir d 0o755;
    d

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ---------------- results ---------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let print_outcome o =
  List.iter
    (fun x -> log "  %-34s %16.6f %s" x.name x.value x.unit_)
    o.metrics;
  let metrics =
    List.map
      (fun x ->
        ( x.name,
          Json.Obj [ ("value", Json.Float x.value); ("unit", Json.Str x.unit_) ]
        ))
      o.metrics
  in
  print_endline
    (Json.to_line
       (Json.Obj
          [
            ("correct", Json.Bool o.correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ("metrics", Json.Obj metrics);
          ]))

(* Counts operations and their latencies. *)
type ops = {
  mutable attempted : int;
  mutable failed : int;
  mutable lat : float list;  (** measured seconds per successful operation *)
  mutable busy : float;  (** measured seconds of every operation *)
}

let new_ops () = { attempted = 0; failed = 0; lat = []; busy = 0. }

(* [f] runs one operation and returns its measured seconds and the check
   of its output, so checks that cost time can stay outside the measured
   part. An operation that raises or fails its check counts as failed. *)
let attempt ops label f =
  ops.attempted <- ops.attempted + 1;
  let t0 = now () in
  match f () with
  | dt, Ok () ->
    ops.lat <- dt :: ops.lat;
    ops.busy <- ops.busy +. dt
  | dt, Error why ->
    ops.failed <- ops.failed + 1;
    ops.busy <- ops.busy +. dt;
    log "FAILED %s: %s" label why
  | exception e ->
    ops.failed <- ops.failed + 1;
    ops.busy <- ops.busy +. (now () -. t0);
    log "FAILED %s: %s" label (Printexc.to_string e)

(* the end-to-end metrics every workload reports, and whether the tail
   had enough samples *)
let end_to_end ~rung ~setup ~ops ~ops_per_s ~points_per_s ~speedups =
  let tl, tail_ok = tail rung ops.lat in
  ( [
      m "setup_s" "s" setup;
      m "ops_per_s" "1/s" ops_per_s;
      m "op_p50_ms" "ms" (1e3 *. median ops.lat);
      m "op_tail_ms" "ms" (1e3 *. tl);
      m "mpts_per_s" "Mpt/s" (points_per_s /. 1e6);
      m "sim_speedup_geomean" "x" (geomean speedups);
      m "ok_ratio" "ratio"
        (float_of_int (ops.attempted - ops.failed) /. float_of_int ops.attempted);
      m "peak_rss_mb" "MB" (peak_rss_mb ());
    ],
    tail_ok )

(* Run [setup] [n] times and keep the last result with the median
   time; [discard] releases each earlier result. *)
let repeated_setup ?(discard = ignore) n setup =
  let rec go k acc =
    let r, dt = time setup in
    if k = 1 then (r, median (dt :: acc))
    else begin
      discard r;
      go (k - 1) (dt :: acc)
    end
  in
  go n []

(* Whole passes over the seeded order, at least [min_passes] of them,
   until the operations have been measured for [seconds]. *)
let passes ?(min_passes = 1) ~seconds ~rng ~items ops f =
  let n = ref 0 in
  while !n < min_passes || ops.busy < seconds do
    List.iter f (shuffle rng items);
    incr n
  done;
  !n

(* ---------------- traced protocol run ----------------

   The simulator runs every rank as a fiber on one thread, so host time
   inside Sim.run alternates between rank code and the DES. Wrapping
   the public Protocol.comms record around Sim.Api the way Executor.run
   builds it, and stamping the host clock before and after each call,
   splits Sim.run's wall time exactly: the interval a rank ran before
   calling a hook is charged to that hook's section, the time between
   a rank's call and the next return to any rank is DES time. *)

type section = Compute | Pack | Unpack | Writeback | Other

let section_index = function
  | Compute -> 0
  | Pack -> 1
  | Unpack -> 2
  | Writeback -> 3
  | Other -> 4

type traced = {
  t_stats : Sim.stats;
  t_grid : Grid.t option;
  t_points : int;
  sections : float array;  (** host seconds, by [section_index] *)
  des_s : float;
  sim_wall_s : float;
  modelled_s : float;  (** Seq_exec.modelled_time, the speedup's baseline *)
  run_wall_s : float;  (** the whole traced run, as Executor.run does it *)
  calls : int * int * int;  (** wrapped send, recv and compute calls *)
  expected_calls : int * int * int;
      (** one send and one recv per simulated message; one compute per
          tile, plus one per rank for the Full-mode write-back *)
}

let traced_run ~mode ?walker ~plan ~kernel () =
  let t_start = now () in
  let shared =
    Protocol.prepare ?walker ~mode ~plan ~kernel
      ~flop_time:net.Netmodel.flop_time ~pack_time:net.Netmodel.pack_time ()
  in
  let mapping = plan.Plan.mapping in
  let nprocs = Mapping.nprocs mapping in
  let tiles =
    Array.init nprocs (fun r ->
        let lo, hi = Mapping.chain mapping r in
        hi - lo + 1)
  in
  let computes = Array.make nprocs 0 and sends = ref 0 and recvs = ref 0 in
  let started = Array.make nprocs false in
  let resumed = Array.make nprocs 0. in
  let sections = Array.make 5 0. in
  let des = ref 0. and des_from = ref 0. in
  (* rank [rank] hands control to the DES at a [sec] call; its first
     interval (walker build, LDS allocation) is buffer handling *)
  let leave sec rank =
    let t = now () in
    let sec = if started.(rank) then sec else Other in
    started.(rank) <- true;
    let i = section_index sec in
    sections.(i) <- sections.(i) +. (t -. resumed.(rank));
    des_from := t
  in
  let back rank =
    let t = now () in
    des := !des +. (t -. !des_from);
    resumed.(rank) <- t
  in
  let comms_for rank =
    let call sec f =
      leave sec rank;
      let r = f () in
      back rank;
      r
    in
    {
      Protocol.send =
        (fun ~dst ~tag b ->
          incr sends;
          call Other (fun () -> Sim.Api.send ~dst ~tag b));
      recv =
        (fun ~src ~tag ->
          incr recvs;
          call Other (fun () -> Sim.Api.recv ~src ~tag));
      compute =
        (fun c ->
          (* one charge per tile, then one for the Full-mode write-back *)
          computes.(rank) <- computes.(rank) + 1;
          let sec = if computes.(rank) > tiles.(rank) then Writeback else Compute in
          call sec (fun () -> Sim.Api.compute c));
      pack = (fun c -> call Pack (fun () -> Sim.Api.pack c));
      unpack = (fun c -> call Unpack (fun () -> Sim.Api.unpack c));
    }
  in
  let program rank =
    back rank;
    Protocol.rank_program shared (comms_for rank) rank;
    leave Other rank
  in
  let t0 = now () in
  des_from := t0;
  let stats = Sim.run ~nprocs ~net program in
  let t1 = now () in
  des := !des +. (t1 -. !des_from);
  let _, modelled_s =
    time (fun () ->
        Seq_exec.modelled_time ~space:plan.Plan.nest.Nest.space ~net)
  in
  {
    t_stats = stats;
    t_grid = shared.Protocol.grid;
    t_points = Array.fold_left ( + ) 0 shared.Protocol.points_per_rank;
    sections;
    des_s = !des;
    sim_wall_s = t1 -. t0;
    modelled_s;
    run_wall_s = now () -. t_start;
    calls = (!sends, !recvs, Array.fold_left ( + ) 0 computes);
    expected_calls =
      ( stats.Sim.messages,
        stats.Sim.messages,
        Array.fold_left ( + ) 0 tiles
        + if shared.Protocol.grid <> None then nprocs else 0 );
  }

(* The split must account for Sim.run's wall time, interval for
   interval. Ranks run as fibers on one thread, so the stamps alternate
   and this holds by construction: it confirms the stamps pair up, not
   that every call went through a wrapper. [calls_consistent] checks
   that. *)
let split_consistent tr =
  let total = Array.fold_left ( +. ) tr.des_s tr.sections in
  Float.abs (total -. tr.sim_wall_s) <= 1e-6 *. tr.sim_wall_s +. 1e-9

let calls_consistent tr = tr.calls = tr.expected_calls

(* Per-layer accumulator of the traced runs. *)
type layers = {
  mutable tile_space_s : float;
  mutable mapping_s : float;
  mutable comm_s : float;
  mutable builds : int;
  mutable native_build_s : float;
  mutable native_fallbacks : int;
  sec : float array;
  mutable des_s : float;
  mutable messages : int;
  mutable modelled_s : float;
  mutable seq_s : float;
  mutable seq_points : int;
  mutable run_points : int;
  mutable untraced_s : float;
  mutable traced_s : float;
  mutable self_check_failures : int;
}

let new_layers () =
  {
    tile_space_s = 0.;
    mapping_s = 0.;
    comm_s = 0.;
    builds = 0;
    native_build_s = 0.;
    native_fallbacks = 0;
    sec = Array.make 5 0.;
    des_s = 0.;
    messages = 0;
    modelled_s = 0.;
    seq_s = 0.;
    seq_points = 0;
    run_points = 0;
    untraced_s = 0.;
    traced_s = 0.;
    self_check_failures = 0;
  }

(* Time the three plan layers with the arguments Plan.make passes. *)
let time_plan_layers ly ?m nest tiling =
  let tspace, a = time (fun () -> Tile_space.make nest.Nest.space tiling) in
  let mapping, b = time (fun () -> Mapping.make ?m tspace) in
  let _, c =
    time (fun () -> Comm.make tiling nest.Nest.deps ~m:mapping.Mapping.m)
  in
  ly.tile_space_s <- ly.tile_space_s +. a;
  ly.mapping_s <- ly.mapping_s +. b;
  ly.comm_s <- ly.comm_s +. c;
  ly.builds <- ly.builds + 1

(* Run [plan] untraced and traced (alternating which goes first), fold
   the traced split into [ly] and self-check it. *)
let compare_traced ly ~first_untraced ~mode ?walker ~plan ~kernel () =
  let untraced () =
    time (fun () ->
        Executor.run ?walker
          ~mode:(match mode with Protocol.Full -> Executor.Full | Timing -> Timing)
          ~plan ~kernel ~net ())
  in
  let (r, dt), tr =
    if first_untraced then
      let u = untraced () in
      (u, traced_run ~mode ?walker ~plan ~kernel ())
    else
      let tr = traced_run ~mode ?walker ~plan ~kernel () in
      (untraced (), tr)
  in
  ly.untraced_s <- ly.untraced_s +. dt;
  ly.traced_s <- ly.traced_s +. tr.run_wall_s;
  Array.iteri (fun i v -> ly.sec.(i) <- ly.sec.(i) +. v) tr.sections;
  ly.des_s <- ly.des_s +. tr.des_s;
  ly.messages <- ly.messages + tr.t_stats.Sim.messages;
  ly.modelled_s <- ly.modelled_s +. tr.modelled_s;
  ly.run_points <- ly.run_points + tr.t_points;
  let same = tr.t_stats.Sim.completion = r.Executor.stats.Sim.completion in
  if not (same && split_consistent tr && calls_consistent tr) then begin
    let s, r', c = tr.calls and es, er, ec = tr.expected_calls in
    ly.self_check_failures <- ly.self_check_failures + 1;
    log
      "trace self-check failed: completion %.17g vs %.17g, split %.9f + %.9f \
       vs %.9f, send/recv/compute calls %d/%d/%d vs %d/%d/%d"
      tr.t_stats.Sim.completion r.Executor.stats.Sim.completion
      (Array.fold_left ( +. ) 0. tr.sections)
      tr.des_s tr.sim_wall_s s r' c es er ec
  end;
  (r, tr)

(* Every per-layer metric. [runs] divides the traced-run totals into
   per-pass figures and [plans] the plan-layer totals into per-pass or
   per-setup ones; [full] says the traced runs were Full mode, where the
   hook sections are walker work rather than counting. Layers a workload
   does not reach read 0. *)
let layer_metrics ?(full = false) ?(runs = 1) ?(plans = 1) ?(serve = []) ly =
  let p = float_of_int runs and pp = float_of_int plans in
  let s i = ly.sec.(section_index i) /. p in
  let count_s = if full then 0. else s Compute +. s Pack in
  let other_s = s Other +. if full then 0. else s Unpack in
  let walker x = if full then x else 0. in
  let rate pts secs = if secs > 0. then float_of_int pts /. secs /. 1e6 else 0. in
  let overhead =
    if ly.untraced_s > 0. then 100. *. (ly.traced_s -. ly.untraced_s) /. ly.untraced_s
    else 0.
  in
  [
    m "plan.tile_space_s" "s" (ly.tile_space_s /. pp);
    m "plan.mapping_s" "s" (ly.mapping_s /. pp);
    m "plan.comm_s" "s" (ly.comm_s /. pp);
    m "plan.builds" "count" (float_of_int ly.builds /. pp);
    m "native.build_s" "s" ly.native_build_s;
    m "native.fallbacks" "count" (float_of_int ly.native_fallbacks);
    m "des.self_s" "s" (ly.des_s /. p);
    m "des.messages" "count" (float_of_int ly.messages /. p);
    m "des.us_per_msg" "us"
      (if ly.messages > 0 then 1e6 *. ly.des_s /. float_of_int ly.messages else 0.);
    m "protocol.count_s" "s" count_s;
    m "protocol.other_s" "s" other_s;
    m "walker.compute_s" "s" (walker (s Compute));
    m "walker.pack_s" "s" (walker (s Pack));
    m "walker.unpack_s" "s" (walker (s Unpack));
    m "walker.writeback_s" "s" (walker (s Writeback));
    m "walker.compute_mpts_per_s" "Mpt/s"
      (walker (rate ly.run_points ly.sec.(section_index Compute)));
    m "seq.modelled_s" "s" (ly.modelled_s /. p);
    m "seq.oracle_s" "s" (ly.seq_s /. p);
    m "seq.mpts_per_s" "Mpt/s" (rate ly.seq_points ly.seq_s);
  ]
  @ serve
  @ [ m "trace.overhead_pct" "%" overhead ]

let serve_layer_names =
  [
    ("serve.queued_p50_ms", "ms"); ("serve.service_p50_ms", "ms");
    ("serve.plan.service_p50_ms", "ms"); ("serve.simulate.service_p50_ms", "ms");
    ("serve.execute.service_p50_ms", "ms"); ("serve.tune.service_p50_ms", "ms");
    ("serve.plan_cache_hit_ratio", "ratio"); ("serve.coalesced", "count");
    ("serve.compiles", "count"); ("serve.worker_busy_ratio", "ratio");
  ]

let serve_unreached = List.map (fun (n, u) -> m n u 0.) serve_layer_names

(* ---------------- workload: paper-sweep ----------------

   The three caption-stated spaces of §4, every variant over the factor
   sweeps of the bench's Figures 6/8/10, in Timing mode: the DES and
   the protocol's counting do the work, no data is touched. *)

type sweep_config = { spec : E.spec; variant : string; factor : int }

let sweep_setup () =
  let specs =
    [
      E.sor ~factors:[ 2; 3; 4; 6; 8; 10; 16; 25 ] ~m_steps:100 ~size:200 ();
      E.jacobi ~factors:[ 1; 2; 3; 5; 8; 10; 15; 25 ] ~t_steps:50 ~size:100 ();
      E.adi ~factors:[ 2; 4; 6; 10; 16; 25; 50 ] ~t_steps:100 ~size:256 ();
    ]
  in
  List.concat_map
    (fun spec ->
      List.concat_map
        (fun factor ->
          List.map (fun (variant, _) -> { spec; variant; factor }) spec.E.variants)
        spec.E.factors)
    specs

let config_label c = Printf.sprintf "%s/%s/%d" c.spec.E.name c.variant c.factor

let config_plan c =
  let tiling = (List.assoc c.variant c.spec.E.variants) c.factor in
  (tiling, Plan.make ~m:c.spec.E.m c.spec.E.nest tiling)

(* Expected counters, from the plan's analytic model (memoised, so the
   check stays out of every operation but the first of a config). *)
let expected_counts =
  let memo = Hashtbl.create 64 in
  fun c plan ->
    let key = config_label c in
    match Hashtbl.find_opt memo key with
    | Some e -> e
    | None ->
      let msgs, cells = Plan.comm_stats plan in
      let e = (msgs, cells, Plan.total_iterations plan) in
      Hashtbl.replace memo key e;
      e

let check_counts c plan (r : Executor.result) =
  let msgs, cells, points = expected_counts c plan in
  let width = c.spec.E.kernel.Kernel.width in
  let got_cells = r.Executor.stats.Sim.bytes / (8 * width) in
  if
    r.Executor.stats.Sim.messages = msgs
    && got_cells = cells && r.Executor.points_computed = points
  then Ok ()
  else
    Error
      (Printf.sprintf "messages %d/%d cells %d/%d points %d/%d"
         r.Executor.stats.Sim.messages msgs got_cells cells
         r.Executor.points_computed points)

(* p90: two passes of 60 configurations always leave more than 10
   samples beyond it *)
let sweep_rung = { pm = 900; min_samples = 100 }

let paper_sweep ~seed ~seconds ~trace =
  let configs, setup = repeated_setup 25 sweep_setup in
  log "paper-sweep: %d configurations, setup %.4f s" (List.length configs) setup;
  let rng = Random.State.make [| seed |] in
  let ops = new_ops () in
  let speedups = Hashtbl.create 64 in
  let points = ref 0 in
  if not trace then begin
    let n =
      passes ~min_passes:2 ~seconds ~rng ~items:configs ops (fun c ->
          attempt ops (config_label c) (fun () ->
              let (plan, r), dt =
                time (fun () ->
                    let _, plan = config_plan c in
                    ( plan,
                      Executor.run ~mode:Executor.Timing ~plan
                        ~kernel:c.spec.E.kernel ~net () ))
              in
              Hashtbl.replace speedups (config_label c) r.Executor.speedup;
              points := !points + r.Executor.points_computed;
              (dt, check_counts c plan r)))
    in
    log "paper-sweep: %d passes, %d configurations run" n ops.attempted;
    let metrics, tail_ok =
      end_to_end ~rung:sweep_rung ~setup ~ops
        ~ops_per_s:(float_of_int (List.length ops.lat) /. ops.busy)
        ~points_per_s:(float_of_int !points /. ops.busy)
        ~speedups:(Hashtbl.fold (fun _ s acc -> s :: acc) speedups [])
    in
    {
      correct = ops.failed = 0 && tail_ok;
      attempted = ops.attempted;
      failed = ops.failed;
      metrics;
    }
  end
  else begin
    let ly = new_layers () in
    let k = ref 0 in
    let n =
      passes ~seconds ~rng ~items:configs ops (fun c ->
          attempt ops (config_label c) (fun () ->
              let t0 = now () in
              let tiling, plan = config_plan c in
              time_plan_layers ly ~m:c.spec.E.m c.spec.E.nest tiling;
              incr k;
              let r, _ =
                compare_traced ly ~first_untraced:(!k mod 2 = 0)
                  ~mode:Protocol.Timing ~plan ~kernel:c.spec.E.kernel ()
              in
              (now () -. t0, check_counts c plan r)))
    in
    log "paper-sweep traced: %d passes" n;
    {
      correct = ops.failed = 0 && ly.self_check_failures = 0;
      attempted = ops.attempted;
      failed = ops.failed;
      metrics = layer_metrics ~runs:n ~plans:n ~serve:serve_unreached ly;
    }
  end

(* ---------------- workload: solve ----------------

   Four verified Full-mode solves with the native walker, each checked
   bit-for-bit against the sequential oracle: what `tilec simulate
   --full` and the serve execute op do. *)

type solve_case = {
  label : string;
  nest : Nest.t;
  kernel : Kernel.t;
  m : int;
  tiling : Tiling.t;
  plan : Plan.t;
  points : int;  (** expected, counted outside the set-up *)
}

let solve_specs =
  [
    ("sor", "nonrect", 8, 512, (8, 512, 512));
    ("sor", "nonrect", 32, 256, (8, 64, 64));
    ("jacobi", "nonrect", 32, 128, (8, 32, 32));
    ("adi", "nr3", 32, 128, (8, 32, 32));
  ]

(* One cold set-up: every plan, and every native row kernel compiled
   into a fresh cache directory. Returns the cases and the build
   outcomes (seconds, fallback count). *)
let solve_setup () =
  Unix.putenv "TILEC_NATIVE_CACHE" (fresh_cache_dir ());
  let build_s = ref 0. and fallbacks = ref 0 in
  let cases =
    List.map
      (fun (app, variant, size1, size2, tile) ->
        match Registry.resolve ~app ~size1 ~size2 ~variant ~tile with
        | Error e -> failwith e
        | Ok r ->
          let plan =
            Plan.make ~m:r.Registry.m r.Registry.nest r.Registry.tiling
          in
          let built, dt =
            time (fun () -> Native_kernel.build ~plan ~kernel:r.Registry.kernel ())
          in
          build_s := !build_s +. dt;
          (match built with
          | Ok _ -> ()
          | Error why ->
            incr fallbacks;
            log "native fallback for %s: %s" app why);
          let x, y, z = tile in
          {
            label = Printf.sprintf "%s %d/%d %dx%dx%d" app size1 size2 x y z;
            nest = r.Registry.nest;
            kernel = r.Registry.kernel;
            m = r.Registry.m;
            tiling = r.Registry.tiling;
            plan;
            points = 0;
          })
      solve_specs
  in
  (cases, !build_s, !fallbacks)

let check_solve case ~points grid oracle =
  match grid with
  | None -> Error "no result grid"
  | Some g ->
    let err = Grid.max_abs_diff g oracle case.nest.Nest.space in
    if err <> 0. then Error (Printf.sprintf "max |parallel - oracle| = %g" err)
    else if points <> case.points then
      Error (Printf.sprintf "points %d/%d" points case.points)
    else Ok ()

(* A run holds only a handful of batches, too few for any percentile
   above the median to have 10 samples beyond it: on solve op_tail_ms is
   the median batch, the same figure as op_p50_ms. *)
let solve_rung = { pm = 500; min_samples = 1 }

let solve ~seed ~seconds ~trace =
  let ly = new_layers () in
  let builds = ref [] in
  let (cases, _, fallbacks), setup =
    repeated_setup 5 (fun () ->
        let ((cases, build_s, _) as r) = solve_setup () in
        builds := build_s :: !builds;
        if trace then
          List.iter (fun c -> time_plan_layers ly ~m:c.m c.nest c.tiling) cases;
        r)
  in
  let cases =
    List.map (fun c -> { c with points = Plan.total_iterations c.plan }) cases
  in
  ly.native_build_s <- median !builds;
  ly.native_fallbacks <- fallbacks;
  log "solve: setup %.4f s, native builds %.4f s, %d fallbacks" setup
    ly.native_build_s fallbacks;
  if fallbacks > 0 then begin
    (* the fast OCaml walker would be measured in the native one's
       place: a different program, so no numbers are reported *)
    log "solve: native walker unavailable, run marked invalid";
    print_outcome { correct = false; attempted = 1; failed = 1; metrics = [] };
    exit 1
  end;
  let rng = Random.State.make [| seed |] in
  let ops = new_ops () in
  let speedups = Hashtbl.create 4 in
  let points = ref 0 in
  let k = ref 0 in
  let solve_one case =
    let oracle () =
      Seq_exec.run ~space:case.nest.Nest.space ~kernel:case.kernel ()
    in
    let check =
      if not trace then begin
        let r =
          Executor.run ~walker:Walker.Native ~mode:Executor.Full ~plan:case.plan
            ~kernel:case.kernel ~net ()
        in
        Hashtbl.replace speedups case.label r.Executor.speedup;
        points := !points + r.Executor.points_computed;
        check_solve case ~points:r.Executor.points_computed r.Executor.grid
          (oracle ())
      end
      else begin
        incr k;
        let _, tr =
          compare_traced ly ~first_untraced:(!k mod 2 = 0) ~mode:Protocol.Full
            ~walker:Walker.Native ~plan:case.plan ~kernel:case.kernel ()
        in
        let seq, dt = time oracle in
        ly.seq_s <- ly.seq_s +. dt;
        ly.seq_points <- ly.seq_points + case.points;
        check_solve case ~points:tr.t_points tr.t_grid seq
      end
    in
    Result.map_error (fun e -> case.label ^ ": " ^ e) check
  in
  (* One operation is a batch: the four solves in seeded order. The
     solves differ fourfold in cost, so a latency percentile over single
     solves would sit on the edge between two of them. Each solve starts
     from a collected heap, as it would in its own `tilec` process, so
     peak memory does not depend on when the previous grids are freed. *)
  let n =
    passes ~seconds ~rng ~items:[ () ] ops (fun () ->
        attempt ops "solve batch" (fun () ->
            List.fold_left
              (fun (dt, acc) case ->
                Gc.full_major ();
                let check, dt' = time (fun () -> solve_one case) in
                (dt +. dt', if Result.is_error acc then acc else check))
              (0., Ok ()) (shuffle rng cases)))
  in
  log "solve: %d batches" n;
  if not trace then
    let metrics, tail_ok =
      end_to_end ~rung:solve_rung ~setup ~ops
        ~ops_per_s:(float_of_int (List.length ops.lat) /. ops.busy)
        ~points_per_s:(float_of_int !points /. ops.busy)
        ~speedups:(Hashtbl.fold (fun _ s acc -> s :: acc) speedups [])
    in
    {
      correct = ops.failed = 0 && tail_ok;
      attempted = ops.attempted;
      failed = ops.failed;
      metrics;
    }
  else
    {
      correct = ops.failed = 0 && ly.self_check_failures = 0;
      attempted = ops.attempted;
      failed = ops.failed;
      (* plan layers were timed once per setup, like native.build_s *)
      metrics =
        layer_metrics ~full:true ~runs:n ~plans:(List.length !builds)
          ~serve:serve_unreached ly;
    }

(* ---------------- workload: serve ----------------

   A seeded closed loop against an in-process `tilec serve`: one
   generator keeps two requests outstanding against two workers. Half
   the requests repeat a recent one (plan-cache and coalescing fodder);
   the rest are fresh configurations. *)

(* The traffic follows the serve load the repository already records,
   bench/main.ml's serve target: 36 plan, 12 simulate and 4 tune
   requests in 52, on SOR, Jacobi and ADI (tune on SOR and ADI only),
   variant nonrect (ADI nr1 for plan and tune, nr3 for simulate), sizes
   around its (24..48, 32..64) plans, (16..24, 24..32) simulations and
   10/12 tunes. That load has no execute; here the simulate share is
   split evenly between simulate and execute, the same job run in Full
   mode and checked against the oracle. One block of 26 requests holds
   18 plan, 3 simulate, 3 execute and 2 tune, shuffled per block, so
   every seed runs the same proportions. *)
let block_ops =
  List.concat_map
    (fun (op, n) -> List.init n (fun _ -> op))
    [ ("plan", 18); ("simulate", 3); ("execute", 3); ("tune", 2) ]

let block_len = List.length block_ops

let apps_of op = if op = "tune" then [ "sor"; "adi" ] else Registry.apps

let variant_of op app =
  match (app, op) with
  | "adi", ("simulate" | "execute") -> "nr3"
  | "adi", _ -> "nr1"
  | _ -> "nonrect"

(* (size1, size2) per operation: every pair in a range that holds the
   recorded sizes, widened so that a run at twice today's request rate
   still finds a fresh configuration for every fresh request *)
let sizes_of op =
  let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i) in
  match op with
  | "plan" -> (range 20 52, range 32 64)
  | "simulate" | "execute" -> (range 16 28, range 24 36)
  | _ -> (range 8 21, range 10 23)

(* The fresh configurations of one operation, in one fixed shuffled
   order dealt round-robin across the apps: every prefix holds the apps
   in equal shares, and runs of any seed issue nearly the same distinct
   set. *)
let fresh_order op =
  let rng = Random.State.make [| 2002 |] in
  let s1s, s2s = sizes_of op in
  let decks =
    List.map
      (fun app ->
        shuffle rng
          (List.concat_map
             (fun s1 ->
               List.map (fun s2 -> (op, app, variant_of op app, s1, s2)) s2s)
             s1s))
      (apps_of op)
  in
  let rec deal decks =
    match List.filter (( <> ) []) decks with
    | [] -> []
    | decks -> List.map List.hd decks @ deal (List.map List.tl decks)
  in
  deal (shuffle rng decks)

let job_of (op, app, variant, size1, size2) =
  let fields =
    [
      ("op", Json.Str op); ("app", Json.Str app); ("variant", Json.Str variant);
      ("size1", Json.Int size1); ("size2", Json.Int size2);
    ]
    @
    if op = "tune" then
      [ ("procs", Json.Int 4); ("factors", Json.List [ Json.Int 2; Json.Int 3 ]) ]
    else []
  in
  match Job.of_json (Json.Obj fields) with
  | Ok j -> j
  | Error e -> failwith ("serve job: " ^ e)

let serve_config = { Server.default_config with Server.capacity = 64; workers = 2 }

(* What the benchmark keeps of one response: the checked outcome and the
   fields it reports, not the whole JSON object. *)
type response = {
  r_op : string;
  r_config : string * string * string * int * int;
  r_latency : float;
  r_check : (unit, string) result;
  r_cache : string;  (** "hit", "miss" or "coalesced" *)
  r_queued : float;
  r_service : float;
  r_speedup : float;  (** nan where the operation reports none *)
  r_points : float;
}

let num path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path
  |> Fun.flip Option.bind Json.to_float_opt
  |> Option.value ~default:nan

let response_of ~op ~config ~latency j =
  let r_check =
    match Json.member "status" j with
    | Some (Json.Str "ok") ->
      let err = num [ "max_abs_err" ] j in
      if op = "execute" && err <> 0. then
        Error (Printf.sprintf "max |parallel - oracle| = %g" err)
      else Ok ()
    | _ -> Error (Json.to_line j)
  in
  {
    r_op = op;
    r_config = config;
    r_latency = latency;
    r_check;
    r_cache =
      (match Json.member "cache" j with Some (Json.Str c) -> c | _ -> "");
    r_queued = num [ "queued_s" ] j;
    r_service = num [ "service_s" ] j;
    r_speedup = num [ "speedup" ] j;
    r_points = num [ "points" ] j;
  }

(* Submit one request and wait for its response. *)
let request server config =
  let mu = Mutex.create () and cv = Condition.create () and answer = ref None in
  let ((op, _, _, _, _) as config) = config in
  let submitted = now () in
  Server.submit server
    ~respond:(fun j ->
      Mutex.lock mu;
      answer := Some (response_of ~op ~config ~latency:(now () -. submitted) j);
      Condition.signal cv;
      Mutex.unlock mu)
    (job_of config);
  Mutex.lock mu;
  while !answer = None do Condition.wait cv mu done;
  Mutex.unlock mu;
  Option.get !answer

(* Start a daemon and wait for its first answer: the cold start a client
   of a fresh `tilec serve` waits through. *)
let start_server () =
  let server = Server.create ~config:serve_config () in
  (match (request server ("simulate", "sor", "nonrect", 24, 32)).r_check with
  | Ok () -> ()
  | Error why -> failwith ("serve: the first request failed: " ^ why));
  server

(* a repeat names one of the last [repeat_window] configurations of its
   operation: recent traffic, which the 128-plan cache can hold for all
   four operations at once *)
let repeat_window = 24

(* the fresh simulate and execute configurations whose speedups enter
   sim_speedup_geomean: a fixed prefix of each fixed order, requested
   again after the timed loop, so the figure covers the same set
   whatever the run's length *)
let speedup_probe = 40

(* p99: a run at 40% of today's request rate still leaves more than 10
   samples beyond it *)
let serve_rung = { pm = 990; min_samples = 1000 }

let serve ~seed ~seconds ~trace =
  let server, setup = repeated_setup ~discard:Server.shutdown 25 start_server in
  log "serve: setup %.6f s" setup;
  let rng = Random.State.make [| seed |] in
  let fresh = Hashtbl.create 4 in
  List.iter
    (fun op -> Hashtbl.replace fresh op (fresh_order op))
    [ "plan"; "simulate"; "execute"; "tune" ];
  (* per operation: the configurations issued so far, and their count *)
  let history = Hashtbl.create 4 in
  let distinct = ref 0 and dry = ref 0 in
  (* per block: the operation mix, and exactly half the requests
     repeating a recent configuration of the same operation *)
  let block = ref [] in
  let next () =
    if !block = [] then
      block :=
        List.combine (shuffle rng block_ops)
          (shuffle rng (List.init block_len (fun i -> 2 * i < block_len)));
    let op, repeat = List.hd !block in
    block := List.tl !block;
    let seen, n = Option.value ~default:([], 0) (Hashtbl.find_opt history op) in
    match (repeat && n > 0, Hashtbl.find fresh op) with
    | false, c :: rest ->
      Hashtbl.replace fresh op rest;
      Hashtbl.replace history op (c :: seen, n + 1);
      incr distinct;
      c
    | false, [] ->
      incr dry;
      List.nth seen (Random.State.int rng (min n repeat_window))
    | true, _ -> List.nth seen (Random.State.int rng (min n repeat_window))
  in
  let mu = Mutex.create () and cv = Condition.create () in
  let outstanding = ref 0 and responses = ref [] in
  let t0 = now () in
  while now () -. t0 < seconds do
    Mutex.lock mu;
    while !outstanding >= 2 do Condition.wait cv mu done;
    incr outstanding;
    Mutex.unlock mu;
    let ((op, _, _, _, _) as config) = next () in
    let submitted = now () in
    Server.submit server
      ~respond:(fun j ->
        let r = response_of ~op ~config ~latency:(now () -. submitted) j in
        Mutex.lock mu;
        responses := r :: !responses;
        decr outstanding;
        Condition.signal cv;
        Mutex.unlock mu)
      (job_of config)
  done;
  Mutex.lock mu;
  while !outstanding > 0 do Condition.wait cv mu done;
  Mutex.unlock mu;
  let elapsed = now () -. t0 in
  let snapshot = Server.metrics_json server in
  let probe =
    if trace then []
    else
      List.concat_map
        (fun op -> List.filteri (fun i _ -> i < speedup_probe) (fresh_order op))
        [ "simulate"; "execute" ]
      |> List.map (request server)
  in
  Server.shutdown server;
  let ops = new_ops () in
  List.iter
    (fun r ->
      ops.attempted <- ops.attempted + 1;
      match r.r_check with
      | Ok () -> ops.lat <- r.r_latency :: ops.lat
      | Error why ->
        ops.failed <- ops.failed + 1;
        log "FAILED serve %s: %s" r.r_op why)
    !responses;
  let ok = List.filter (fun r -> r.r_check = Ok ()) !responses in
  log "serve: %d requests in %.3f s, %d distinct" ops.attempted elapsed !distinct;
  if !dry > 0 then
    log "serve: fresh configurations ran out; %d requests repeated instead" !dry;
  List.iteri
    (fun i r ->
      let _, app, variant, s1, s2 = r.r_config in
      if i < 3 then
        log "  slowest: %s %s/%s %d/%d %.1f ms" r.r_op app variant s1 s2
          (1e3 *. r.r_latency))
    (List.sort (fun a b -> compare b.r_latency a.r_latency) ok);
  let correct = ops.failed = 0 in
  if not trace then
    (* the probe runs outside the timed loop and the counts: a failed
       probe request only makes the run incorrect *)
    let probe_ok =
      List.for_all
        (fun r ->
          match r.r_check with
          | Ok () when Float.is_finite r.r_speedup -> true
          | Ok () ->
            log "FAILED serve probe %s: no speedup" r.r_op;
            false
          | Error why ->
            log "FAILED serve probe %s: %s" r.r_op why;
            false)
        probe
    in
    let points =
      sum (List.map (fun r -> if Float.is_finite r.r_points then r.r_points else 0.) ok)
    in
    let metrics, tail_ok =
      end_to_end ~rung:serve_rung ~setup ~ops
        ~ops_per_s:(float_of_int (List.length ops.lat) /. elapsed)
        ~points_per_s:(points /. elapsed)
        ~speedups:(List.map (fun r -> r.r_speedup) probe)
    in
    {
      correct = correct && probe_ok && tail_ok;
      attempted = ops.attempted;
      failed = ops.failed;
      metrics;
    }
  else begin
    let p50_ms l = if l = [] then 0. else 1e3 *. median l in
    let service_of op =
      List.filter_map (fun r -> if r.r_op = op then Some r.r_service else None) ok
    in
    (* a coalesced follower shares its leader's service: count it once *)
    let busy =
      sum
        (List.filter_map
           (fun r -> if r.r_cache <> "coalesced" then Some r.r_service else None)
           ok)
    in
    let hits = num [ "plan_cache"; "hits" ] snapshot
    and misses = num [ "plan_cache"; "misses" ] snapshot in
    (* the plan layers of every compile, re-timed outside the loop *)
    let ly = new_layers () in
    List.iter
      (fun r ->
        if r.r_cache = "miss" then
          let _, app, variant, size1, size2 = r.r_config in
          let tile = (job_of r.r_config).Job.tile in
          match Registry.resolve ~app ~size1 ~size2 ~variant ~tile with
          | Ok rv ->
            time_plan_layers ly ~m:rv.Registry.m rv.Registry.nest
              rv.Registry.tiling
          | Error e -> failwith e)
      ok;
    let serve_metrics =
      [
        m "serve.queued_p50_ms" "ms" (p50_ms (List.map (fun r -> r.r_queued) ok));
        m "serve.service_p50_ms" "ms" (p50_ms (List.map (fun r -> r.r_service) ok));
        m "serve.plan.service_p50_ms" "ms" (p50_ms (service_of "plan"));
        m "serve.simulate.service_p50_ms" "ms" (p50_ms (service_of "simulate"));
        m "serve.execute.service_p50_ms" "ms" (p50_ms (service_of "execute"));
        m "serve.tune.service_p50_ms" "ms" (p50_ms (service_of "tune"));
        m "serve.plan_cache_hit_ratio" "ratio" (hits /. (hits +. misses));
        m "serve.coalesced" "count" (num [ "coalesce"; "batched" ] snapshot);
        m "serve.compiles" "count" (num [ "plan_cache"; "compiles" ] snapshot);
        m "serve.worker_busy_ratio" "ratio"
          (busy /. (float_of_int serve_config.Server.workers *. elapsed));
      ]
    in
    {
      correct;
      attempted = ops.attempted;
      failed = ops.failed;
      metrics = layer_metrics ~serve:serve_metrics ly;
    }
  end

(* ---------------- command line ---------------- *)

let usage =
  "main.exe --workload paper-sweep|solve|serve --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let bad msg =
    prerr_endline (msg ^ "\nusage: " ^ usage);
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: s :: rest -> seed := int_of_string_opt s; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | arg :: _ -> bad ("unexpected argument " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed = match !seed with Some s -> s | None -> bad "--seed needs an integer" in
  let seconds =
    match !seconds with
    | Some s when s > 0. -> s
    | _ -> bad "--seconds needs a positive number"
  in
  let trace = match !trace with Some t -> t | None -> bad "--trace needs 0 or 1" in
  let run =
    match !workload with
    | "paper-sweep" -> paper_sweep
    | "solve" -> solve
    | "serve" -> serve
    | w -> bad ("unknown workload " ^ w)
  in
  at_exit (fun () -> rm_rf tmp_root);
  print_outcome (run ~seed ~seconds ~trace)
