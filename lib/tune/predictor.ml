module Netmodel = Tiles_mpisim.Netmodel
module Polyhedron = Tiles_poly.Polyhedron
module Plan = Tiles_core.Plan
module Tiling = Tiles_core.Tiling
module Tile_space = Tiles_core.Tile_space
module Comm = Tiles_core.Comm
module Mapping = Tiles_core.Mapping
module Schedule = Tiles_core.Schedule
module Ttis = Tiles_core.Ttis

type estimate = {
  steps : int;
  chain : int;
  fill : int;
  tile_compute : float;
  comm_cpu : float;
  comm_wire : float;
  total : float;
  predicted_speedup : float;
  refined : bool;
}

(* schedule skeleton shared by both passes *)
let skeleton (plan : Plan.t) =
  let chain =
    Array.fold_left
      (fun acc (lo, hi) -> max acc (hi - lo + 1))
      0 plan.Plan.mapping.Mapping.chains
  in
  let steps = max (Schedule.effective_steps plan) chain in
  (steps, chain, steps - chain)

(* geometric (unclipped) per-tile communication cells, summed over the
   plan's processor directions: the per-step traffic the α-β terms
   charge *)
let slab_cells (plan : Plan.t) =
  let tiling = plan.Plan.tiling and comm = plan.Plan.comm in
  let n = tiling.Tiling.n and m = comm.Comm.m in
  List.fold_left
    (fun acc (dm, _) ->
      let lo =
        Array.init n (fun k ->
            if k = m then 0
            else
              let kk = if k < m then k else k - 1 in
              dm.(kk) * comm.Comm.cc.(k))
      in
      acc + Ttis.count_from tiling ~lo)
    0 comm.Comm.dm

let points_of plan =
  float_of_int (Polyhedron.count_points plan.Plan.nest.Tiles_loop.Nest.space)

let ntiles_of plan =
  float_of_int
    (max 1 (Polyhedron.count_points plan.Plan.tspace.Tile_space.poly))

let predict ?(width = 1) (plan : Plan.t) ~net =
  let tile_points = float_of_int (Tiling.tile_size plan.Plan.tiling) in
  let tile_compute = tile_points *. net.Netmodel.flop_time in
  let w = float_of_int width in
  let cells = float_of_int (slab_cells plan) *. w in
  let bytes = cells *. 8. in
  let nmsg = float_of_int (List.length plan.Plan.comm.Comm.dm) in
  (* the CPU stays busy for pack/unpack and the send/recv overheads on
     every step; wire latency and transfer time overlap with downstream
     compute in the self-timed steady state and only sit on the critical
     path while the pipeline fills and drains *)
  let comm_cpu =
    (2. *. cells *. net.Netmodel.pack_time)
    +. (nmsg *. (net.Netmodel.send_overhead +. net.Netmodel.recv_overhead))
  in
  let comm_wire =
    (nmsg *. net.Netmodel.latency) +. (bytes /. net.Netmodel.bandwidth)
  in
  let steps, chain, fill = skeleton plan in
  let total =
    (float_of_int steps *. (tile_compute +. comm_cpu))
    +. (float_of_int fill *. comm_wire)
  in
  let seq = points_of plan *. net.Netmodel.flop_time in
  {
    steps;
    chain;
    fill;
    tile_compute;
    comm_cpu;
    comm_wire;
    total;
    predicted_speedup = seq /. total;
    refined = false;
  }

let fields e =
  [ ("completion_s", e.total); ("speedup", e.predicted_speedup) ]

let source e = if e.refined then "predictor.refine" else "predictor.predict"

let refine ?(width = 1) (plan : Plan.t) ~net =
  let tile_points = float_of_int (Tiling.tile_size plan.Plan.tiling) in
  let w = float_of_int width in
  let steps, chain, fill = skeleton plan in
  let points = points_of plan in
  let ntiles = ntiles_of plan in
  (* exact protocol volume: one message per (tile, direction) with a
     valid successor, each carrying its boundary-clipped slab *)
  let messages, cells = Plan.comm_stats plan in
  let messages = float_of_int messages and cells = float_of_int cells *. w in
  let msgs_per_tile = messages /. ntiles in
  let cells_per_tile = cells /. ntiles in
  let bytes_per_msg = cells /. Float.max 1. messages *. 8. in
  let tile_compute = tile_points *. net.Netmodel.flop_time in
  (* CPU-side protocol work per steady-state step, at the protocol's own
     per-tile message count and clipped volume *)
  let comm_cpu =
    (2. *. cells_per_tile *. net.Netmodel.pack_time)
    +. (msgs_per_tile
       *. (net.Netmodel.send_overhead +. net.Netmodel.recv_overhead))
  in
  let comm_wire =
    net.Netmodel.latency +. (bytes_per_msg /. net.Netmodel.bandwidth)
  in
  (* an effectively one-dimensional processor grid is a pure software
     pipeline: once full, every rank's receives landed a whole hop ago
     and its send shadows the successor's compute, so the steady state
     hides communication completely (the simulator shows ~zero slack
     over [steps × tile_compute] for 1×16 grids).  With two or more
     active grid directions a rank serialises against two neighbours and
     the protocol work is paid on the critical path. *)
  let active_dims =
    let mapping = plan.Plan.mapping in
    let nprocs = Mapping.nprocs mapping in
    if nprocs = 0 then 0
    else begin
      let p0 = Mapping.pid_of_rank mapping 0 in
      let gdim = Array.length p0 in
      let lo = Array.copy p0 and hi = Array.copy p0 in
      for rank = 1 to nprocs - 1 do
        let pid = Mapping.pid_of_rank mapping rank in
        for k = 0 to gdim - 1 do
          if pid.(k) < lo.(k) then lo.(k) <- pid.(k);
          if pid.(k) > hi.(k) then hi.(k) <- pid.(k)
        done
      done;
      let active = ref 0 in
      for k = 0 to gdim - 1 do
        if hi.(k) > lo.(k) then incr active
      done;
      !active
    end
  in
  let paid = if active_dims >= 2 then 1.0 else 0.0 in
  let total =
    (float_of_int steps *. (tile_compute +. (paid *. comm_cpu)))
    +. (float_of_int fill *. paid *. comm_wire)
  in
  let seq = points *. net.Netmodel.flop_time in
  {
    steps;
    chain;
    fill;
    tile_compute;
    comm_cpu;
    comm_wire;
    total;
    predicted_speedup = seq /. total;
    refined = true;
  }
