module Vec = Tiles_util.Vec
module Fbuf = Tiles_util.Fbuf
module Tiling = Tiles_core.Tiling
module Tile_space = Tiles_core.Tile_space
module Mapping = Tiles_core.Mapping
module Comm = Tiles_core.Comm
module Plan = Tiles_core.Plan

type comms = {
  send : dst:int -> tag:int -> Fbuf.t -> unit;
  recv : src:int -> tag:int -> Fbuf.t;
  compute : float -> unit;
  pack : float -> unit;
  unpack : float -> unit;
}

type mode = Full | Timing

type slab_mismatch = {
  mm_rank : int;
  mm_stage : [ `Pack | `Unpack ];
  mm_dm : Vec.t;
  mm_ts : int;
  mm_expected : int;
  mm_actual : int;
}

exception Slab_mismatch of slab_mismatch

let slab_mismatch_to_string m =
  Printf.sprintf
    "Protocol: rank %d %s cell count mismatch for direction %s at tile \
     t^S=%d: expected %d cells, walked %d"
    m.mm_rank
    (match m.mm_stage with `Pack -> "pack" | `Unpack -> "unpack")
    (Vec.to_string m.mm_dm) m.mm_ts m.mm_expected m.mm_actual

let () =
  Printexc.register_printer (function
    | Slab_mismatch m -> Some (slab_mismatch_to_string m)
    | _ -> None)

type direction = {
  dm : Vec.t;
  dss : Vec.t list;  (* descending d^S_m, so receives match channel order *)
  slab_lo : int array;
  cells : Vec.t -> int;  (* the slab's clipped point count, per tile *)
}

type shared = {
  plan : Plan.t;
  kernel : Kernel.t;
  mode : mode;
  walker : Walker.variant;
  check : bool;
  inner : int array option;  (* subtile shape for every rank's walker *)
  flop_time : float;
  pack_time : float;
  grid : Grid.t option;
  tile_points : Vec.t -> int;
  directions : direction list;
  points_per_rank : int array;
  tiles_per_rank : int array;
}

let build_directions (plan : Plan.t) =
  let comm = plan.Plan.comm in
  let m = comm.Comm.m in
  List.map
    (fun (dm, dss) ->
      let slab_lo = Comm.slab_lo comm ~dm in
      {
        dm;
        dss = List.sort (fun a b -> compare b.(m) a.(m)) dss;
        slab_lo;
        cells = Tile_space.slab_counter plan.Plan.tspace ~lo:slab_lo;
      })
    (comm.Comm.dm : (Vec.t * Vec.t list) list)

(* minsucc: successors of a predecessor tile in one processor direction
   share its pid, so the lexicographically minimum valid successor has
   the smallest valid ts. *)
let minsucc_ts mapping ~pid ~pred_ts dss =
  let m = mapping.Mapping.m in
  let cands =
    List.filter_map
      (fun dS ->
        let ts = pred_ts + dS.(m) in
        if Mapping.valid mapping ~pid ~ts then Some ts else None)
      dss
  in
  match cands with
  | [] -> None
  | first :: rest -> Some (List.fold_left min first rest)

let prepare ?(walker = Walker.Fastpath) ?(check = false) ?inner ~mode ~plan
    ~kernel ~flop_time ~pack_time () =
  let n = Tiling.dim plan.Plan.tiling in
  if kernel.Kernel.dim <> n then invalid_arg "Protocol.prepare: kernel dimension";
  if
    not
      (Tiles_loop.Dependence.to_matrix (Kernel.deps kernel)
      = Tiles_loop.Dependence.to_matrix plan.Plan.nest.Tiles_loop.Nest.deps)
  then invalid_arg "Protocol.prepare: kernel dependencies differ from the plan's";
  let nprocs = Mapping.nprocs plan.Plan.mapping in
  let grid =
    if mode = Full then
      Some
        (Grid.create plan.Plan.nest.Tiles_loop.Nest.space
           ~width:kernel.Kernel.width)
    else None
  in
  {
    plan;
    kernel;
    mode;
    walker;
    check;
    inner;
    flop_time;
    pack_time;
    grid;
    tile_points = Tile_space.slab_counter plan.Plan.tspace ~lo:(Array.make n 0);
    directions = build_directions plan;
    points_per_rank = Array.make nprocs 0;
    tiles_per_rank = Array.make nprocs 0;
  }

let rank_program ?(overlap = false) shared comms rank =
  let plan = shared.plan and kernel = shared.kernel in
  let comm = plan.Plan.comm in
  let mapping = plan.Plan.mapping in
  let n = plan.Plan.tiling.Tiling.n in
  let m = comm.Comm.m in
  let width = kernel.Kernel.width in
  let directions = shared.directions in
  let pid = Mapping.pid_of_rank mapping rank in
  let tlo, thi = Mapping.chain mapping rank in
  let ntiles = thi - tlo + 1 in
  let walker =
    match shared.mode with
    | Full ->
      Some
        (Walker.make ?inner:shared.inner ~plan ~kernel ~rank ~ntiles
           ~variant:shared.walker ~check:shared.check ())
    | Timing -> None
  in
  let la =
    match walker with
    | Some w -> Fbuf.make (Walker.lds_total w * width) Float.nan
    | None -> Fbuf.create 0
  in
  (* Timing-mode payloads: views of one zero buffer, grown on demand —
     nobody reads them, and the transport copies what it keeps *)
  let zeros = ref (Fbuf.create 0) in
  let payload len =
    match walker with
    | Some _ -> Fbuf.make len 0.
    | None ->
      if Fbuf.length !zeros < len then
        zeros := Fbuf.make (max len (2 * Fbuf.length !zeros)) 0.;
      Fbuf.sub !zeros 0 len
  in
  let tile_buf = Array.make n 0 in
  let rank_of pid =
    match Mapping.rank_of_pid mapping pid with
    | Some r -> r
    | None -> failwith "Protocol: neighbour pid has no rank"
  in
  for ts = tlo to thi do
    let trel = ts - tlo in
    let tile = Mapping.join mapping ~pid ~ts in
    Array.blit tile 0 tile_buf 0 n;
    (* ---------------- RECEIVE ---------------- *)
    (* the channels this tile must receive on (minsucc pairing), in
       deterministic channel order shared by both schedules *)
    let expected =
      List.concat_map
        (fun dir ->
          let pred_pid = Vec.sub pid dir.dm in
          List.filter_map
            (fun dS ->
              let pred_ts = ts - dS.(m) in
              if
                Mapping.valid mapping ~pid:pred_pid ~ts:pred_ts
                && minsucc_ts mapping ~pid ~pred_ts dir.dss = Some ts
              then Some (dir, dS, pred_pid, pred_ts)
              else None)
            dir.dss)
        directions
    in
    let recv_one (_, _, pred_pid, pred_ts) =
      comms.recv ~src:(rank_of pred_pid) ~tag:pred_ts
    in
    let unpack_one (dir, dS, pred_pid, pred_ts) buf =
      (match walker with
      | None -> ()
      | Some w ->
        let pred_tile = Mapping.join mapping ~pid:pred_pid ~ts:pred_ts in
        let count =
          Walker.unpack_slab w ~trel ~pred_tile ~ds:dS ~lo:dir.slab_lo ~la
            ~buf
        in
        if count * width <> Fbuf.length buf then
          raise
            (Slab_mismatch
               {
                 mm_rank = rank;
                 mm_stage = `Unpack;
                 mm_dm = dir.dm;
                 mm_ts = ts;
                 mm_expected = Fbuf.length buf / width;
                 mm_actual = count;
               }));
      comms.unpack (float_of_int (Fbuf.length buf) *. shared.pack_time)
    in
    if overlap then
      (* §5 overlapped schedule: pre-post every receive of this tile and
         drain the channels before scattering any slab, so a backend with
         asynchronous delivery keeps all incoming transfers in flight at
         once instead of serialising wait → unpack per channel *)
      List.iter
        (fun (ch, buf) -> unpack_one ch buf)
        (List.map (fun ch -> (ch, recv_one ch)) expected)
    else
      List.iter (fun ch -> unpack_one ch (recv_one ch)) expected;
    (* ---------------- COMPUTE ---------------- *)
    let points = ref 0 in
    (match walker with
    | None -> points := shared.tile_points tile_buf
    | Some w -> points := Walker.compute_tile w ~trel ~tile:tile_buf ~la);
    comms.compute (float_of_int !points *. shared.flop_time);
    shared.points_per_rank.(rank) <- shared.points_per_rank.(rank) + !points;
    shared.tiles_per_rank.(rank) <- shared.tiles_per_rank.(rank) + 1;
    (* ---------------- SEND ---------------- *)
    List.iter
      (fun dir ->
        let succ_exists =
          List.exists
            (fun dS ->
              Mapping.valid mapping ~pid:(Vec.add pid dir.dm) ~ts:(ts + dS.(m)))
            dir.dss
        in
        if succ_exists then begin
          let cells = dir.cells tile_buf in
          let buf = payload (cells * width) in
          (match walker with
          | None -> ()
          | Some w ->
            let count =
              Walker.pack_slab w ~trel ~tile:tile_buf ~lo:dir.slab_lo ~la
                ~buf
            in
            if count <> cells then
              raise
                (Slab_mismatch
                   {
                     mm_rank = rank;
                     mm_stage = `Pack;
                     mm_dm = dir.dm;
                     mm_ts = ts;
                     mm_expected = cells;
                     mm_actual = count;
                   }));
          comms.pack (float_of_int (cells * width) *. shared.pack_time);
          comms.send ~dst:(rank_of (Vec.add pid dir.dm)) ~tag:ts buf
        end)
      directions
  done;
  (* ---------------- write-back (LDS -> DS) ---------------- *)
  match (shared.grid, walker) with
  | Some grid, Some w ->
    for ts = tlo to thi do
      let trel = ts - tlo in
      let tile = Mapping.join mapping ~pid ~ts in
      Walker.write_back w ~trel ~tile ~la grid
    done;
    (* a zero-cost charge so span-recording backends close the write-back
       interval as compute instead of leaving it unattributed *)
    comms.compute 0.
  | _ -> ()
