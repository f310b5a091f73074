(** The analytic cost model: completion time in the style of
    Hodzic–Shang (the paper's refs [9, 10]), in two passes.

    {!predict} is the cheap pass used to prune the whole candidate set:
    [steps × (tile compute + per-step communication)] under the linear
    schedule, where the schedule length is
    {!Tiles_core.Schedule.effective_steps} — the span between the first
    and last {e real} iterations — rather than the candidate-tile step
    count, which the nearly-empty corner tiles of oblique tilings inflate
    (DESIGN.md finding 4). Communication splits into a CPU-side charge
    (pack/unpack, send/recv overheads) paid on every step, and a wire
    charge (α latency + β transfer) paid only on the [fill] pipeline
    fill/drain hops — in the self-timed steady state the wire time of one
    processor's send overlaps with its successor's compute, so charging
    it per step would systematically punish long chains of small tiles
    that the simulator actually favours.

    {!refine} is the exact-volume pass run on the pruning shortlist: the
    message count and volume are the protocol's own
    ({!Tiles_core.Plan.comm_stats}, boundary-clipped, one
    {!Tiles_core.Tile_space.slab_points} count per message, no point
    enumeration). Costlier than {!predict} but still far cheaper than a
    simulation.

    The predictor exists to {e rank} candidates so the exact simulator
    only runs on a short shortlist; tests bound its error against the
    simulator on SOR / Jacobi / ADI. *)

type estimate = {
  steps : int;  (** effective wavefront steps (first → last iteration) *)
  chain : int;  (** longest per-processor tile chain *)
  fill : int;   (** [steps − chain], clamped at 0: pipeline fill + drain *)
  tile_compute : float;
      (** seconds of compute per tile on the critical path (full tile in
          {!predict}, the critical rank's average in {!refine}) *)
  comm_cpu : float;   (** pack + unpack + send/recv overhead, per step *)
  comm_wire : float;  (** α latency + β transfer, per fill hop *)
  total : float;  (** predicted completion, seconds *)
  predicted_speedup : float;
  refined : bool;  (** whether this came from {!refine} *)
}

val predict :
  ?width:int -> Tiles_core.Plan.t -> net:Tiles_mpisim.Netmodel.t -> estimate
(** Cheap pass: [steps × (tile_compute + comm_cpu) + fill × comm_wire],
    with the slab volume over-approximated by the unclipped TTIS count.
    [width] is the kernel's fields-per-point (default 1); it scales the
    communicated bytes and the pack/unpack CPU charge. *)

val fields : estimate -> (string * float) list
(** The estimate's externally comparable quantities, keyed like
    {!Tiles_obs.Stats.timed_fields} ([completion_s], [speedup]) — the
    residual report ({!Tiles_obs.Residual}) pairs these with observed
    run statistics. *)

val source : estimate -> string
(** Residual-report source tag: ["predictor.predict"] or
    ["predictor.refine"] depending on {!estimate.refined}. *)

val refine :
  ?width:int -> Tiles_core.Plan.t -> net:Tiles_mpisim.Netmodel.t -> estimate
(** Exact-volume pass:
    [crit_compute + chain × comm_cpu + fill × (avg_tile_compute + comm_wire)]
    where [crit_compute] counts the longest chain's real iterations and
    the communication terms use the protocol's exact per-tile message
    count and clipped volume. *)
