(** Distributed execution of a {!Plan} on the simulated cluster.

    Each MPI rank owns one processor id and executes its tile chain with
    the per-tile protocol of §3.2:

    {v RECEIVE (halo unpack)  →  compute TTIS points  →  SEND (pack) v}

    Receives pair with sends through the paper's rules: a tile receives
    from a predecessor tile iff it is that predecessor's lexicographically
    minimum valid successor in the processor direction; a tile sends one
    aggregated message per processor direction iff some valid successor
    exists. Message tags carry the sender's tile index, making the
    matching explicit.

    Two modes:
    - [Full]: allocates the LDS, runs the real stencil arithmetic, and
      writes results back to the global grid through the LDS→DS
      transition, so the output can be compared bit-for-bit against
      {!Seq_exec}. Never-written LDS cells are NaN and reads assert
      non-NaN, so protocol bugs surface immediately.
    - [Timing]: skips data movement and arithmetic but charges the exact
      same virtual-time costs (tile and slab sizes come from
      {!Tiles_core.Tile_space.slab_counter}, which counts without
      enumerating points). Used by the benchmark harness; a test checks the
      two modes report identical virtual completion times. *)

type mode = Full | Timing

type result = {
  stats : Tiles_mpisim.Sim.stats;
  seq_modelled : float;  (** modelled sequential time of the original loop *)
  speedup : float;       (** [seq_modelled / stats.completion] *)
  grid : Grid.t option;  (** populated in [Full] mode *)
  points_computed : int; (** total iterations executed across ranks *)
  tiles_executed : int;
}

val run :
  ?walker:Walker.variant ->
  ?check:bool ->
  ?inner:int array ->
  ?mode:mode ->
  ?overlap:bool ->
  ?trace:bool ->
  ?recorder:Tiles_obs.Recorder.t ->
  plan:Tiles_core.Plan.t ->
  kernel:Kernel.t ->
  net:Tiles_mpisim.Netmodel.t ->
  unit ->
  result
(** Raises [Invalid_argument] if the kernel's dependencies don't match the
    plan's nest.

    [walker]/[check] (defaults {!Walker.Fastpath}, [false]) select the
    tile-execution engine and its NaN-read validation, and [inner] the
    optional cache-resident subtile shape; see {!Protocol.prepare}.
    [Timing] mode never touches data, so they only matter in [Full]
    mode (in particular the simulator charges per-point flop time, so
    [inner] changes wall-clock walker throughput, never the simulated
    completion).

    [overlap] (default false) runs {!Protocol.rank_program} in its
    overlapped §5 schedule (receives pre-posted per tile) and switches
    sends to the non-blocking, NIC-driven model of
    {!Tiles_mpisim.Sim.Api.isend}: the paper's §5 future-work scheme
    (ref [8]) where a tile's outgoing communication overlaps the next
    tile's computation.

    [trace] (default false) records per-rank activity spans in
    [result.stats.trace] for Gantt rendering, plus the message dependency
    edges in [result.stats.edges]. [recorder] passes a caller-created
    recorder through to {!Tiles_mpisim.Sim.run} (it must read virtual
    time, i.e. be created with a clock that always returns 0) — e.g. a
    [~mode:Streaming] one so a thousand-rank traced sim stays at
    O(nprocs) memory. *)
