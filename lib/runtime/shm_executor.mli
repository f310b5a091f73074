(** Real shared-memory execution of a plan on OCaml 5 domains.

    The paper's abstract machine is message passing over NUMA; this
    backend instantiates the {e same} per-tile protocol ({!Protocol}) with
    one domain per processor and blocking in-memory mailboxes instead of
    the simulator — so the compiled schedule actually runs in parallel on
    the host's cores and its output is compared against the sequential
    oracle like everything else. Wall-clock speedup is measured but
    depends on the host; correctness is the point.

    Two schedules are available. The default is the paper's blocking
    receive → compute → send loop. With [~overlap:true] each rank also
    gets a {!Send_stage}: a bounded queue drained by a dedicated sender
    domain, so packed slabs are handed off and the transfer completes
    while the rank computes its next tile — the real counterpart of the
    simulator's §5 non-blocking [isend] schedule. The message set and
    per-channel order are identical either way, so both schedules (and
    both backends) report the same message/byte counters.

    Every run also drives a {!Tiles_obs.Recorder}: message/byte counters
    are always on, and with [~trace:true] each rank additionally records
    wall-clock {!Tiles_obs.Span.t} values using the same
    compute/pack/send/wait/unpack vocabulary as the simulator, so the two
    backends' traces are directly comparable.

    Use modest process counts (≲ number of cores); each rank is a real
    domain, and the overlapped schedule adds one sender domain per
    rank. *)

exception Recv_timeout of string
(** Raised (with a diagnostic naming the blocked rank, source and tag)
    when a receive blocks longer than [recv_timeout] — the symptom of a
    mis-generated schedule, which would otherwise hang forever. *)

exception Send_timeout of string
(** Raised when handing a slab to a full {!Send_stage} blocks longer than
    the timeout — the symptom of a stalled drainer. *)

type result = {
  wall_seconds : float;       (** parallel wall-clock time *)
  seq_wall_seconds : float;   (** sequential oracle wall-clock time *)
  wall_speedup : float;
      (** [seq_wall_seconds / wall_seconds]. The baseline is the wall
          time of {!Seq_exec.run}, the oracle itself, so the figure moves
          with the oracle's speed, not only the parallel run's: the
          row-interior oracle (several times faster than the per-point
          guarded walk it replaced; see EXPERIMENTS.md, "Verified solves
          at row speed") lowers every reported shm speedup — serve
          [speedup], [tune --backend shm], [bench overlap] — by about its
          own gain, with the parallel run unchanged. *)
  grid : Grid.t;              (** the parallel result *)
  max_abs_err : float;        (** vs the sequential oracle *)
  nprocs : int;
  messages : int;
  bytes : int;                (** total payload bytes sent *)
  points_computed : int;      (** total iterations executed across ranks *)
  tiles_executed : int;
  trace : Tiles_obs.Span.t list;
      (** wall-clock spans, all ranks, time-sorted; [[]] unless [trace] *)
  edges : Tiles_obs.Recorder.edge list;
      (** matched send→recv causal dependencies with wall-clock stamps;
          [[]] unless traced in Retain mode *)
  stats : Tiles_obs.Stats.t;
      (** aggregate per-rank/backend statistics; [critical_path] is the
          causal value when edges were recorded *)
}

(** The blocking tag-matched channel used between each (src, dst) rank
    pair. Exposed for tests. *)
module Mailbox : sig
  type t

  val create : unit -> t

  val send : t -> tag:int -> Tiles_util.Fbuf.t -> unit

  val recv :
    ?timeout:float ->
    ?diag:(unit -> string) ->
    t ->
    tag:int ->
    Tiles_util.Fbuf.t
  (** Blocks until a message with [tag] is available. A drained per-tag
      queue is removed from the table, so the table stays bounded by the
      number of {e pending} tags rather than growing with every tag ever
      seen. [timeout] (seconds) defaults to [infinity] — wait forever;
      with a finite timeout, raises {!Recv_timeout} with [diag ()] once
      the deadline passes — provided something (e.g. the run's watchdog)
      wakes the condition periodically. A non-positive (or NaN) timeout
      raises [Invalid_argument]: [0.] used to silently mean "wait
      forever", disabling the watchdog exactly when the caller asked for
      the tightest deadline. *)

  val tag_count : t -> int
  (** Number of per-tag queues currently in the table (for leak tests). *)

  val nudge : t -> unit
  (** Wake all waiters so they can re-check their deadlines. *)
end

(** The per-rank asynchronous send stage of the overlapped schedule: a
    bounded queue of delivery thunks drained by a dedicated domain.
    Exposed for tests. *)
module Send_stage : sig
  type t

  val create : capacity:int -> t
  (** Raises [Invalid_argument] unless [capacity >= 1]. *)

  val capacity : t -> int

  val submit : ?timeout:float -> ?diag:(unit -> string) -> t -> (unit -> unit) -> float
  (** Enqueue a delivery thunk, blocking while the queue is at capacity;
      returns the seconds spent blocked so the caller can charge
      backpressure as communication wait. [timeout] follows the
      {!Mailbox.recv} contract: default [infinity], finite deadlines
      raise {!Send_timeout} with [diag ()] (a periodic {!nudge} is needed
      for the deadline to be noticed), non-positive raises
      [Invalid_argument]. Raises [Invalid_argument] if the stage is
      {!close}d. *)

  val drain : t -> unit
  (** The drainer loop: runs submitted thunks in FIFO order until the
      stage is {!close}d {e and} empty. Run this in the sender domain. *)

  val close : t -> unit
  (** No further submits; {!drain} returns once the queue empties. *)

  val pending : t -> int
  (** Thunks currently queued (for tests). *)

  val nudge : t -> unit
  (** Wake blocked submitters so they can re-check their deadlines. *)
end

val run :
  ?walker:Walker.variant ->
  ?check:bool ->
  ?trace:bool ->
  ?recorder:Tiles_obs.Recorder.t ->
  ?overlap:bool ->
  ?send_queue:int ->
  ?recv_timeout:float ->
  plan:Tiles_core.Plan.t ->
  kernel:Kernel.t ->
  unit ->
  result
(** Always Full mode (the whole point is the real data flow).
    [walker]/[check] select the tile-execution engine and its NaN-read
    validation exactly as in {!Protocol.prepare}. [trace]
    (default false) records per-rank wall-clock spans. [recorder]
    supplies a caller-created recorder instead (matching [nprocs]
    required; [trace] is then the recorder's flag) — e.g. a
    [~mode:Streaming] one to keep long traced runs at O(nprocs) memory,
    or a labelled one so a serve job's trace is attributable. [overlap] (default
    false) runs the §5 overlapped schedule: receives pre-posted per tile
    ({!Protocol.rank_program}), sends handed to a per-rank bounded
    {!Send_stage} of [send_queue] slots (default 4) and completed by a
    sender domain while the rank computes on. Enqueue time blocked on a
    full stage is traced as [Wait], the hand-off as [Send].
    [recv_timeout] (default 30 seconds) bounds how long any receive — or,
    overlapped, any hand-off to a full send stage — may block before
    {!Recv_timeout} (resp. {!Send_timeout}) is raised; pass [infinity] to
    wait forever (this also disables the watchdog domain). Raises
    [Invalid_argument] on a non-positive [recv_timeout] or [send_queue],
    and like {!Protocol.prepare}. *)
