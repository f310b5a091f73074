(** Post-mortem analysis of traced simulations: the per-rank time
    breakdown, busy fractions and counters live in {!Tiles_obs.Stats}. *)

val aggregate : Sim.stats -> Tiles_obs.Stats.t
(** The backend-neutral aggregate record (busy fractions, comm/compute
    ratio, message counters) for a simulated run — directly comparable
    with the one reported by {!Tiles_runtime.Shm_executor}. *)
