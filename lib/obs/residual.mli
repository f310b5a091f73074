(** Residuals of the analytic cost model against observed runs.

    The tuner's two-pass predictor exists to {e rank} configurations
    without running them; this module measures how far its absolute
    estimates drift from what the backends actually report, so model rot
    is visible in every bench artifact instead of surfacing as a silently
    mistuned shortlist.

    The module is deliberately generic — an {!entry} is just (label,
    source, field, predicted, observed) — because the observability
    layer sits below the model layer in the build: the bench harness and
    the CLI turn [Tiles_tune.Predictor] estimates into entries through
    {!of_fields} and the predictor's [fields] accessor. *)

type entry = {
  label : string;   (** run configuration, e.g. ["sor/nonrect z=8 p=16"] *)
  source : string;  (** which estimator, e.g. ["predictor.refine"] *)
  field : string;   (** compared quantity, e.g. ["completion_s"] *)
  predicted : float;
  observed : float;
}

val of_fields :
  label:string ->
  source:string ->
  observed:(string * float) list ->
  (string * float) list ->
  entry list
(** Pair each predicted [(field, value)] with the observed value of the
    same field; fields with no observation are dropped. *)

val rel_error : entry -> float
(** [(predicted − observed) / observed]; 0 when both are 0, ±inf when
    only the observation is 0. Positive = over-estimate. *)

(** Per-source aggregate over a suite of entries — the calibration
    table. *)
type calibration = {
  source : string;
  count : int;
  mean_abs_rel : float;  (** average magnitude of the relative error *)
  mean_rel : float;      (** signed bias (+ = systematic over-estimate) *)
  max_abs_rel : float;
}

val calibrate : entry list -> calibration list
(** Grouped by [source], input order preserved. *)

val to_json : entry list -> Tiles_util.Json.t
(** Machine-readable report: every entry with its relative error plus
    the calibration table. *)

val report : entry list -> string
(** Human-readable rendering of the same. *)
