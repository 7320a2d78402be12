open Import

(** Cost-model calibration.

    The paper's footnote on [Phi] anticipates imperfect pricing: "at the
    cost of some inefficiency, estimates could be used and revised as
    necessary".  This module is the revision loop: run the system with a
    {e believed} cost model while execution follows the {e true} one
    ([Engine.run ~cost_model ~true_cost_model]), compare what admission
    believed the admitted work would cost with what the runtime actually
    consumed, and scale the believed model accordingly.

    Calibration is per resource {b kind} (CPU-priced fields vs
    network-priced fields): coarse, robust, and enough to restore the
    deadline-assurance property in a few iterations (experiment E10). *)

type ratios = {
  cpu : float;  (** actual / believed for CPU-priced work. *)
  network : float;  (** actual / believed for network-priced work. *)
}

val ratios_of_run : believed:Cost_model.t -> Trace.t -> Engine.report -> ratios
(** Actual-over-believed per kind, from one run.  A kind with no believed
    demand keeps ratio [1.0].  Note the estimate is conservative when
    deadline kills truncate actual consumption — iterate. *)

val scale : Cost_model.t -> ratios -> Cost_model.t
(** Scales the model's CPU-priced fields by [cpu] and network-priced
    fields by [network], rounding up, with every field at least [1]
    (a zero-cost action cannot be learned back). *)

val calibrate :
  ?iterations:int ->
  policy:Admission.policy ->
  believed:Cost_model.t ->
  true_model:Cost_model.t ->
  Trace.t ->
  (Cost_model.t * Engine.report) list
(** The closed loop: run, measure, rescale, repeat ([iterations] times,
    default 3).  Returns the believed model used and the report of each
    iteration, first iteration first. *)
