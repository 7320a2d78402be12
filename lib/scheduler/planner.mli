open Import

(** Migration planning.

    The paper's second future-work direction: "an actor could continue to
    execute at its current location or migrate elsewhere, carry out part
    of its computation, and then return and resume.  Comparing these
    choices presents some interesting challenges."  ROTA makes the
    comparison mechanical: each choice is a program, each program a
    complex requirement, and Theorem 2 says which ones the available
    resources can carry — and by when.

    Given a body of work (the actions to perform) anchored at a home
    location, the planner enumerates strategies, prices each (migration
    costs included, via the cost model), keeps the feasible ones, and
    ranks them by completion time. *)

type strategy =
  | Stay  (** Execute everything at the home location. *)
  | Relocate of Location.t
      (** Migrate once and finish there (no return trip). *)
  | Round_trip of Location.t
      (** Migrate, do the work, migrate back home. *)

type verdict = {
  strategy : strategy;
  program : Program.t;  (** The concrete plan, costable and executable. *)
  finish : Time.t;  (** Completion time of the scheduled plan. *)
  schedule : Accommodation.schedule;  (** The Theorem-2 certificate. *)
}

val strategies : home:Location.t -> sites:Location.t list -> strategy list
(** [Stay], plus [Relocate]/[Round_trip] for every site other than home. *)

val evaluate :
  ?cost_model:Cost_model.t ->
  Resource_set.t ->
  window:Interval.t ->
  name:Actor_name.t ->
  home:Location.t ->
  sites:Location.t list ->
  work:Action.t list ->
  verdict list
(** All {e feasible} strategies, best (earliest finish) first; ties broken
    toward fewer migrations ([Stay] < [Relocate] < [Round_trip]). *)

val best :
  ?cost_model:Cost_model.t ->
  Resource_set.t ->
  window:Interval.t ->
  name:Actor_name.t ->
  home:Location.t ->
  sites:Location.t list ->
  work:Action.t list ->
  verdict option
(** Head of {!evaluate} — the plan to pursue, or [None] when every
    strategy is an "infeasible pursuit" to avoid. *)

val best_on :
  ?cost_model:Cost_model.t ->
  Admission.t ->
  window:Interval.t ->
  name:Actor_name.t ->
  home:Location.t ->
  sites:Location.t list ->
  work:Action.t list ->
  verdict option
(** {!best} against a live admission controller: strategies are priced
    with the controller's cost model (unless overridden) and scheduled
    on its {e residual}, so pursuing the winning plan cannot disturb
    already-committed reservations. *)

val pp_strategy : Format.formatter -> strategy -> unit

val pp_verdict : Format.formatter -> verdict -> unit
