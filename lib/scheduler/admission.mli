open Import

(** Admission control.

    The question ROTA exists to answer: "can the system accommodate one
    more computation without affecting the computations it has already
    committed to?"  This module wraps the Theorem-4 machinery as an
    admission controller, alongside the baseline policies the paper's
    argument implies:

    - {b Rota}: admit iff the residual (expiring) resources satisfy the
      computation's concurrent requirement in {e order} (Theorem 4); on
      admission the concrete reservation is committed to the calendar, so
      later admissions cannot disturb it.
    - {b Rota_unmerged}: ablation of Rota with the consecutive-same-type
      step merge disabled (one step per action).
    - {b Rota_given_order}: ablation of Rota that places parts only in
      their given order instead of trying heuristics.
    - {b Aggregate}: admit iff, per located type, the total capacity within
      the window minus the total demand of overlapping admitted
      computations covers the newcomer's total demand.  This is the
      "correct total quantities" test the paper warns about: it ignores
      {e when} resources are available relative to the order steps need
      them, so it over-admits; it books no reservation.
    - {b Optimistic}: admit everything whose deadline has not passed.

    Only the Rota variants book reservations; the baselines rely on
    runtime scheduling and are exactly what the end-to-end experiment (E6)
    measures against. *)

type policy =
  | Rota
  | Rota_unmerged
  | Rota_given_order
  | Aggregate
  | Optimistic

val policy_name : policy -> string

val all_policies : policy list

type outcome = {
  admitted : bool;
  reason : string;  (** Human-readable justification either way. *)
  schedules : (Actor_name.t * Accommodation.schedule) list option;
      (** The raw schedules, for policies that produce them. *)
  certificate : Certificate.t Lazy.t;
      (** Machine-checkable decision evidence: the theorem consulted and
          what was checked against which residual ({!Certificate}).
          Lazy — building it serializes schedules into rectangles — so
          untraced decisions never pay for it; forcing is free of side
          effects and idempotent. *)
}

type t
(** An admission controller: a policy plus its bookkeeping. *)

val create : ?cost_model:Cost_model.t -> policy -> Resource_set.t -> t
(** [create policy capacity]; the cost model defaults to
    {!Cost_model.default}. *)

val policy : t -> policy

val cost_model : t -> Cost_model.t
(** The cost model the controller prices requirements with — exposed so
    derived controllers (e.g. pool subdivision) inherit it. *)

val calendar : t -> Calendar.t
(** The underlying ledger (capacity and any reservations). *)

val residual : t -> Resource_set.t

val ledger_size : t -> int
(** Live bookkeeping records: calendar entries plus demand records — the
    scale the incremental ledger keeps decision cost independent of. *)

val request : t -> now:Time.t -> Computation.t -> t * outcome
(** Decide one arrival.  Deadline-passed and already-admitted requests
    are rejected by every policy.  On a Rota admission the controller
    commits the reservation.  An id whose earlier admission has left the
    ledger (released, or expired by {!advance}) is decided afresh. *)

val request_session : t -> now:Time.t -> Session.t -> t * outcome
(** Like {!request} for an interacting-actor session: the Rota policies
    run the dependency-aware (Precedence) scheduler on the residual and
    commit one reservation per segment; baselines use their usual
    order-blind checks on the aggregate demand. *)

val complete : t -> computation:string -> t
(** Releases any remaining reservation (completion or deadline kill). *)

val withdraw : t -> now:Time.t -> computation:string -> (t, string) result
(** The paper's {b computation leave} rule at the admission layer: an
    admitted computation may withdraw only before its start time
    ([now < s]); its reservation returns to the residual.  Fails when the
    computation is unknown or has already started. *)

val add_capacity : t -> Resource_set.t -> t
(** Resources joining the system. *)

val remove_capacity : t -> Resource_set.t -> (t, string) result
(** Withdraws uncommitted capacity (delegation to a child encapsulation —
    see [Pool]); fails when commitments cover part of the slice. *)

val revoke : t -> Resource_set.t -> t * Calendar.entry list
(** {!Calendar.revoke} at the admission layer: forcibly withdraws an
    {e unannounced} capacity slice and returns the evicted entries —
    the commitments broken by the fault, in id order — for the repair
    ladder.  Baseline demand records are kept (they hold no
    reservations; the shrunk capacity shows up in their later
    decisions). *)

val adopt : t -> Calendar.entry -> (t, string) result
(** Transfers an existing reservation into this controller's ledger —
    used when a child encapsulation is assimilated and its commitments
    move to the parent.  Fails when the residual cannot cover it. *)

val remember_demand :
  t ->
  computation:string ->
  window:Interval.t ->
  totals:(Located_type.t * int) list ->
  t
(** Re-installs a baseline (Aggregate/Optimistic) demand record without
    re-deciding — {!adopt}'s counterpart for reservation-less
    admissions, used when WAL replay reconstructs a controller from its
    own decision certificates.  Overwrites any record with the same id. *)

val advance : t -> Time.t -> t
(** Move the controller's notion of "now" forward, expiring the past:
    calendar entries and demand records whose window stops at or before
    the new tick leave the ledger ({!Calendar.advance}). *)

val already_admitted : t -> string -> bool
(** Whether the id holds a calendar entry or a demand record — the
    duplicate test {!request} applies.  O(log n). *)

val admitted_demands : t -> (string * Interval.t * (Located_type.t * int) list) list
(** For the Aggregate baseline's ledger (and diagnostics): each admitted,
    still-active computation with its window and per-type total demand,
    in computation-id order. *)

(** {2 Snapshots}

    The controller's durable form: policy, the calendar
    ({!Calendar.snapshot}), and the baselines' demand ledger, stamped
    with the {!Certificate.digest} of the residual at save time.
    {!restore} rebuilds the state through the same validated paths as
    live admission and fails unless the rebuilt residual hashes to the
    recorded digest, so a corrupt or stale snapshot is refused instead
    of silently voiding commitments. *)

val snapshot : t -> Rota_obs.Json.t

val restore : ?cost_model:Cost_model.t -> Rota_obs.Json.t -> (t, string) result
(** Accepts exactly what {!snapshot} produces; the cost model is not
    serialized (it prices future requests, not recorded state) and
    defaults to {!Cost_model.default}. *)

module Obs : sig
  val slug : string -> string
  (** Compresses a free-text reject reason into a stable counter-label
      slug; never empty (falls back to ["other"]).  An alias for
      {!Rota_obs.Slug.of_reason}, the single taxonomy shared with trace
      summaries. *)
end

val pp_outcome : Format.formatter -> outcome -> unit
