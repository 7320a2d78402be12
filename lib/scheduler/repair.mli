open Import

(** Commitment repair: the graceful-degradation ladder.

    When an {e unannounced} fault (see [Rota_sim.Fault]) breaks the
    paper's "time of leaving must be declared" assumption, the
    commitments evicted by {!Calendar.revoke} still have remaining work
    and an un-passed deadline.  This module tries to rescue each one
    with the same machinery ROTA used to admit it — every rung is a
    Theorem-3 re-check over the post-fault {e residual}, so a repair
    can never disturb a commitment that survived the fault (Theorem 4's
    non-interference discipline applied to recovery):

    + {b Re-accommodate}: schedule the remaining work, as-is, on the
      residual.
    + {b Migrate}: when the remaining work is pure computation, replay
      the planner's [Relocate] strategy — price pack/transfer/unpack
      with the controller's cost model and re-check at each candidate
      site.
    + {b Backoff-retry}: wait for capacity to churn back in, retrying
      with capped exponential backoff.
    + {b Preempt}: give up and kill — by policy, lowest-slack victims
      first (the caller orders a batch with {!slack}). *)

type victim = {
  computation : string;
  window : Interval.t;  (** The original [(s, d)]; repair never moves [d]. *)
  parts : (Actor_name.t * Requirement.step list) list;
      (** Remaining (unconsumed) steps per actor, from [State.pending_of]. *)
}

type rung = Reaccommodate | Migrate of Location.t

val rung_name : rung -> string
(** ["reaccommodate"] or ["migrate"] — stable event labels. *)

type backoff = {
  base : int;  (** First retry delay, in ticks. *)
  cap : int;  (** Upper bound on any single delay. *)
  max_attempts : int;  (** Ladder gives up after this many attempts. *)
}

val default_backoff : backoff
(** [{ base = 1; cap = 8; max_attempts = 4 }]: delays 1, 2, 4, then
    preempt. *)

val delay : backoff -> attempt:int -> int
(** [min cap (base * 2^attempt)]. *)

type repaired = {
  controller : Admission.t;  (** With the rescue reservation committed. *)
  rung : rung;
  schedules : (Actor_name.t * Accommodation.schedule) list;
      (** The fresh Theorem-3 certificates. *)
  parts : (Actor_name.t * Requirement.step list) list;
      (** The steps actually committed — rewritten (migration legs
          prepended, cpu retargeted) when [rung] is [Migrate]. *)
  certificate : Certificate.t;
      (** Serializable Theorem-3 evidence for the re-admission, pinned
          to the pre-adopt residual — what the engine attaches to the
          repair's decision record. *)
}

type outcome =
  | Repaired of repaired
  | Retry of { at : Time.t; attempt : int }
      (** Rungs 1–2 failed but a later attempt may succeed: re-run
          {!attempt} at [at] with this [attempt] count. *)
  | Preempted of { reason : string }
      (** Rung 4: the ladder is exhausted (or no retry fits before the
          deadline); the caller should kill the victim. *)

val slack : now:Time.t -> victim -> int
(** Remaining laxity: window ticks left minus the largest single
    actor's remaining quantity.  The batch-ordering heuristic behind
    "kill lowest-slack first" — callers repair high-slack victims last
    so that when capacity is short it is the lowest-slack victims that
    reach {!Preempted}. *)

val attempt :
  ?backoff:backoff ->
  ?attempt:int ->
  Admission.t ->
  now:Time.t ->
  victim ->
  outcome
(** Walk the ladder once for one victim.  The victim's previous
    calendar entry must already be released/evicted; on [Repaired] the
    returned controller carries the new commitment under the same
    computation id.

    When the metrics registry is enabled each call records
    [repair/attempts.<policy>], a [repair/attempt_s.<policy>] latency
    observation, and a [repair/outcome.<label>] counter
    ([reaccommodate], [migrate], [retry], or [preempted]) — the same
    per-policy label convention as the admission series. *)

val pp_outcome : Format.formatter -> outcome -> unit
