open Import

(** System states — the paper's [S = (Theta, rho, t)].

    A state carries the future available resources [Theta] (from time [t]
    onward), the remaining resource requirements [rho] of the computations
    the system has committed to accommodate, and the current tick [t].

    [rho] is kept as a list of {!pending} records: one per actor of each
    accommodated computation, holding the {e remaining} suffix of its step
    sequence (the head step is the one being fuelled; its amounts decrease
    as transition rules consume resources). *)

type pending = private {
  computation : string;  (** Id of the accommodated computation. *)
  actor : Actor_name.t;
  window : Interval.t;  (** The computation's [(s, d)]. *)
  steps : Requirement.step list;
      (** Remaining steps, current first; never empty (a drained pending is
          removed from the state), and every amount is positive. *)
}

type t = private {
  available : Resource_set.t;  (** [Theta], truncated to [>= now]. *)
  pending : pending list;  (** [rho], in a canonical order. *)
  now : Time.t;  (** [t]. *)
}

val make : available:Resource_set.t -> now:Time.t -> t
(** An idle state: resources but no computations to use them (availability
    strictly before [now] is dropped — it has already expired). *)

val is_idle : t -> bool
(** No pending requirements. *)

val pending_of : t -> computation:string -> pending list

val computations : t -> string list
(** Distinct ids of accommodated computations, in order of first
    appearance. *)

(** {1 Instantaneous rules} *)

val acquire : t -> Resource_set.t -> t
(** The {b resource acquisition rule}: [Theta ∪ Theta_join] at the same
    instant.  Availability in the strict past of [now] is dropped.
    (There is no resource-leave rule: a term's interval already says when
    it leaves.) *)

val revoke : t -> Resource_set.t -> t
(** Forcibly removes a capacity slice from [Theta]: the pointwise clamped
    difference ({!Resource_set.diff_clamped}), so revoking more than is
    present zeroes availability rather than failing.  Not one of the
    paper's rules — the paper requires "the time of leaving must be
    declared at the time of joining" — this is the fault-model extension
    for {e unannounced} departure. *)

val accommodate :
  ?merge:bool -> t -> Cost_model.t -> Computation.t -> (t, string) result
(** The {b computation accommodation rule}: adds [rho(Lambda, s, d)] for
    the given computation.  Fails (with a reason) when [now >= d] ("it is
    not possible to accommodate a computation if its deadline has passed")
    or when the id is already accommodated.  [merge] as in
    {!Program.to_complex}.

    Note this rule {e registers} the requirement, exactly as in the paper;
    whether the requirement can actually be met is a separate judgment
    (see [Accommodation] and [Semantics]). *)

val accommodate_parts :
  t ->
  id:string ->
  window:Interval.t ->
  (Actor_name.t * Requirement.step list) list ->
  (t, string) result
(** Lower-level accommodation from explicit remaining step lists. *)

val leave : t -> computation:string -> (t, string) result
(** The {b computation leave rule}: removes [rho(Lambda, s, d)].  Fails
    when [now >= s] — "a computation which has already started in the
    system is not allowed to leave" — or when the id is unknown. *)

val drop : t -> computation:string -> t
(** Unconditionally clears a computation's pending requirements.  Not one
    of the paper's rules: runtimes use it to kill a computation whose
    deadline has been missed.  Unknown ids are ignored. *)

(** {1 Primitive moves}

    The transition rules of [Transition] are composed from these two
    primitives; they are exposed for that module and for tests, not for
    general use. *)

val consume_in_head : t ->
  computation:string ->
  actor:Actor_name.t ->
  (Located_type.t * int) list ->
  t
(** Decrements the named amounts in the pending's {e current} (head) step,
    clamping at zero; pops the step when it drains and removes the pending
    when its last step drains.  Unknown pendings are left untouched. *)

val tick : t -> t
(** Advances the clock by [Time.dt] and expires availability in the strict
    past — the part of every transition rule that moves [t] to
    [t + dt]. *)

(** {1 Structure} *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order; states are memoization keys in the model checker. *)

val pp : Format.formatter -> t -> unit
