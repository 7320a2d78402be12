open Import

(** The labelled transition rules.

    The paper drives system evolution with one family of rules over
    [S = (Theta, rho, t)]:

    - the {b sequential rule}: one resource type fuels one actor's current
      action for [dt];
    - the {b concurrent rule}: several types fuel several actors in the
      same [dt];
    - the {b expiration rules}: types available during [dt] that fuel
      nobody expire;
    - the {b general rule}: any mixture of the above — some types are
      consumed, the rest expire.

    All are instances of one parameterized step: choose an assignment of
    currently-available resource types to actors whose {e possible action}
    (head step) requires them — at most one actor per type, possibly
    several types per actor — then advance the clock by [dt].  A type
    assigned to an actor transfers [min(rate, remaining)] units out of the
    actor's requirement; unassigned availability in the elapsed slice
    expires. *)

type assignment = {
  ltype : Located_type.t;
  computation : string;
  actor : Actor_name.t;
}
(** "[xi -> a]": one resource type fuelling one actor for this step. *)

type label = assignment list
(** A transition label; [\[\]] is a pure expiration step. *)

val consumable : State.t -> (Located_type.t * (string * Actor_name.t) list) list
(** For each resource type with positive rate at the current tick, the
    pendings whose current step still requires it {e and} whose window
    contains the current tick (a computation neither starts before [s] nor
    consumes after [d]). *)

val labels : State.t -> label list
(** Every label enabled at the state: the cartesian product, over
    consumable types, of "expire or fuel one of the candidate actors".
    The list always contains the empty (all-expire) label and grows
    exponentially with contention — intended for the bounded model checker
    on small states; use {!greedy_label} for a canonical single choice. *)

val label_count : State.t -> int
(** [List.length (labels s)] computed without materializing the list. *)

val greedy_label : State.t -> label
(** Maximal progress with an earliest-deadline-first tie-break: every
    consumable type is assigned, to the candidate whose window ends
    soonest (ties by computation id, then actor name). *)

val apply : State.t -> label -> State.t
(** One step of the general rule: perform the label's transfers, advance
    the clock, expire the elapsed slice.  Raises [Invalid_argument] when
    the label assigns a type twice. *)

val expired_slice : State.t -> label -> Resource_set.t
(** The resources that expire {e unused} during the step: the elapsed
    slice [\[now, now+dt)] of availability minus what the label consumes.
    These are the [Theta_expire] building blocks of the Figure-1
    semantics: unwanted resources that could have accommodated new
    computations. *)

val run_greedy : State.t -> horizon:Time.t -> State.t
(** Applies [apply s (greedy_label s)] step by step until the clock
    reaches [horizon]. *)
