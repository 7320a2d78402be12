open Import

(** The daemon's replicated state machine: an admission controller plus
    the logical clock, with one transition function used two ways.

    {!apply} is the live path — decide a wire operation, return the
    trace events that {e are} the durable record of the transition (the
    WAL is a valid ROTB event stream) together with the wire reply.
    {!replay} is the recovery path — reconstruct the same state from
    those events alone, without re-running any decision procedure:
    admissions are re-installed from their own certificates
    ({!Certificate.schedules_of_parts} / {!Admission.remember_demand}),
    revocations re-derive their evictions deterministically through
    {!Admission.revoke}.  Keeping both paths in one module is what makes
    "state after crash = state the WAL proves" a local property.

    Time only moves forward: each operation's [now] is clamped to the
    replica's clock, and the controller is {!Admission.advance}d before
    deciding, so the residual a decision pins is truncated exactly the
    way the auditor's reconstruction at that simulated time is.  The
    advance also drops every commitment whose window has ended: a
    release at or past the deadline answers [existed = false] and logs
    nothing, and an admit reusing that id is decided afresh. *)

type t

val create : ?cost_model:Cost_model.t -> Admission.policy -> t
(** Empty capacity, clock at 0. *)

val policy : t -> Admission.policy
val now : t -> Time.t
val controller : t -> Admission.t

val run_label : Admission.policy -> string
(** The [run-started] label the WAL opens with (["serve policy=..."]) —
    the same [policy=] field the auditor reads to key its ledger. *)

val residual_digest : t -> string
(** {!Certificate.digest} of the controller's current residual — the
    value recovery must reproduce. *)

val apply : ?cid:string -> t -> Wire.op -> Events.payload list * Wire.reply
(** Decide one operation.  The returned payloads are in emission order
    and must be appended to the WAL {e before} the reply is sent
    (write-ahead).  Query/Ping/Shutdown return no payloads — they change
    no state, so they are never logged.  [cid] is the daemon's
    correlation id for the request; it is stamped into every
    {!Events.Decision} the operation produces (and echoed in the wire
    reply by the daemon), joining the durable record to the client
    conversation.

    Never raises, except [Out_of_memory]: a request whose decision
    raises (a hostile quantity that overflows, say) is answered
    [Wire.Failed] with no payloads, and the replica's clock and ledger
    are left exactly as they were. *)

val replay : t -> Events.t -> (unit, string) result
(** Feed one WAL event, in stream order.  Events the daemon never
    writes (or that carry no state: rejects, evictions already implied
    by their fault, telemetry) are ignored; [Error] means the WAL
    records a transition this replica cannot re-install — corruption,
    not a decision disagreement. *)

(** {2 Snapshots} *)

val snapshot : t -> Json.t
(** Clock plus {!Admission.snapshot}. *)

val restore : ?cost_model:Cost_model.t -> Json.t -> (t, string) result
(** Inverse of {!snapshot}.  The controller is advanced to the
    snapshot's clock, so a snapshot from a binary that kept entries past
    their deadline restores without them. *)
