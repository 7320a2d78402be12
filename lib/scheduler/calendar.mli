open Import

(** The commitment ledger.

    A calendar tracks the system's capacity (all acquired resources, as a
    resource set over time) and the reservations committed to admitted
    computations.  Its {!residual} — capacity minus commitments — is
    exactly the paper's "resources which will expire unless new
    computations requiring them enter the system": the availability that
    Theorem 4 lets a new computation claim without disturbing anyone.

    The ledger is incremental: entries live in a map keyed by computation
    id, and the committed/residual sets are caches updated by one
    resource-set operation per {!commit}, {!release}, {!add_capacity},
    {!remove_capacity} and {!advance} — never by re-folding all entries.
    An entry stays until it is released or {!advance} passes its window's
    end, so the map holds only computations still in flight.
    The admission decision path is therefore O(log n) in the number of
    committed computations (plus the size of the sets involved), instead
    of O(n).  {!self_check} recomputes both caches from scratch and
    compares, guarding against silent drift. *)

type entry = {
  computation : string;
  window : Interval.t;
  reservation : Resource_set.t;
      (** Exactly which resources, and when, this computation will use. *)
  schedules : (Actor_name.t * Accommodation.schedule) list;
      (** The per-actor certificates behind the reservation. *)
}

type t

val create : Resource_set.t -> t

val capacity : t -> Resource_set.t

val entries : t -> entry list
(** Live entries, in computation-id order. *)

val size : t -> int
(** Number of live entries — the ledger's telemetry size. *)

val committed : t -> Resource_set.t
(** Union of all reservations (cached; O(1)). *)

val residual : t -> Resource_set.t
(** Capacity minus commitments — the expiring resources offered to new
    computations (cached; O(1)).  An invariant of {!commit} is that this
    is always well-defined (commitments never exceed capacity). *)

val commit : t -> entry -> (t, string) result
(** Adds an entry; fails when its reservation is not covered by the current
    residual (which would disturb existing commitments), when it reaches
    outside the entry's window (which {!advance} relies on), or when the
    id is already committed. *)

val release : t -> computation:string -> t
(** Drops a computation's entry (on completion, cancellation or deadline
    kill); its unused reservation returns to the residual.  Unknown ids are
    ignored. *)

val find : t -> computation:string -> entry option

val add_capacity : t -> Resource_set.t -> t
(** Resources joining the system. *)

val remove_capacity : t -> Resource_set.t -> (t, string) result
(** Withdraws capacity — used when delegating a slice to a child
    encapsulation (see [Pool]).  Fails when the slice is not covered by
    the {e residual} (committed resources cannot be withdrawn). *)

val revoke : t -> Resource_set.t -> t * entry list
(** Forcibly withdraws a capacity slice that never announced its leave —
    the fault-model counterpart of {!remove_capacity}.  Capacity shrinks
    by the clamped difference (total, unlike {!remove_capacity}); entries
    whose reservations no longer fit on the shrunk capacity are {e
    evicted} and returned (in id order) for the repair ladder.  Kept
    entries are untouched — their reservations still hold, so the
    computations behind them run exactly as committed (non-interference,
    Theorem 4). *)

val advance : t -> Time.t -> t
(** Expires capacity and reservations strictly before the given tick, and
    drops every entry whose window stops at or before it: past its
    deadline a computation holds no resources (the paper's expiration
    and leave rules).  Its reservation lay inside its window and is
    already empty, so neither {!committed} nor {!residual} changes. *)

val committed_quantity : t -> Located_type.t -> Interval.t -> int

val capacity_quantity : t -> Located_type.t -> Interval.t -> int

val self_check : t -> (unit, string) result
(** Recomputes the committed and residual sets from the entries and
    compares them against the caches; [Error] describes the first drift
    found.  Cheap enough for tests, too slow for production ledgers. *)

val set_self_check : bool -> unit
(** When enabled, every mutating operation runs {!self_check} on its
    result and raises [Invalid_argument] on drift.  Defaults to the
    [ROTA_CHECK_CALENDAR] environment variable (any value other than
    empty, ["0"] or ["false"] enables it); tests turn it on explicitly. *)

val pp : Format.formatter -> t -> unit

(** {2 Snapshots}

    The ledger's durable form: capacity and every live entry (window,
    reservation and schedules, serialized through the certificate
    codec's rectangle lists).  Used by the serve daemon's digest-stamped
    state snapshots; the committed/residual caches are not stored — they
    are rebuilt by re-committing each entry, so restoring re-runs the
    same validation as admission and a corrupt snapshot is rejected
    rather than trusted. *)

val snapshot : t -> Rota_obs.Json.t

val restore : Rota_obs.Json.t -> (t, string) result
(** Accepts exactly what {!snapshot} produces. *)

(**/**)

val with_caches_unchecked :
  t -> committed:Resource_set.t -> residual:Resource_set.t -> t
(** Test-only: overwrites the committed/residual caches {e without} any
    consistency check, to simulate cache drift when exercising the
    invariant-violation reports.  Never call this outside tests. *)

(**/**)
