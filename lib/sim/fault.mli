open Import

(** Fault plans: deterministic schedules of unannounced failures.

    The paper's open-system model requires "the time of leaving must be
    declared at the time of joining" ({!Trace}'s join events carry their
    whole availability interval up front).  A fault plan breaks exactly
    that assumption, so the engine can measure how much deadline
    assurance survives when commitments are violated from outside:

    - {!Revoke}: a capacity slice leaves {e before} its declared
      interval end.  The slice is clipped to the capacity actually
      present, so duplicate or late revocations degrade to no-ops
      instead of corrupting availability.
    - {!Blackout}: a whole node goes dark for a window — every resource
      type located there loses its capacity until the given tick (and
      keeps whatever was declared after it).
    - {!Slowdown}: a transient cost overrun — the believed cost model
      [Phi] under-estimated; the computation's remaining work inflates
      by an integer factor.
    - {!Rejoin}: churned capacity comes back (possibly duplicated by an
      unreliable membership layer — the engine deduplicates nothing and
      must tolerate the repeat).  Rejoins are what give the repair
      ladder's backoff-retry rung something to wait for.

    Plans are plain data; generation from a seeded [Prng] lives in
    [Rota_workload.Gen.random_faults] (this library sits below the
    workload layer). *)

type kind =
  | Revoke of Resource_set.t
  | Blackout of { location : Location.t; until : Time.t }
  | Slowdown of { computation : string; factor : int }
  | Rejoin of Resource_set.t

type t = { at : Time.t; kind : kind }
(** One fault, delivered at tick [at] (before dispatch on that tick). *)

type plan = t list

val kind_name : kind -> string
(** ["revocation"], ["blackout"], ["slowdown"] or ["rejoin"] — stable
    event labels. *)

val sort : plan -> plan
(** By delivery time, stable (same-tick faults keep plan order). *)

val pp : Format.formatter -> t -> unit
