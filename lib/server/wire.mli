open Import

(** The serve daemon's wire protocol: one JSON object per line, in both
    directions, over a Unix or TCP stream.

    Requests are decided strictly in arrival order per connection and
    answered in the same order, so a pipelining client can correlate by
    position alone; an optional [tag] field is echoed verbatim into the
    matching response for clients that prefer explicit correlation.
    Resource slices travel as certificate rectangle lists
    ({!Certificate.rects_of_json}) and computations as the JSON shape
    documented in doc/robustness.md — both reuse the codecs the
    certificates and the trace already speak, so the daemon introduces
    no second serialization of any domain object. *)

type op =
  | Admit of {
      now : Time.t;  (** The client's logical clock, in ticks. *)
      computation : Computation.t;
      budget_ms : float option;
          (** Decision-latency budget; the daemon sheds the request
              rather than decide it later than this. *)
    }
  | Release of { now : Time.t; id : string }
      (** The computation finished (or was externally killed): drop its
          reservation or demand record. *)
  | Revoke of { now : Time.t; terms : Certificate.rect list }
      (** Unannounced capacity loss: shrink capacity by the slice and
          evict the commitments it no longer carries. *)
  | Join of { now : Time.t; terms : Certificate.rect list }
      (** Resources joining the open system. *)
  | Query of string  (** ["residual-digest"], ["stats"] or ["now"]. *)
  | Metrics
      (** Scrape the daemon's live metrics registry.  Answered from the
          serving loop without touching the replica (never logged); the
          reply carries both the OpenMetrics exposition text and the
          registry as sample events, so one verb serves scrapers and
          [rota top --connect] alike. *)
  | Ping
  | Shutdown  (** Graceful drain, as if the daemon received SIGTERM. *)

type request = { tag : Json.t; op : op }

type reply =
  | Decided of {
      id : string;
      action : string;  (** ["admit"] or ["reject"]. *)
      slug : string;
      reason : string;
      digest : string;
          (** The decision certificate's residual digest ([""] when the
              certificate pinned no resource state). *)
    }
  | Shed of { id : string; reason : string }
      (** Reject-fast under overload: the request was {e not} decided
          (and not logged) because queue delay would have blown its
          budget.  Serialized as a reject with the ["shed"] slug. *)
  | Released of { id : string; existed : bool }
  | Revoked of { quantity : int; evicted : string list }
  | Joined of { quantity : int }
  | Info of (string * Json.t) list  (** Query answers, field by field. *)
  | Metrics_snapshot of { exposition : string; samples : Json.t list }
      (** Answer to {!Metrics}: [exposition] is the lint-clean
          OpenMetrics text ({!Rota_obs.Openmetrics.render} of the live
          registry), [samples] the same snapshot as serialized
          {!Rota_obs.Events} metric/hist-sample records — parseable with
          {!Rota_obs.Events.of_json} and foldable straight into
          {!Rota_obs.Top}. *)
  | Pong
  | Draining  (** Acknowledges {!Shutdown}; the connection then closes. *)
  | Failed of string  (** Malformed or unserviceable request. *)

type response = {
  tag : Json.t;
  cid : string option;
      (** The daemon's correlation id for the request this answers —
          minted per request, stamped into the WAL decision record, and
          reported here (as a ["cid"] field, omitted when absent) so a
          client can quote it when filing a complaint.  Untagged
          requests additionally get the cid echoed {e as} their [tag],
          so position-blind clients still correlate. *)
  reply : reply;
}

val shed_slug : string
(** ["shed"] — the reason slug every load-shedding reject carries. *)

(** {2 Computations on the wire} *)

val computation_to_json : Computation.t -> Json.t
val computation_of_json : Json.t -> (Computation.t, string) result
(** Accepts exactly what {!computation_to_json} produces; construction
    invariants (positive window, distinct actor names, positive action
    parameters) are re-checked, so a malformed computation fails here
    rather than inside the admission controller.  A computation without
    programs is refused: its commitment would have no window to expire
    with. *)

(** {2 Framing} *)

val request_to_line : request -> string
val request_of_line : string -> (request, string) result
val response_to_line : response -> string
val response_of_line : string -> (response, string) result
(** One JSON document, no trailing newline; [*_of_line] accepts exactly
    what the corresponding [*_to_line] produces. *)
