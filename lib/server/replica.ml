open Import

type t = {
  mutable ctrl : Admission.t;
  mutable now : Time.t;
  policy : Admission.policy;
}

let create ?cost_model policy =
  { ctrl = Admission.create ?cost_model policy Resource_set.empty;
    now = 0;
    policy }

let policy t = t.policy
let now t = t.now
let controller t = t.ctrl

let run_label policy =
  Printf.sprintf "serve policy=%s" (Admission.policy_name policy)

let residual_digest t = Certificate.digest (Admission.residual t.ctrl)

(* Clamp the clock and expire the past before touching state, so the
   residual every certificate pins is truncated exactly as the auditor
   reconstructs it at that simulated time. *)
let advance_to t at =
  if at > t.now then begin
    t.now <- at;
    t.ctrl <- Admission.advance t.ctrl at
  end;
  t.now

let policy_label t = Admission.policy_name t.policy

let decision ?cid t ~id ~action ~reason certificate =
  Events.Decision
    {
      id;
      policy = policy_label t;
      action;
      slug = Slug.of_reason reason;
      certificate = Certificate.to_json certificate;
      cid;
    }

let apply_admit ?cid t ~now ~computation =
  let now = advance_to t now in
  let id = computation.Computation.id in
  let ctrl, outcome = Admission.request t.ctrl ~now computation in
  t.ctrl <- ctrl;
  let action = if outcome.Admission.admitted then "admit" else "reject" in
  let reason = outcome.Admission.reason in
  let cert = Lazy.force outcome.Admission.certificate in
  let payloads = [ decision ?cid t ~id ~action ~reason cert ] in
  let reply =
    Wire.Decided
      {
        id;
        action;
        slug = Slug.of_reason reason;
        reason;
        digest = cert.Certificate.digest;
      }
  in
  (payloads, reply)

let apply_release t ~now ~id =
  let _now = advance_to t now in
  if Admission.already_admitted t.ctrl id then begin
    t.ctrl <- Admission.complete t.ctrl ~computation:id;
    ([ Events.Completed { id } ], Wire.Released { id; existed = true })
  end
  else ([], Wire.Released { id; existed = false })

(* Mirrors the engine's [revoke_capacity]: clip the slice to what is
   actually still present from [now] on, announce the fault with the
   clipped slice as terms, then let the admission layer evict — and pin
   each eviction's certificate to the post-revocation residual. *)
let apply_revoke ?cid t ~now ~terms =
  let now = advance_to t now in
  let slice = Certificate.set_of_rects terms in
  let actual =
    Resource_set.meet
      (Resource_set.truncate_before slice now)
      (Calendar.capacity (Admission.calendar t.ctrl))
  in
  let lost = Resource_set.total actual in
  let fault =
    Events.Fault_injected
      {
        fault = "revocation";
        quantity = lost;
        terms = Certificate.rects_to_json (Certificate.rects_of_set actual);
      }
  in
  if Resource_set.is_empty actual then
    ([ fault ], Wire.Revoked { quantity = 0; evicted = [] })
  else begin
    let ctrl, evicted = Admission.revoke t.ctrl actual in
    t.ctrl <- ctrl;
    let revoked =
      List.map
        (fun (e : Calendar.entry) ->
          Events.Commitment_revoked
            {
              id = e.Calendar.computation;
              quantity = Resource_set.total e.Calendar.reservation;
            })
        evicted
    in
    let residual = Admission.residual t.ctrl in
    let reason = "commitment evicted by revocation" in
    let evictions =
      List.map
        (fun (e : Calendar.entry) ->
          decision ?cid t ~id:e.Calendar.computation ~action:"evict" ~reason
            (Certificate.of_committed ~theorem:Certificate.T4 ~residual
               e.Calendar.schedules))
        evicted
    in
    let ids = List.map (fun (e : Calendar.entry) -> e.Calendar.computation) evicted in
    ((fault :: revoked) @ evictions,
     Wire.Revoked { quantity = lost; evicted = ids })
  end

let apply_join t ~now ~terms =
  let now = advance_to t now in
  let slice = Certificate.set_of_rects terms in
  let clipped = Resource_set.truncate_before slice now in
  let counted = Resource_set.total clipped in
  t.ctrl <- Admission.add_capacity t.ctrl clipped;
  let payload =
    Events.Capacity_joined
      {
        quantity = counted;
        terms = Certificate.rects_to_json (Certificate.rects_of_set clipped);
      }
  in
  ([ payload ], Wire.Joined { quantity = counted })

let query t what =
  match what with
  | "residual-digest" ->
      Wire.Info [ ("digest", Json.String (residual_digest t)) ]
  | "now" -> Wire.Info [ ("now", Json.Int t.now) ]
  | "stats" ->
      Wire.Info
        [
          ("policy", Json.String (policy_label t));
          ("now", Json.Int t.now);
          ("ledger", Json.Int (Admission.ledger_size t.ctrl));
          ("digest", Json.String (residual_digest t));
        ]
  | w -> Wire.Failed (Printf.sprintf "unknown query %S" w)

let apply_op ?cid t (op : Wire.op) =
  match op with
  | Wire.Admit { now; computation; budget_ms = _ } ->
      apply_admit ?cid t ~now ~computation
  | Wire.Release { now; id } -> apply_release t ~now ~id
  | Wire.Revoke { now; terms } -> apply_revoke ?cid t ~now ~terms
  | Wire.Join { now; terms } -> apply_join t ~now ~terms
  | Wire.Query what -> ([], query t what)
  | Wire.Metrics ->
      (* The daemon answers metrics from the serving loop; reaching the
         replica means a non-daemon caller replayed a scrape op. *)
      ([], Wire.Failed "metrics is answered by the serving loop")
  | Wire.Ping -> ([], Wire.Pong)
  | Wire.Shutdown -> ([], Wire.Draining)

(* Total: a well-formed request that makes deciding raise (a quantity
   that overflows into a negative requirement, say) is answered
   [Failed] with nothing logged and the replica as it was.  The
   controller is updated functionally, so dropping its half-built
   successor is exact; only the clock and the controller that
   [advance_to] moved first need restoring. *)
let apply ?cid t op =
  let ctrl = t.ctrl and now = t.now in
  match apply_op ?cid t op with
  | result -> result
  | exception Out_of_memory -> raise Out_of_memory
  | exception e ->
      t.ctrl <- ctrl;
      t.now <- now;
      ([], Wire.Failed ("request refused: " ^ Printexc.to_string e))

(* --- replay ---------------------------------------------------------------- *)

let ( let* ) = Result.bind

let replay_admit t ~id certificate =
  let* cert = Certificate.of_json certificate in
  match cert.Certificate.evidence with
  | Certificate.Schedules parts -> (
      match Certificate.hull_window parts with
      | None -> Error (Printf.sprintf "admit %s: certificate has no parts" id)
      | Some window ->
          let entry =
            {
              Calendar.computation = id;
              window;
              reservation = Certificate.reservation cert;
              schedules = Certificate.schedules_of_parts cert;
            }
          in
          let* ctrl = Admission.adopt t.ctrl entry in
          t.ctrl <- ctrl;
          Ok ())
  | Certificate.Aggregate_fit { window; rows; fits = _ } ->
      let totals =
        List.map
          (fun (r : Certificate.row) -> (r.Certificate.row_type, r.Certificate.demand))
          rows
      in
      t.ctrl <- Admission.remember_demand t.ctrl ~computation:id ~window ~totals;
      Ok ()
  | Certificate.Optimistic_fit { window; totals } ->
      t.ctrl <- Admission.remember_demand t.ctrl ~computation:id ~window ~totals;
      Ok ()
  | Certificate.Infeasible | Certificate.Stale _ | Certificate.Duplicate ->
      Error (Printf.sprintf "admit %s: reject evidence on an admit decision" id)

let replay t (e : Events.t) =
  (match e.Events.sim with
  | Some s when s > t.now -> ignore (advance_to t s)
  | _ -> ());
  match e.Events.payload with
  | Events.Run_started _ -> Ok ()
  | Events.Capacity_joined { terms; quantity = _ } ->
      if terms = Json.Null then
        Error "capacity-joined without terms: slice cannot be replayed"
      else
        let* rects = Certificate.rects_of_json terms in
        t.ctrl <-
          Admission.add_capacity t.ctrl (Certificate.set_of_rects rects);
        Ok ()
  | Events.Decision { id; action = "admit"; certificate; _ } ->
      replay_admit t ~id certificate
  | Events.Decision { action = "reject" | "evict"; _ } ->
      (* Rejects change nothing; evictions were already re-derived when
         the fault itself replayed. *)
      Ok ()
  | Events.Decision { id; action; _ } ->
      Error (Printf.sprintf "decision %s: unreplayable action %S" id action)
  | Events.Completed { id } ->
      t.ctrl <- Admission.complete t.ctrl ~computation:id;
      Ok ()
  | Events.Fault_injected { fault = "revocation"; terms; quantity = _ } ->
      if terms = Json.Null then
        Error "revocation without terms: slice cannot be replayed"
      else
        let* rects = Certificate.rects_of_json terms in
        let ctrl, _evicted =
          Admission.revoke t.ctrl (Certificate.set_of_rects rects)
        in
        t.ctrl <- ctrl;
        Ok ()
  | Events.Fault_injected { fault; _ } ->
      Error (Printf.sprintf "unreplayable fault kind %S" fault)
  | Events.Commitment_revoked _ ->
      (* Implied by the preceding fault's replay. *)
      Ok ()
  | Events.Killed _ | Events.Commitment_degraded _ | Events.Repaired _
  | Events.Preempted _ | Events.Anomaly _ | Events.Shed _ ->
      (* Sheds in particular are telemetry-only by contract: nothing was
         decided, so nothing may claim replayability. *)
      Error
        (Printf.sprintf "event kind %S is never written by the daemon"
           (Events.kind e.Events.payload))
  | Events.Span _ | Events.Metric_sample _ | Events.Hist_sample _
  | Events.Audit_divergence _ | Events.Unknown _ ->
      Ok ()

(* --- snapshots ------------------------------------------------------------- *)

let snapshot_format = "rota-serve-replica-1"

let snapshot t =
  Json.Obj
    [
      ("format", Json.String snapshot_format);
      ("now", Json.Int t.now);
      ("admission", Admission.snapshot t.ctrl);
    ]

let jfield name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "replica snapshot: missing field %S" name)

let restore ?cost_model json =
  let* fmt = Result.bind (jfield "format" json) Json.to_str in
  if not (String.equal fmt snapshot_format) then
    Error (Printf.sprintf "replica snapshot: unknown format %S" fmt)
  else
    let* now = Result.bind (jfield "now" json) Json.to_int in
    let* adm = jfield "admission" json in
    let* ctrl = Admission.restore ?cost_model adm in
    (* Snapshots written before entries expired at their deadline may
       hold dead ones; advancing drops them and leaves the residual as
       the digest check just found it. *)
    Ok { ctrl = Admission.advance ctrl now; now; policy = Admission.policy ctrl }
