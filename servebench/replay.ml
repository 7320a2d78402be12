(* The traced replay: the served request stream run in-process through
   the same public layer calls the daemon makes per request, each timed
   from here and recorded as a [Rota_obs] span kept in memory.  Nothing
   inside lib/ is instrumented for it.

   Per request (one [request] root span, one child per layer call):
     wire.parse -> [decomposition] -> replica.apply -> telemetry.admit_slack
     -> wal.append -> audit.observe -> flight.record -> wire.reply
   and per batch of [batch] requests, like the daemon's group commit:
     wal.sync, then wal.snapshot every [snapshot_every] logged decisions.

   The decomposition re-runs an admit's work on the persistent
   [Replica.controller] before the real [Replica.apply]:
   admission.advance, admission.decide, certificate.build (forcing the
   lazy certificate), certificate.digest and certificate.to_json.  Its
   action and digest must agree with the real reply.  Those five spans
   split replica.apply's time; they are not part of the request's path,
   so [trace.layers_us] leaves them out.

   Totals count every request; span trees are written for a sample of
   requests, so the span file stays small on long streams. *)

module Wire = Rota_server.Wire
module Replica = Rota_server.Replica
module Wal = Rota_server.Wal
module Daemon = Rota_server.Daemon
module Telemetry = Rota_server.Telemetry
module Admission = Rota_scheduler.Admission
module Certificate = Rota.Certificate
module Computation = Rota_actor.Computation
module Watchdog = Rota_audit.Watchdog
module Live = Rota_audit.Live
module Events = Rota_obs.Events
module Binary = Rota_obs.Binary
module Flight = Rota_obs.Flight
module Metrics = Rota_obs.Metrics
module Json = Rota_obs.Json

type layer =
  | Parse
  | Advance
  | Decide
  | Build
  | Digest
  | To_json
  | Apply
  | Admit_slack
  | Append
  | Observe
  | Flight_record
  | Reply
  | Sync
  | Snapshot
  | Request

let layers =
  [ Parse; Advance; Decide; Build; Digest; To_json; Apply; Admit_slack; Append;
    Observe; Flight_record; Reply; Sync; Snapshot; Request ]

let name = function
  | Parse -> "wire.parse"
  | Advance -> "admission.advance"
  | Decide -> "admission.decide"
  | Build -> "certificate.build"
  | Digest -> "certificate.digest"
  | To_json -> "certificate.to_json"
  | Apply -> "replica.apply"
  | Admit_slack -> "telemetry.admit_slack"
  | Append -> "wal.append"
  | Observe -> "audit.observe"
  | Flight_record -> "flight.record"
  | Reply -> "wire.reply"
  | Sync -> "wal.sync"
  | Snapshot -> "wal.snapshot"
  | Request -> "request"

let index l =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = l then i else go (i + 1) rest
  in
  go 0 layers

(* The decomposition re-does replica.apply's work; the request path is
   everything else. *)
let on_path = function
  | Advance | Decide | Build | Digest | To_json | Request -> false
  | _ -> true

type stats = {
  self_s : float array;  (** Self time per layer, summed. *)
  words : float array;  (** Minor words allocated per layer, summed. *)
  mutable requests : int;
  mutable admits : int;
  mutable logged : int;  (** Requests that appended WAL records. *)
  mutable records : int;
  mutable syncs : int;
  mutable snapshots : int;
  mutable snapshot_bytes : int;
  mutable ledger_sum : int;  (** [ledger_size] summed over admits. *)
  mutable json_bytes : int;
  mutable req_bytes : int;
}

(* In-memory span stream, written out as one ROTB file at the end. *)
type spans = { buf : Buffer.t; mutable seq : int; mutable next_id : int }

let emit sp payload ~wall_s =
  sp.seq <- sp.seq + 1;
  Binary.encode sp.buf { Events.seq = sp.seq; run = 1; sim = None; wall_s; payload }

let alloc_id sp =
  sp.next_id <- sp.next_id + 1;
  sp.next_id

let emit_span sp ~id ~parent ~name ~begin_s ~until =
  emit sp ~wall_s:until
    (Events.Span
       {
         name;
         id;
         parent;
         depth = (match parent with None -> 0 | Some _ -> 1);
         begin_s;
         duration_s = until -. begin_s;
       })

type result = {
  digest : string;  (** The replica's residual digest after the stream. *)
  recovered : Wal.recovery;  (** In-process [Wal.recover] of the WAL written. *)
  recover_s : float;
  audit_diverged : int;  (** Live watchdog complaints during the replay. *)
  stats : stats;
}

let ( let* ) = Result.bind

let recorded_requests = 20_000

let run ~dir ~spans:spans_path ~batch lines =
  let cfg = Daemon.config ~dir ~address:(Daemon.Unix_socket "unused") Admission.Rota in
  Metrics.set_enabled cfg.Daemon.telemetry;
  let* fresh = Wal.recover ~dir ~policy:Admission.Rota () in
  let replica = fresh.Wal.replica and writer = fresh.Wal.writer in
  let audit_diverged = ref 0 in
  let watchdog =
    Watchdog.create
      ~on_outcome:(fun o ->
        match o.Live.verdict with
        | Live.Diverged _ -> incr audit_diverged
        | Live.Verified | Live.Skipped _ -> ())
      ()
  in
  let flight = Flight.create ~capacity:cfg.Daemon.flight_capacity () in
  let n = List.length layers in
  let st =
    {
      self_s = Array.make n 0.;
      words = Array.make n 0.;
      requests = 0; admits = 0; logged = 0; records = 0; syncs = 0;
      snapshots = 0; snapshot_bytes = 0; ledger_sum = 0; json_bytes = 0;
      req_bytes = 0;
    }
  in
  let sp = { buf = Buffer.create (1 lsl 20); seq = 0; next_id = 0 } in
  Buffer.add_string sp.buf Binary.header;
  emit sp ~wall_s:(Unix.gettimeofday ()) (Events.Run_started { label = "servebench replay" });
  (* Every request counts in the totals; the span trees of every
     [every]-th request are recorded, which keeps the span file to about
     [recorded_requests] trees however long the stream.  [root] is the
     request span of the tree being recorded. *)
  let every = max 1 (Array.length lines / recorded_requests) in
  let root = ref None in
  (* Time one layer call: its span, its self time, its allocation. *)
  let children = ref 0. in
  let timed layer f =
    let i = index layer in
    let w0 = Gc.minor_words () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let t1 = Unix.gettimeofday () in
    st.words.(i) <- st.words.(i) +. (Gc.minor_words () -. w0);
    st.self_s.(i) <- st.self_s.(i) +. (t1 -. t0);
    children := !children +. (t1 -. t0);
    (match (layer, !root) with
    | (Sync | Snapshot), _ ->
        (* Per batch, under no single request, as in the daemon. *)
        emit_span sp ~id:(alloc_id sp) ~parent:None ~name:(name layer) ~begin_s:t0 ~until:t1
    | _, Some id ->
        emit_span sp ~id:(alloc_id sp) ~parent:(Some id) ~name:(name layer) ~begin_s:t0 ~until:t1
    | _, None -> ());
    r
  in
  let snapshot_path = Wal.snapshot_path ~dir in
  let since_snapshot = ref 0 and in_batch = ref 0 and batch_logged = ref false in
  let end_batch () =
    if !batch_logged then begin
      timed Sync (fun () -> Wal.sync writer);
      st.syncs <- st.syncs + 1
    end;
    in_batch := 0;
    batch_logged := false;
    if !since_snapshot >= cfg.Daemon.snapshot_every then begin
      match timed Snapshot (fun () -> Wal.save_snapshot ~path:snapshot_path writer replica) with
      | Error m -> failwith m
      | Ok () ->
          since_snapshot := 0;
          st.snapshots <- st.snapshots + 1;
          st.snapshot_bytes <- st.snapshot_bytes + (Unix.stat snapshot_path).Unix.st_size
    end
  in
  let request i line =
    root := if i mod every = 0 then Some (alloc_id sp) else None;
    children := 0.;
    let t_req = Unix.gettimeofday () in
    st.requests <- st.requests + 1;
    st.req_bytes <- st.req_bytes + String.length line;
    let* { Wire.op; _ } = timed Parse (fun () -> Wire.request_of_line line) in
    let clock = Replica.now replica in
    let ctrl =
      let c = Replica.controller replica in
      match op with
      | Wire.Admit { now = at; _ } | Wire.Release { now = at; _ }
      | Wire.Join { now = at; _ } | Wire.Revoke { now = at; _ }
        when at > clock ->
          timed Advance (fun () -> Admission.advance c at)
      | _ -> c
    in
    let expected =
      match op with
      | Wire.Admit { now = at; computation; _ } ->
          st.admits <- st.admits + 1;
          st.ledger_sum <- st.ledger_sum + Admission.ledger_size ctrl;
          let _, outcome =
            timed Decide (fun () ->
                Admission.request ctrl ~now:(max at clock) computation)
          in
          let cert = timed Build (fun () -> Lazy.force outcome.Admission.certificate) in
          ignore (timed Digest (fun () -> Certificate.digest (Admission.residual ctrl)));
          let json = timed To_json (fun () -> Certificate.to_json cert) in
          st.json_bytes <- st.json_bytes + String.length (Json.to_string json);
          Some ((if outcome.Admission.admitted then "admit" else "reject"), cert.Certificate.digest)
      | _ -> None
    in
    let cid = Printf.sprintf "r0-%d" (i + 1) in
    let payloads, reply = timed Apply (fun () -> Replica.apply ~cid replica op) in
    let* () =
      match (expected, reply) with
      | Some (action, digest), Wire.Decided d
        when String.equal action d.action && String.equal digest d.digest ->
          Ok ()
      | Some _, _ -> Error (Printf.sprintf "request %d: decomposed decision disagrees with Replica.apply" i)
      | None, _ -> Ok ()
    in
    (match (op, reply) with
    | Wire.Admit { computation; _ }, Wire.Decided { action = "admit"; _ } ->
        timed Admit_slack (fun () ->
            List.iter
              (function
                | Events.Decision { certificate; _ } ->
                    Telemetry.observe_admit_slack
                      ~deadline:computation.Computation.deadline certificate
                | _ -> ())
              payloads)
    | _ -> ());
    if payloads <> [] then begin
      let events =
        timed Append (fun () -> Wal.append writer ~sim:(Replica.now replica) payloads)
      in
      timed Observe (fun () -> List.iter (Watchdog.observe watchdog) events);
      timed Flight_record (fun () -> List.iter (Flight.record flight) events);
      st.logged <- st.logged + 1;
      st.records <- st.records + List.length events;
      batch_logged := true;
      incr since_snapshot
    end;
    ignore
      (timed Reply (fun () ->
           Wire.response_to_line { Wire.tag = Json.String cid; cid = Some cid; reply }));
    let until = Unix.gettimeofday () in
    let r = index Request in
    st.self_s.(r) <- st.self_s.(r) +. (until -. t_req -. !children);
    Option.iter
      (fun id -> emit_span sp ~id ~parent:None ~name:(name Request) ~begin_s:t_req ~until)
      !root;
    root := None;
    incr in_batch;
    if !in_batch >= batch then end_batch ();
    Ok ()
  in
  let rec go i =
    if i >= Array.length lines then Ok ()
    else
      let* () = request i lines.(i) in
      go (i + 1)
  in
  let* () = go 0 in
  end_batch ();
  Wal.close writer;
  let digest = Replica.residual_digest replica in
  let t0 = Unix.gettimeofday () in
  let* recovered = Wal.recover ~dir ~policy:Admission.Rota () in
  let recover_s = Unix.gettimeofday () -. t0 in
  Wal.close recovered.Wal.writer;
  emit_span sp ~id:(alloc_id sp) ~parent:None ~name:"wal.recover" ~begin_s:t0 ~until:(t0 +. recover_s);
  Out_channel.with_open_bin spans_path (fun oc -> Buffer.output_buffer oc sp.buf);
  Ok { digest; recovered; recover_s; audit_diverged = !audit_diverged; stats = st }

(* The per-layer budget: mean self time per request in µs unless the
   name says otherwise ([wal.sync_us] is per sync, the snapshot figures
   per snapshot, [certificate.json_bytes] per decision). *)
let metrics r =
  let st = r.stats in
  let per_req x = x /. float_of_int (max 1 st.requests) in
  let us l = per_req (st.self_s.(index l) *. 1e6) in
  let words l = per_req st.words.(index l) in
  let per n x = x /. float_of_int (max 1 n) in
  let layers_us =
    List.fold_left (fun acc l -> if on_path l then acc +. us l else acc) 0. layers
  in
  [
    ("wire.parse_us", us Parse, "us");
    ("wire.reply_us", us Reply, "us");
    ("wire.req_bytes", per_req (float_of_int st.req_bytes), "bytes");
    ("admission.advance_us", us Advance, "us");
    ("admission.decide_us", us Decide, "us");
    ("admission.decide_minor_words", words Decide, "words");
    ("admission.ledger_live", per st.admits (float_of_int st.ledger_sum), "count");
    ("certificate.build_us", us Build, "us");
    ("certificate.digest_us", us Digest, "us");
    ("certificate.to_json_us", us To_json, "us");
    ("certificate.to_json_minor_words", words To_json, "words");
    ("certificate.json_bytes", per st.admits (float_of_int st.json_bytes), "bytes");
    ("telemetry.admit_slack_us", us Admit_slack, "us");
    ("replica.apply_us", us Apply, "us");
    ("replica.apply_minor_words", words Apply, "words");
    ("wal.append_us", us Append, "us");
    ("wal.records_per_req", per_req (float_of_int st.records), "count");
    ("wal.sync_us", per st.syncs (st.self_s.(index Sync) *. 1e6), "us");
    ("wal.batch_reqs", per st.syncs (float_of_int st.logged), "count");
    ("wal.snapshot_ms", per st.snapshots (st.self_s.(index Snapshot) *. 1e3), "ms");
    ("wal.snapshot_bytes", per st.snapshots (float_of_int st.snapshot_bytes), "bytes");
    ("wal.snapshots", float_of_int st.snapshots, "count");
    ("wal.recover_s", r.recover_s, "s");
    ("audit.observe_us", us Observe, "us");
    ("audit.observe_minor_words", words Observe, "words");
    ("flight.record_us", us Flight_record, "us");
    ("trace.layers_us", layers_us, "us");
  ]
