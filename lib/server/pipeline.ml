open Import

type work = Decide of Wire.op | Ready of Wire.reply

type 'c item = {
  conn : 'c;
  tag : Json.t;
  cid : string;  (* the daemon's correlation id for this request *)
  span : int;  (* pre-allocated [server/request] span id *)
  work : work;
  recv : float;  (* wall time the request line arrived (parse began) *)
  enqueued : float;
  budget_ms : float option;
}

type flight = { ring : Flight.t; path : string; mutable dumped : bool }

type 'c t = {
  dir : string;
  snapshot_every : int;
  replica : Replica.t;
  writer : Wal.writer;
  shed : Shed.t;
  queue : 'c item Queue.t;
  telemetry : bool;
  flight : flight option;
  slo : Slo.t;
  watchdog : Watchdog.t option;
  pid : int;
  mutable cids : int;
  mutable connections : int;
  mutable draining : bool;
  mutable since_snapshot : int;
  mutable storm_dumped : bool;
  mutable decided : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable shed_count : int;
  mutable failed : int;
}

let batch_size = 64

(* Cumulative sheds that trigger the one shed-storm flight dump: enough
   that a handful of stragglers in a normal drain never fires it, small
   enough that a real storm is captured while it is still ongoing. *)
let shed_storm_threshold = 128

let dump flight reason =
  match flight with
  | None -> ()
  | Some f -> (
      f.dumped <- true;
      match Flight.dump f.ring f.path with
      | Ok n ->
          Printf.eprintf "rota serve: flight recorder: %d events -> %s (%s)\n%!"
            n f.path reason
      | Error m -> Printf.eprintf "rota serve: flight dump failed: %s\n%!" m)

let dump_flight t reason = dump t.flight reason
let flight_dumped t = match t.flight with Some f -> f.dumped | None -> false

(* Deadline-assurance SLO: every request that reached a verdict is good
   when the live audit re-verified the decision, bad when the auditor
   diverged or the daemon shed it without deciding. *)
let on_outcome ~slo ~flight =
  let divergence_dumped = ref false in
  fun (o : Live.outcome) ->
    let now = Unix.gettimeofday () in
    match o.Live.verdict with
    | Live.Verified | Live.Skipped _ -> Slo.record slo ~now ~good:true
    | Live.Diverged complaints ->
        List.iter
          (fun message ->
            Slo.record slo ~now ~good:false;
            (* The watchdog emits these on the tracer stream; the flight
               ring needs its own copy, tracer or not. *)
            match flight with
            | Some f ->
                Flight.record f.ring
                  {
                    Events.seq = 0;
                    run = o.Live.run;
                    sim = o.Live.sim;
                    wall_s = now;
                    payload =
                      Events.Audit_divergence
                        {
                          id = o.Live.id;
                          action = o.Live.action;
                          of_seq = o.Live.seq;
                          message;
                        };
                  }
            | None -> ())
          complaints;
        if not !divergence_dumped then begin
          divergence_dumped := true;
          dump flight "audit divergence"
        end

let create ~dir ~snapshot_every ~max_queue ~default_budget_ms ~telemetry
    ~slo_budget ~flight_capacity (recovery : Wal.recovery) =
  let flight =
    if telemetry then
      Some
        {
          ring = Flight.create ~capacity:flight_capacity ();
          path =
            Filename.concat dir
              (Printf.sprintf "flight-%d.rotb" (Unix.getpid ()));
          dumped = false;
        }
    else None
  in
  let slo = Slo.create ~budget:slo_budget () in
  let watchdog =
    if telemetry then Some (Watchdog.create ~on_outcome:(on_outcome ~slo ~flight) ())
    else None
  in
  {
    dir;
    snapshot_every;
    replica = recovery.Wal.replica;
    writer = recovery.Wal.writer;
    shed =
      Shed.create ~default_budget_s:(default_budget_ms /. 1000.) ~max_queue ();
    queue = Queue.create ();
    telemetry;
    flight;
    slo;
    watchdog;
    pid = Unix.getpid ();
    cids = 0;
    connections = 0;
    draining = false;
    since_snapshot = 0;
    storm_dumped = false;
    decided = 0;
    admitted = 0;
    rejected = 0;
    shed_count = 0;
    failed = 0;
  }

let queued t = Queue.length t.queue
let draining t = t.draining
let set_connections t n = t.connections <- n

(* --- telemetry ------------------------------------------------------------ *)

(* Telemetry-only records (sheds, spans): stamped here — the flight ring
   re-sequences, and an installed tracer sink gets its own independently
   stamped copy. *)
let record_tele t ?sim payload =
  if t.telemetry then begin
    (match t.flight with
    | Some f ->
        Flight.record f.ring
          { Events.seq = 0; run = 1; sim; wall_s = Unix.gettimeofday (); payload }
    | None -> ());
    if Tracer.active () then Tracer.emit ?sim payload
  end

let record_span t ?parent ?id ~name ~begin_s ~until () =
  if t.telemetry then
    let id = match id with Some i -> i | None -> Tracer.alloc_span_id () in
    record_tele t
      (Events.Span
         {
           name;
           id;
           parent;
           depth = (match parent with None -> 0 | Some _ -> 1);
           begin_s;
           duration_s = until -. begin_s;
         })

let rec tee_wal t = function
  | [] -> ()
  | e :: rest ->
      (match t.watchdog with Some w -> Watchdog.observe w e | None -> ());
      (match t.flight with Some f -> Flight.record f.ring e | None -> ());
      tee_wal t rest

let note_shed t ~id ~slug ~reason =
  t.shed_count <- t.shed_count + 1;
  Telemetry.count_shed slug;
  Slo.record t.slo ~now:(Unix.gettimeofday ()) ~good:false;
  record_tele t ~sim:(Replica.now t.replica) (Events.Shed { id; slug; reason });
  if t.shed_count >= shed_storm_threshold && not t.storm_dumped then begin
    t.storm_dumped <- true;
    dump t.flight
      (Printf.sprintf "shed storm (%d requests refused)" t.shed_count)
  end

let metrics_reply t =
  if t.telemetry then begin
    let now = Unix.gettimeofday () in
    Metrics.set Telemetry.queue_depth (Queue.length t.queue);
    Metrics.set Telemetry.connections t.connections;
    Telemetry.set_burn Telemetry.burn_5m (Slo.burn t.slo ~now ~window_s:300);
    Telemetry.set_burn Telemetry.burn_1h (Slo.burn t.slo ~now ~window_s:3600);
    Runtime_sampler.update ()
  end;
  let view = Metrics.snapshot () in
  let now = Unix.gettimeofday () in
  let samples =
    List.mapi
      (fun i payload ->
        Events.to_json
          { Events.seq = i + 1; run = 0; sim = None; wall_s = now; payload })
      (Tracer.samples_of_view view)
  in
  Wire.Metrics_snapshot { exposition = Openmetrics.render view; samples }

let stat_fields t =
  [
    ("queue", Json.Int (Queue.length t.queue));
    ("connections", Json.Int t.connections);
    ("decided", Json.Int t.decided);
    ("admitted", Json.Int t.admitted);
    ("rejected", Json.Int t.rejected);
    ("shed", Json.Int t.shed_count);
    ("failed", Json.Int t.failed);
    ("estimate_ms", Json.Float (Shed.estimate_s t.shed *. 1000.));
    ("wal_seq", Json.Int (Wal.seq t.writer));
    ("wal_offset", Json.Int (Wal.offset t.writer));
  ]

(* --- enqueue -------------------------------------------------------------- *)

(* Every line becomes exactly one queue item — parse errors and enqueue
   sheds included — so replies leave in request order no matter how
   they were produced. *)
let enqueue t conn ~recv parsed =
  let now = Unix.gettimeofday () in
  t.cids <- t.cids + 1;
  let cid = Printf.sprintf "r%d-%d" t.pid t.cids in
  let span = Tracer.alloc_span_id () in
  record_span t ~parent:span ~name:"server/parse" ~begin_s:recv ~until:now ();
  let tag, work, budget_ms =
    match parsed with
    | Error m ->
        t.failed <- t.failed + 1;
        Telemetry.count_request "invalid";
        (Json.Null, Ready (Wire.Failed m), None)
    | Ok { Wire.tag; op } -> (
        Telemetry.count_request (Telemetry.verb_of_op op);
        match op with
        | Wire.Admit { computation; budget_ms; _ } -> (
            match
              Shed.on_enqueue t.shed ~queue_len:(Queue.length t.queue)
                ~budget_ms
            with
            | Shed.Accept -> (tag, Decide op, budget_ms)
            | Shed.Reject { slug; message } ->
                let id = computation.Computation.id in
                note_shed t ~id ~slug ~reason:message;
                (tag, Ready (Wire.Shed { id; reason = message }), budget_ms))
        | _ -> (tag, Decide op, None))
  in
  Queue.add { conn; tag; cid; span; work; recv; enqueued = now; budget_ms } t.queue

let submit t conn line =
  let recv = Unix.gettimeofday () in
  enqueue t conn ~recv (Wire.request_of_line line)

let refuse t conn message =
  enqueue t conn ~recv:(Unix.gettimeofday ()) (Error message)

(* --- decide --------------------------------------------------------------- *)

let decide t item =
  match item.work with
  | Ready reply -> (None, reply)
  | Decide op -> (
      let picked = Unix.gettimeofday () in
      let waited = picked -. item.enqueued in
      Metrics.observe Telemetry.queue_wait waited;
      record_span t ~parent:item.span ~name:"server/queue-wait"
        ~begin_s:item.enqueued ~until:picked ();
      let verdict =
        match op with
        | Wire.Admit _ ->
            Shed.on_dequeue t.shed ~waited_s:waited ~budget_ms:item.budget_ms
        | _ -> Shed.Accept
      in
      match (verdict, op) with
      | Shed.Reject { slug; message }, Wire.Admit { computation; _ } ->
          let id = computation.Computation.id in
          note_shed t ~id ~slug ~reason:message;
          (None, Wire.Shed { id; reason = message })
      | _, Wire.Metrics ->
          (* A scrape must not touch the replica or the WAL. *)
          (None, metrics_reply t)
      | _ ->
          let t0 = Unix.gettimeofday () in
          let payloads, reply = Replica.apply ~cid:item.cid t.replica op in
          let t1 = Unix.gettimeofday () in
          Shed.observe t.shed (t1 -. t0);
          record_span t ~parent:item.span ~name:"server/decide" ~begin_s:t0
            ~until:t1 ();
          t.decided <- t.decided + 1;
          (match reply with
          | Wire.Decided { action = "admit"; _ } -> t.admitted <- t.admitted + 1
          | Wire.Decided _ -> t.rejected <- t.rejected + 1
          | _ -> ());
          (* Deadline slack: how much simulated headroom the admitted
             schedule leaves before the deadline. *)
          (match (op, reply) with
          | ( Wire.Admit { computation; _ },
              Wire.Decided { action = "admit"; _ } ) ->
              List.iter
                (function
                  | Events.Decision { certificate; _ } ->
                      Telemetry.observe_admit_slack
                        ~deadline:computation.Computation.deadline certificate
                  | _ -> ())
                payloads
          | _ -> ());
          let reply =
            match (op, reply) with
            | Wire.Query "stats", Wire.Info fields ->
                Wire.Info (fields @ stat_fields t)
            | _ -> reply
          in
          (match op with Wire.Shutdown -> t.draining <- true | _ -> ());
          (Some payloads, reply))

let snapshot t =
  match Wal.save_snapshot ~path:(Wal.snapshot_path ~dir:t.dir) t.writer t.replica with
  | Ok () -> t.since_snapshot <- 0
  | Error m -> Printf.eprintf "rota serve: snapshot failed: %s\n%!" m

(* Group commit: decide a batch, append everything, fsync once, only
   then let any of the batch's replies out. *)
let step t =
  if t.since_snapshot >= t.snapshot_every then snapshot t;
  let produced = ref [] in
  let logged = ref false in
  let rec go n =
    if n > 0 && not (Queue.is_empty t.queue) then begin
      let item = Queue.pop t.queue in
      let payloads, reply = decide t item in
      (match payloads with
      | Some (_ :: _ as ps) ->
          let b0 = Wal.buffered t.writer in
          let t0 = Unix.gettimeofday () in
          let events = Wal.append t.writer ~sim:(Replica.now t.replica) ps in
          let t1 = Unix.gettimeofday () in
          Metrics.add Telemetry.wal_bytes (Wal.buffered t.writer - b0);
          record_span t ~parent:item.span ~name:"server/encode" ~begin_s:t0
            ~until:t1 ();
          tee_wal t events;
          logged := true;
          t.since_snapshot <- t.since_snapshot + 1
      | _ -> ());
      produced := (item, reply) :: !produced;
      go (n - 1)
    end
  in
  go batch_size;
  if !logged then begin
    let t0 = Unix.gettimeofday () in
    Wal.sync t.writer;
    let t1 = Unix.gettimeofday () in
    Metrics.observe Telemetry.fsync (t1 -. t0);
    (* One flush covers the whole batch, so the span stands alone
       rather than under any single request. *)
    record_span t ~name:"server/wal-fsync" ~begin_s:t0 ~until:t1 ()
  end;
  List.map
    (fun (item, reply) ->
      let now = Unix.gettimeofday () in
      Metrics.observe Telemetry.rtt (now -. item.recv);
      record_span t ~id:item.span ~name:"server/request" ~begin_s:item.recv
        ~until:now ();
      let tag =
        (* Untagged clients still get a correlation handle: the cid
           doubles as the echoed tag. *)
        match item.tag with Json.Null -> Json.String item.cid | tag -> tag
      in
      ( item.conn,
        Wire.response_to_line { Wire.tag; cid = Some item.cid; reply } ^ "\n" ))
    (List.rev !produced)

(* The snapshot reads only the writer's position, so it can follow the
   close that makes that position durable. *)
let close t =
  Wal.close t.writer;
  snapshot t
