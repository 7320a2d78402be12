(* The serve daemon's replicated core, tested without sockets: wire
   codec round-trips, the shedding policy's bounded-delay arithmetic,
   replica snapshots, and the central durability property — truncating
   the WAL at ANY byte offset and recovering yields exactly the state
   the surviving prefix proves (residual digest and ledger contents),
   which is what makes an acknowledged decision crash-proof.  The
   request pipeline is driven in process on integer connections (one
   reply per line in order, group commit, crash, overload, drain); a
   few forked daemons cover what only the socket loop does. *)

module Interval = Rota_interval.Interval
module Resource_set = Rota_resource.Resource_set
module Computation = Rota_actor.Computation
module Certificate = Rota.Certificate
module Admission = Rota_scheduler.Admission
module Calendar = Rota_scheduler.Calendar
module Trace = Rota_sim.Trace
module Scenario = Rota_workload.Scenario
module Json = Rota_obs.Json
module Binary = Rota_obs.Binary
module Wire = Rota_server.Wire
module Shed = Rota_server.Shed
module Replica = Rota_server.Replica
module Wal = Rota_server.Wal
module Live = Rota_audit.Live

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let params ?(arrivals = 14) ~seed () =
  {
    Scenario.default_params with
    seed;
    locations = 2;
    horizon = 120;
    arrivals;
    churn_joins = 4;
  }

(* A workload exercising every event kind the daemon logs: joins and
   admits from the scenario trace, then a mid-horizon revocation of the
   first joined slice (evictions, fault terms) and a couple of
   releases. *)
let ops_of ?arrivals ~seed () =
  let p = params ?arrivals ~seed () in
  let trace = Scenario.trace p in
  let base =
    List.filter_map
      (fun (at, ev) ->
        match ev with
        | Trace.Join theta ->
            Some (Wire.Join { now = at; terms = Certificate.rects_of_set theta })
        | Trace.Arrive computation ->
            Some (Wire.Admit { now = at; computation; budget_ms = None })
        | Trace.Arrive_session _ -> None)
      (Trace.events trace)
  in
  let horizon = Trace.horizon trace in
  let revoke =
    match Trace.joins trace with
    | (_, theta) :: _ ->
        [ Wire.Revoke
            { now = horizon / 2; terms = Certificate.rects_of_set theta } ]
    | [] -> []
  in
  let releases =
    match Trace.arrivals trace with
    | (_, c0) :: (_, c1) :: _ ->
        [
          Wire.Release { now = (horizon / 2) + 1; id = c0.Computation.id };
          Wire.Release { now = (horizon / 2) + 2; id = c1.Computation.id };
        ]
    | _ -> []
  in
  base @ revoke @ releases

(* Drive [ops] through a live replica exactly as the daemon does:
   apply, append the payloads, sync.  [on_op] sees each op's reply and
   the records it appended.  With [snapshot_after = k], the WAL is
   synced after op [k] and a snapshot saved, as the daemon saves one
   behind a group commit.  Returns the replica with the WAL on disk in
   [dir]. *)
let build_wal ?(on_op = fun _ _ _ _ -> ()) ?(snapshot_after = -1) ~dir ~policy
    ops =
  match Wal.recover ~dir ~policy () with
  | Error m -> failwith ("build_wal: " ^ m)
  | Ok r ->
      let replica = r.Wal.replica and w = r.Wal.writer in
      List.iteri
        (fun i op ->
          let payloads, reply = Replica.apply replica op in
          let events =
            if payloads = [] then []
            else Wal.append w ~sim:(Replica.now replica) payloads
          in
          on_op replica op reply events;
          if i = snapshot_after then begin
            Wal.sync w;
            match Wal.save_snapshot ~path:(Wal.snapshot_path ~dir) w replica with
            | Ok () -> ()
            | Error m -> failwith ("build_wal: save_snapshot: " ^ m)
          end)
        ops;
      Wal.sync w;
      Wal.close w;
      replica

(* The specification side of the truncation property: replay the
   complete records of [path] into a fresh replica, by hand. *)
let replay_prefix ~path ~policy =
  let replica = Replica.create policy in
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  (match Binary.read_header ic with
  | Ok () -> ()
  | Error m -> failwith ("replay_prefix: " ^ m));
  let rec loop n =
    match Binary.read_item ic with
    | Binary.Event e -> (
        match Replica.replay replica e with
        | Ok () -> loop (n + 1)
        | Error m -> failwith (Printf.sprintf "replay_prefix: seq %d: %s" e.Rota_obs.Events.seq m))
    | Binary.Eof | Binary.Cut _ -> n
    | Binary.Malformed m -> failwith ("replay_prefix: malformed: " ^ m)
  in
  let n = loop 0 in
  (replica, n)

let entries_summary replica =
  List.map
    (fun (e : Calendar.entry) -> (e.Calendar.computation, e.Calendar.reservation))
    (Calendar.entries (Admission.calendar (Replica.controller replica)))

let demands_summary replica =
  Admission.admitted_demands (Replica.controller replica)

let same_state a b =
  String.equal (Replica.residual_digest a) (Replica.residual_digest b)
  && List.equal
       (fun (ida, ra) (idb, rb) ->
         String.equal ida idb && Resource_set.equal ra rb)
       (entries_summary a) (entries_summary b)
  && demands_summary a = demands_summary b

(* --- the truncation property ------------------------------------------------ *)

let prop_truncation_recovers =
  QCheck.Test.make ~count:40
    ~name:"wal: recovery after truncation at any byte = replay of the prefix"
    QCheck.(pair (int_bound 1000) (int_bound 10_000))
    (fun (seed, cut_raw) ->
      let build = temp_dir "rota-wal-build" in
      let crash = temp_dir "rota-wal-crash" in
      Fun.protect ~finally:(fun () -> rm_rf build; rm_rf crash)
      @@ fun () ->
      let policy = Admission.Rota in
      let _live = build_wal ~dir:build ~policy (ops_of ~seed ()) in
      let full =
        In_channel.with_open_bin (Wal.wal_path ~dir:build)
          In_channel.input_all
      in
      let header = String.length Binary.header in
      let len = String.length full in
      (* Any offset from just-past-the-header to the full file. *)
      let cut = header + (cut_raw mod (len - header + 1)) in
      Out_channel.with_open_bin (Wal.wal_path ~dir:crash) (fun oc ->
          Out_channel.output_string oc (String.sub full 0 cut));
      match Wal.recover ~dir:crash ~policy () with
      | Error m -> QCheck.Test.fail_reportf "recover at cut %d: %s" cut m
      | Ok r ->
          Wal.close r.Wal.writer;
          (* Recovery must have truncated the dangling tail on disk. *)
          let spec, complete_records =
            replay_prefix ~path:(Wal.wal_path ~dir:crash) ~policy
          in
          if complete_records <> r.Wal.scanned then
            QCheck.Test.fail_reportf
              "cut %d: %d records on disk after recovery, %d scanned" cut
              complete_records r.Wal.scanned;
          if not (same_state r.Wal.replica spec) then
            QCheck.Test.fail_reportf
              "cut %d: recovered state differs from the prefix's (digest %s \
               vs %s)"
              cut
              (Replica.residual_digest r.Wal.replica)
              (Replica.residual_digest spec);
          true)

(* Snapshot-assisted recovery agrees with the from-scratch replay, and a
   snapshot past the surviving prefix is abandoned for the WAL. *)
let test_snapshot_recovery () =
  let dir = temp_dir "rota-wal-snap" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let policy = Admission.Rota in
  let ops = ops_of ~seed:42 () in
  let live =
    build_wal ~snapshot_after:(List.length ops / 2) ~dir ~policy ops
  in
  (match Wal.recover ~dir ~policy () with
  | Error m -> Alcotest.failf "recover with snapshot: %s" m
  | Ok r ->
      Wal.close r.Wal.writer;
      Alcotest.(check bool) "snapshot was used" true r.Wal.from_snapshot;
      Alcotest.(check bool)
        "tail shorter than stream" true
        (r.Wal.replayed < r.Wal.scanned);
      Alcotest.(check string) "digest agrees with the live state"
        (Replica.residual_digest live)
        r.Wal.digest;
      Alcotest.(check bool) "ledger agrees" true (same_state live r.Wal.replica));
  (* Cut the WAL back to before the snapshot point: recovery must fall
     back to the from-scratch replay of the surviving prefix. *)
  let full = In_channel.with_open_bin (Wal.wal_path ~dir) In_channel.input_all in
  Out_channel.with_open_bin (Wal.wal_path ~dir) (fun oc ->
      Out_channel.output_string oc
        (String.sub full 0 (String.length full / 4)));
  match Wal.recover ~dir ~policy () with
  | Error m -> Alcotest.failf "recover past-snapshot cut: %s" m
  | Ok r ->
      Wal.close r.Wal.writer;
      Alcotest.(check bool) "snapshot abandoned" false r.Wal.from_snapshot;
      let spec, _ = replay_prefix ~path:(Wal.wal_path ~dir) ~policy in
      Alcotest.(check bool) "prefix state recovered" true
        (same_state spec r.Wal.replica)

(* --- served = audited, with expiry ------------------------------------------- *)

(* Extra requests against the scenario's arrivals (indices wrap): the
   same id submitted again, or released, [k] ticks after the original
   start — before the deadline, where the id may still be live, or at
   and after it, where it has expired — releases of an id nobody
   admitted, and revocations of a random slice of joined capacity,
   which evict commitments mid-stream. *)
type extra =
  | Resubmit of int * int
  | Release_id of int * int
  | Release_unknown of int
  | Revoke_slice of { at : int; ty : int; from : int; len : int; rate : int }
      (** At tick [at], revoke [rate] of the [ty]-th joined located type
          (indices wrap) over [from, from + len) ticks after [at]. *)

let pp_extra = function
  | Resubmit (i, k) -> Printf.sprintf "resubmit #%d at +%d" i k
  | Release_id (i, k) -> Printf.sprintf "release #%d at +%d" i k
  | Release_unknown t -> Printf.sprintf "release ghost at t%d" t
  | Revoke_slice { at; ty; from; len; rate } ->
      Printf.sprintf "revoke %d of type #%d on [+%d,+%d) at t%d" rate ty from
        (from + len) at

let extra_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun i k -> Resubmit (i, k)) (int_bound 13) (int_bound 60));
        (3, map2 (fun i k -> Release_id (i, k)) (int_bound 13) (int_bound 60));
        (1, map (fun t -> Release_unknown t) (int_bound 120));
        ( 1,
          let* at = int_bound 120 and* ty = int_bound 7 and* from = int_bound 30 in
          let* len = int_range 1 40 and* rate = int_range 1 4 in
          return (Revoke_slice { at; ty; from; len; rate }) );
      ])

let op_time = function
  | Wire.Admit { now; _ } | Wire.Release { now; _ } | Wire.Join { now; _ }
  | Wire.Revoke { now; _ } ->
      now
  | _ -> 0

(* [ops_of] plus the extras, in time order. *)
let expiry_ops ~seed extras =
  let base = ops_of ~seed () in
  let arrivals =
    Array.of_list
      (List.filter_map
         (function Wire.Admit { computation; _ } -> Some computation | _ -> None)
         base)
  in
  let n = Array.length arrivals in
  let types =
    Array.of_list
      (List.sort_uniq Rota_resource.Located_type.compare
         (List.concat_map
            (function
              | Wire.Join { terms; _ } ->
                  List.map (fun (r : Certificate.rect) -> r.Certificate.ltype) terms
              | _ -> [])
            base))
  in
  let extra = function
    | Resubmit (i, k) ->
        let c = arrivals.(i mod n) in
        let start = c.Computation.start + k in
        let deadline = start + c.Computation.deadline - c.Computation.start in
        Wire.Admit
          {
            now = start;
            budget_ms = None;
            computation =
              Computation.make ~id:c.Computation.id ~start ~deadline
                c.Computation.programs;
          }
    | Release_id (i, k) ->
        let c = arrivals.(i mod n) in
        Wire.Release { now = c.Computation.start + k; id = c.Computation.id }
    | Release_unknown t -> Wire.Release { now = t; id = "ghost" }
    | Revoke_slice { at; ty; from; len; rate } ->
        let ltype = types.(ty mod Array.length types) in
        Wire.Revoke
          {
            now = at;
            terms =
              [
                {
                  Certificate.ltype;
                  interval = Interval.of_pair (at + from) (at + from + len);
                  rate;
                };
              ];
          }
  in
  let extras =
    if n = 0 || Array.length types = 0 then [] else List.map extra extras
  in
  List.stable_sort (fun a b -> compare (op_time a) (op_time b)) (base @ extras)

(* Each record the replica writes goes through an independent [Live]
   auditor, which expires commitments by its own rule.  Every decision
   must verify, and after every logged op the two must agree on the
   residual digest and on the number of live commitments.  A release at
   or past the id's deadline (or of an id never admitted) answers
   [existed:false] and logs nothing.  Recovery of the WAL must reach the
   state of the last logged op with nothing diverged.  (A release that
   logs nothing still moves the clock; a stream ending on such releases
   would recover to an earlier clock, the known gap servebench works
   around with a closing join.) *)
let prop_served_equals_audited =
  QCheck.Test.make ~count:60
    ~name:"served = audited with expiry: verdicts, digests, ledger sizes, recovery"
    QCheck.(
      triple (int_bound 1000)
        (int_bound (List.length Admission.all_policies - 1))
        (make
           ~print:(fun l -> String.concat "; " (List.map pp_extra l))
           Gen.(list_size (int_range 0 12) extra_gen)))
    (fun (seed, p, extras) ->
      let policy = List.nth Admission.all_policies p in
      let dir = temp_dir "rota-expiry" in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let live = Live.create () in
      let deadlines = Hashtbl.create 16 and last_digest = ref "" in
      let on_op replica op reply events =
        (match (op, reply) with
        | Wire.Admit { computation = c; _ }, Wire.Decided { action = "admit"; _ } ->
            Hashtbl.replace deadlines c.Computation.id c.Computation.deadline
        | Wire.Release { id; _ }, Wire.Released { existed; _ } ->
            let expired =
              match Hashtbl.find_opt deadlines id with
              | Some d -> Replica.now replica >= d
              | None -> true
            in
            if expired && (existed || events <> []) then
              QCheck.Test.fail_reportf "release of %s at t%d past its deadline changed state"
                id (Replica.now replica)
        | _ -> ());
        if events <> [] then begin
          List.iter
            (fun e ->
              match Live.step live e with
              | None | Some { Live.verdict = Live.Verified; _ } -> ()
              | Some o ->
                  QCheck.Test.fail_reportf "%s %s (seq %d) did not verify" o.Live.action
                    o.Live.id o.Live.seq)
            events;
          let digest = Replica.residual_digest replica in
          (match Live.residual_digest live with
          | Ok d when String.equal d digest -> ()
          | Ok d -> QCheck.Test.fail_reportf "t%d: served digest %s, audited %s"
                      (Replica.now replica) digest d
          | Error m -> QCheck.Test.fail_reportf "audited digest: %s" m);
          let size = Admission.ledger_size (Replica.controller replica) in
          if Live.live_commitments live <> size then
            QCheck.Test.fail_reportf "t%d: served ledger %d, audited %d"
              (Replica.now replica) size (Live.live_commitments live);
          last_digest := digest
        end
      in
      ignore (build_wal ~on_op ~dir ~policy (expiry_ops ~seed extras));
      match Wal.recover ~dir ~policy () with
      | Error m -> QCheck.Test.fail_reportf "recover: %s" m
      | Ok r ->
          Wal.close r.Wal.writer;
          if r.Wal.diverged <> 0 then
            QCheck.Test.fail_reportf "recovery: %d diverged" r.Wal.diverged;
          if not (String.equal r.Wal.digest !last_digest) then
            QCheck.Test.fail_reportf "recovered digest %s, last logged %s"
              r.Wal.digest !last_digest;
          true)

(* --- recovery through a snapshot taken at any point ------------------------ *)

(* Every computation is also released at its deadline (where it has
   expired, so nothing is logged), and ids nobody admitted are released
   at random ticks: both move the clock without a WAL record, as
   steady-mixed's releases do.  Where the daemon happens to snapshot
   then depends on timing, so the snapshot is taken after an arbitrary
   op [k], behind a sync as the daemon takes it. *)
let unlogged_release_ops ~seed ghosts =
  let base = ops_of ~seed () in
  let at_deadline =
    List.filter_map
      (function
        | Wire.Admit { computation = c; _ } ->
            Some
              (Wire.Release { now = c.Computation.deadline; id = c.Computation.id })
        | _ -> None)
      base
  in
  let ghosts = List.map (fun t -> Wire.Release { now = t; id = "ghost" }) ghosts in
  List.stable_sort
    (fun a b -> compare (op_time a) (op_time b))
    (base @ at_deadline @ ghosts)

let prop_snapshot_anywhere =
  QCheck.Test.make ~count:100
    ~name:"wal: recovery through a snapshot after any op = recovery from the wal"
    QCheck.(
      triple (int_bound 1000) (int_bound 10_000)
        (list_of_size Gen.(int_range 0 6) (int_bound 120)))
    (fun (seed, k_raw, ghosts) ->
      let policy = Admission.Rota in
      let dir = temp_dir "rota-snap-any" and bare = temp_dir "rota-snap-bare" in
      Fun.protect ~finally:(fun () -> rm_rf dir; rm_rf bare) @@ fun () ->
      let ops = unlogged_release_ops ~seed ghosts in
      let k = k_raw mod List.length ops in
      ignore (build_wal ~snapshot_after:k ~dir ~policy ops);
      Out_channel.with_open_bin (Wal.wal_path ~dir:bare) (fun oc ->
          Out_channel.output_string oc
            (In_channel.with_open_bin (Wal.wal_path ~dir) In_channel.input_all));
      match (Wal.recover ~dir ~policy (), Wal.recover ~dir:bare ~policy ()) with
      | Error m, _ -> QCheck.Test.fail_reportf "recover through the snapshot: %s" m
      | _, Error m -> QCheck.Test.fail_reportf "recover from the wal: %s" m
      | Ok a, Ok b ->
          Wal.close a.Wal.writer;
          Wal.close b.Wal.writer;
          if a.Wal.diverged <> 0 || b.Wal.diverged <> 0 then
            QCheck.Test.fail_reportf "diverged: %d through the snapshot, %d from the wal"
              a.Wal.diverged b.Wal.diverged;
          (* The known gap: a release that logs nothing still moves the
             clock, so a snapshot taken after one resumes at a later tick
             than the WAL alone can reach.  The WAL's replica is never
             ahead, and moving it to the snapshot's tick the same
             unlogged way must leave nothing else different. *)
          let ta = Replica.now a.Wal.replica and tb = Replica.now b.Wal.replica in
          if ta < tb then
            QCheck.Test.fail_reportf "through the snapshot at t%d, behind the wal's t%d"
              ta tb;
          if ta > tb then
            ignore (Replica.apply b.Wal.replica (Wire.Release { now = ta; id = "ghost" }));
          if not (same_state a.Wal.replica b.Wal.replica) then
            QCheck.Test.fail_reportf
              "snapshot after op %d (used: %b): digest %s, from the wal %s (t%d, \
               recovered at t%d)"
              k a.Wal.from_snapshot (Replica.residual_digest a.Wal.replica)
              (Replica.residual_digest b.Wal.replica) ta tb;
          true)

(* --- the shedding policy ----------------------------------------------------- *)

(* The two checkpoints enforce the invariant the daemon advertises: an
   accepted request's queue delay never exceeds its budget, and the
   queue cannot grow past the point where the predicted delay blows the
   default budget. *)
let test_shed_bounded_delay () =
  let s = Shed.create ~default_budget_s:0.05 ~max_queue:10 () in
  Shed.observe s 0.02;
  Alcotest.(check (float 1e-9)) "first sample seeds the estimate" 0.02
    (Shed.estimate_s s);
  (match Shed.on_enqueue s ~queue_len:0 ~budget_ms:None with
  | Shed.Accept -> ()
  | Shed.Reject { message; _ } ->
      Alcotest.failf "empty queue must accept: %s" message);
  (match Shed.on_enqueue s ~queue_len:4 ~budget_ms:None with
  | Shed.Reject _ -> ()
  | Shed.Accept ->
      Alcotest.fail "5 queued x 20ms estimate > 50ms budget must shed");
  (match Shed.on_enqueue s ~queue_len:4 ~budget_ms:(Some 1000.) with
  | Shed.Accept -> ()
  | Shed.Reject { message; _ } ->
      Alcotest.failf "generous budget must accept: %s" message);
  (match Shed.on_enqueue s ~queue_len:10 ~budget_ms:(Some 1e9) with
  | Shed.Reject _ -> ()
  | Shed.Accept -> Alcotest.fail "full queue must shed regardless of budget");
  (match Shed.on_dequeue s ~waited_s:0.06 ~budget_ms:None with
  | Shed.Reject _ -> ()
  | Shed.Accept -> Alcotest.fail "blown budget at dequeue must shed");
  match Shed.on_dequeue s ~waited_s:0.01 ~budget_ms:None with
  | Shed.Accept -> ()
  | Shed.Reject { message; _ } ->
      Alcotest.failf "in-budget wait must be decided: %s" message

(* Whatever latency history, a request the dequeue checkpoint lets
   through has waited at most its budget: the p99-bounding argument is
   this inequality, not the estimator. *)
let prop_dequeue_bounds_wait =
  QCheck.Test.make ~count:200 ~name:"shed: accepted wait <= budget"
    QCheck.(triple (list (QCheck.float_bound_inclusive 1.0))
              (QCheck.float_bound_inclusive 1.0)
              (QCheck.float_bound_inclusive 0.5))
    (fun (samples, waited, budget) ->
      QCheck.assume (budget > 0.);
      let s = Shed.create ~default_budget_s:budget () in
      List.iter (Shed.observe s) samples;
      match Shed.on_dequeue s ~waited_s:waited ~budget_ms:None with
      | Shed.Accept -> waited <= budget
      | Shed.Reject _ -> waited > budget)

(* --- wire codec -------------------------------------------------------------- *)

let roundtrip_request r =
  match Wire.request_of_line (Wire.request_to_line r) with
  | Ok r' -> r' = r
  | Error m -> Alcotest.failf "request did not parse back: %s" m

let test_wire_roundtrip () =
  let computations = Scenario.computations (params ~seed:9 ()) in
  Alcotest.(check bool) "some computations generated" true (computations <> []);
  List.iter
    (fun c ->
      match Wire.computation_of_json (Wire.computation_to_json c) with
      | Ok c' ->
          Alcotest.(check bool)
            (Printf.sprintf "computation %s round-trips" c.Computation.id)
            true (c' = c)
      | Error m -> Alcotest.failf "computation codec: %s" m)
    computations;
  let slice = Scenario.capacity_of (params ~seed:9 ()) in
  let requests =
    [
      { Wire.tag = Json.Null;
        op = Wire.Admit
            { now = 3; computation = List.hd computations; budget_ms = Some 40. } };
      { Wire.tag = Json.Int 7;
        op = Wire.Join { now = 0; terms = Certificate.rects_of_set slice } };
      { Wire.tag = Json.String "r1";
        op = Wire.Revoke { now = 9; terms = Certificate.rects_of_set slice } };
      { Wire.tag = Json.Null; op = Wire.Release { now = 4; id = "c01" } };
      { Wire.tag = Json.Null; op = Wire.Query "residual-digest" };
      { Wire.tag = Json.Null; op = Wire.Ping };
      { Wire.tag = Json.Null; op = Wire.Shutdown };
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "request round-trips" true (roundtrip_request r))
    requests;
  let responses =
    [
      { Wire.tag = Json.Null;
        cid = None;
        reply =
          Wire.Decided
            { id = "c1"; action = "admit"; slug = "committed";
              reason = "fits"; digest = "abc123" } };
      { Wire.tag = Json.Int 7;
        cid = None;
        reply = Wire.Shed { id = "c2"; reason = "queue full" } };
      { Wire.tag = Json.Null; cid = None;
        reply = Wire.Released { id = "c3"; existed = true } };
      { Wire.tag = Json.Null;
        cid = None;
        reply = Wire.Revoked { quantity = 12; evicted = [ "a"; "b" ] } };
      { Wire.tag = Json.Null; cid = None; reply = Wire.Joined { quantity = 5 } };
      { Wire.tag = Json.Null;
        cid = None;
        reply = Wire.Info [ ("digest", Json.String "ff") ] };
      { Wire.tag = Json.Null; cid = None; reply = Wire.Pong };
      { Wire.tag = Json.Null; cid = None; reply = Wire.Draining };
      { Wire.tag = Json.Null; cid = None; reply = Wire.Failed "nope" };
    ]
  in
  List.iter
    (fun r ->
      match Wire.response_of_line (Wire.response_to_line r) with
      | Ok r' ->
          Alcotest.(check bool) "response round-trips" true (r' = r)
      | Error m -> Alcotest.failf "response did not parse back: %s" m)
    responses;
  (* A shed response is, on the wire, a reject carrying the shed slug. *)
  match
    Json.parse
      (Wire.response_to_line
         { Wire.tag = Json.Null;
           cid = None;
           reply = Wire.Shed { id = "x"; reason = "late" } })
  with
  | Ok json ->
      Alcotest.(check bool) "shed slug on the wire" true
        (Json.member "slug" json = Some (Json.String Wire.shed_slug))
  | Error m -> Alcotest.failf "shed response unparsable: %s" m

(* A computation without programs would commit a schedule with no parts,
   hence no window for the auditor or replay to expire it at: the wire
   refuses it before it reaches the controller. *)
let test_wire_refuses_workless () =
  let c = Computation.make ~id:"idle" ~start:0 ~deadline:5 [] in
  (match Wire.computation_of_json (Wire.computation_to_json c) with
  | Error msg ->
      Alcotest.(check string) "names the computation"
        "wire: computation idle has no programs" msg
  | Ok _ -> Alcotest.fail "a computation without programs must be refused");
  let admit =
    { Wire.tag = Json.Null;
      op = Wire.Admit { now = 0; computation = c; budget_ms = None } }
  in
  Alcotest.(check bool) "an admit carrying it does not parse" true
    (Result.is_error (Wire.request_of_line (Wire.request_to_line admit)))

(* --- correlation ids ---------------------------------------------------------- *)

(* The daemon's cid travels two ways: echoed in the reply envelope (and
   as the tag for untagged requests) and stamped into the WAL decision
   record — so a client log line, a scrape, and a WAL entry can be
   joined on one key. *)
let test_wire_cid_echo () =
  let with_cid =
    { Wire.tag = Json.Int 3; cid = Some "r42-7"; reply = Wire.Pong }
  in
  (match Wire.response_of_line (Wire.response_to_line with_cid) with
  | Ok r -> Alcotest.(check bool) "cid round-trips" true (r = with_cid)
  | Error m -> Alcotest.failf "cid response did not parse: %s" m);
  (match Json.parse (Wire.response_to_line with_cid) with
  | Ok json ->
      Alcotest.(check bool) "cid on the wire" true
        (Json.member "cid" json = Some (Json.String "r42-7"))
  | Error m -> Alcotest.failf "cid response unparsable: %s" m);
  let without =
    { Wire.tag = Json.Null; cid = None; reply = Wire.Draining }
  in
  (match Wire.response_of_line (Wire.response_to_line without) with
  | Ok r -> Alcotest.(check bool) "absent cid is None" true (r = without)
  | Error m -> Alcotest.failf "cid-less response did not parse: %s" m);
  let snapshot =
    { Wire.tag = Json.Null;
      cid = Some "r1-1";
      reply =
        Wire.Metrics_snapshot
          { exposition = "# EOF\n";
            samples =
              [ Json.Obj [ ("kind", Json.String "metric-sample") ] ] } }
  in
  match Wire.response_of_line (Wire.response_to_line snapshot) with
  | Ok r -> Alcotest.(check bool) "metrics snapshot round-trips" true (r = snapshot)
  | Error m -> Alcotest.failf "metrics snapshot did not parse: %s" m

let test_cid_stamped_in_decision () =
  let replica = Replica.create Admission.Rota in
  let computation = List.hd (Scenario.computations (params ~seed:9 ())) in
  let payloads, _reply =
    Replica.apply ~cid:"r9-1" replica
      (Wire.Admit { now = 0; computation; budget_ms = None })
  in
  let cids =
    List.filter_map
      (function
        | Rota_obs.Events.Decision { cid; _ } -> Some cid
        | _ -> None)
      payloads
  in
  Alcotest.(check bool) "decision carries the cid" true
    (cids <> [] && List.for_all (( = ) (Some "r9-1")) cids)

(* --- the scrape surface ------------------------------------------------------- *)

module Telemetry = Rota_server.Telemetry
module Metrics = Rota_obs.Metrics
module Openmetrics = Rota_obs.Openmetrics

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The exposition a live daemon serves: lint-clean, and the family set
   is stable — every family the daemon can ever touch is present from
   the first scrape, zero-valued or not. *)
let test_scrape_families () =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  Telemetry.count_request "admit";
  Telemetry.count_shed "queue-full";
  Metrics.observe Telemetry.rtt 0.004;
  Metrics.observe Telemetry.admit_slack 12.;
  Telemetry.set_burn Telemetry.burn_5m 1.25;
  let body = Openmetrics.render (Metrics.snapshot ()) in
  (match Openmetrics.lint body with
  | Ok () -> ()
  | Error e -> Alcotest.failf "exposition does not lint: %s" e);
  List.iter
    (fun sub ->
      Alcotest.(check bool) (sub ^ " present") true (contains ~sub body))
    [
      "# TYPE server_rtt_s histogram";
      "# TYPE server_queue_wait_s histogram";
      "# TYPE server_fsync_s histogram";
      "# TYPE server_admit_slack histogram";
      "# TYPE server_queue_depth gauge";
      "# TYPE server_connections gauge";
      "# TYPE server_wal_bytes counter";
      "server_requests_total{slug=\"admit\"} 1";
      "server_requests_total{slug=\"ping\"} 0";
      "server_shed_total{slug=\"queue-full\"} 1";
      "server_shed_total{slug=\"predicted-delay\"} 0";
      "slo_burn_5m 1250";
      "slo_burn_1h 0";
      "# EOF";
    ]

(* Deadline slack read off a constructive certificate: deadline minus
   the latest schedule-step stop. *)
let test_admit_slack_bound () =
  let step stop =
    { Certificate.index = 0;
      need = [];
      subwindow = Interval.of_pair 0 stop;
      allocation = [] }
  in
  let part stops =
    { Certificate.actor = "a";
      window = Interval.of_pair 0 100;
      breakpoints = [];
      steps = List.map step stops }
  in
  let cert evidence = { Certificate.theorem = Certificate.T2; digest = ""; evidence } in
  (match
     Telemetry.completion_bound (cert (Certificate.Schedules [ part [ 4; 9 ] ]))
   with
  | Some 9 -> ()
  | Some other -> Alcotest.failf "schedules bound %d, want 9" other
  | None -> Alcotest.fail "schedules evidence must bound completion");
  (match Telemetry.completion_bound (cert Certificate.Infeasible) with
  | None -> ()
  | Some _ -> Alcotest.fail "reject evidence has no completion bound");
  match
    Telemetry.completion_bound
      (cert
         (Certificate.Aggregate_fit
            { window = Interval.of_pair 2 17; rows = []; fits = true }))
  with
  | Some 17 -> ()
  | _ -> Alcotest.fail "aggregate fit bounds at the window stop"

(* --- replica snapshots -------------------------------------------------------- *)

let test_replica_snapshot_roundtrip () =
  let dir = temp_dir "rota-replica-snap" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let live = build_wal ~dir ~policy:Admission.Rota (ops_of ~seed:4 ()) in
  match Replica.restore (Replica.snapshot live) with
  | Error m -> Alcotest.failf "restore: %s" m
  | Ok back ->
      Alcotest.(check bool) "snapshot round-trips the ledger" true
        (same_state live back);
      Alcotest.(check int) "clock preserved" (Replica.now live)
        (Replica.now back)

(* A tampered snapshot (one reservation quantity nudged) must be
   refused by the digest check, not silently adopted. *)
let test_snapshot_tamper_refused () =
  let dir = temp_dir "rota-replica-tamper" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let live = build_wal ~dir ~policy:Admission.Rota (ops_of ~seed:4 ()) in
  let json = Replica.snapshot live in
  let rec tamper json =
    match json with
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k, v) -> (k, tamper v)) fields)
    | Json.List items -> Json.List (List.map tamper items)
    | Json.String s when String.length s = 16 && s <> "" ->
        (* Digest-shaped strings get one nibble flipped. *)
        Json.String
          (String.mapi (fun i c -> if i = 0 then (if c = '0' then '1' else '0') else c) s)
    | other -> other
  in
  match Replica.restore (tamper json) with
  | Ok _ -> Alcotest.fail "tampered snapshot must be refused"
  | Error _ -> ()

(* --- the daemon's line splitter --------------------------------------------- *)

module Daemon = Rota_server.Daemon

let rec connect ?(tries = 100) path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.05;
      connect ~tries:(tries - 1) path

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s
      (off + Unix.write_substring fd s off (String.length s - off))

(* Replies until [lines] have arrived or the daemon closes the
   connection; a 10 s receive timeout keeps a hung daemon from hanging
   the suite. *)
let read_replies ?(lines = max_int) fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let newlines () =
    String.fold_left
      (fun n c -> if c = '\n' then n + 1 else n)
      0 (Buffer.contents buf)
  in
  let rec go () =
    if newlines () < lines then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes buf chunk 0 n;
          go ()
  in
  go ();
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match Wire.response_of_line l with
         | Ok r -> r.Wire.reply
         | Error m -> Alcotest.failf "bad reply %S: %s" l m)

(* Wait for [pid] until [within] seconds have passed; [None] if it is
   still running then. *)
let wait_exit ~within pid =
  let deadline = Unix.gettimeofday () +. within in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        go ()
    | 0, _ -> None
    | _, status -> Some status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Fork a daemon on a fresh state directory, hand its socket path to
   [k], then require a SIGTERM drain to exit 0 within [drain_within]
   seconds. *)
let with_daemon ?(drain_within = 10.) k =
  let dir = temp_dir "rota-daemon" in
  let sock = Filename.concat dir "sock" in
  let cfg =
    Daemon.config ~telemetry:false ~dir:(Filename.concat dir "state")
      ~address:(Daemon.Unix_socket sock) Admission.Rota
  in
  match Unix.fork () with
  | 0 ->
      let code =
        match Daemon.run cfg with Ok () -> 0 | Error _ | (exception _) -> 1
      in
      Unix._exit code
  | pid ->
      let finally () =
        (try
           Unix.kill pid Sys.sigkill;
           ignore (Unix.waitpid [] pid)
         with Unix.Unix_error _ -> ());
        rm_rf dir
      in
      Fun.protect ~finally @@ fun () ->
      k sock;
      Unix.kill pid Sys.sigterm;
      match wait_exit ~within:drain_within pid with
      | Some (Unix.WEXITED 0) -> ()
      | Some _ -> Alcotest.fail "daemon did not drain cleanly"
      | None -> Alcotest.failf "daemon still running %.0fs after SIGTERM" drain_within

let request_line op = Wire.request_to_line { Wire.tag = Json.Null; op } ^ "\n"
let ping = request_line Wire.Ping

(* A client that sends more than [max_line_bytes] without a newline gets
   the replies it is owed, one [Failed], and a closed connection; the
   daemon keeps serving everyone else, and several lines in one read
   each get their reply. *)
let test_overlong_line_refused () =
  with_daemon @@ fun sock ->
  let a = connect sock in
  let b = connect sock in
  write_all a (ping ^ String.make (Daemon.max_line_bytes + 1) 'x') 0;
  (match read_replies a with
  | [ Wire.Pong; Wire.Failed _ ] -> ()
  | rs ->
      Alcotest.failf "over-long line: expected pong then failed, got %d \
                      replies" (List.length rs));
  Unix.close a;
  write_all b (ping ^ ping ^ ping) 0;
  (match read_replies ~lines:3 b with
  | [ Wire.Pong; Wire.Pong; Wire.Pong ] -> ()
  | rs -> Alcotest.failf "second connection: got %d replies" (List.length rs));
  Unix.close b

(* A client that pipelines pings and never reads a reply is pushed back:
   once its unsent replies pass [max_unsent_bytes] the daemon stops
   reading it, so its own non-blocking writes stall for good within a
   bounded number of bytes.  A second connection is still answered, and
   a SIGTERM drain closes the silent client after the grace period and
   exits 0. *)
let test_unread_replies_bounded () =
  let silent = ref None in
  Fun.protect ~finally:(fun () -> Option.iter Unix.close !silent) @@ fun () ->
  with_daemon ~drain_within:(Daemon.drain_grace_s +. 3.) @@ fun sock ->
  let a = connect sock in
  silent := Some a;
  Unix.set_nonblock a;
  let burst = String.concat "" (List.init 4096 (fun _ -> ping)) in
  let bound = 4 * Daemon.max_unsent_bytes in
  (* Write until the socket stays unwritable for a whole second. *)
  let rec push sent =
    if sent > bound then
      Alcotest.failf "the daemon kept reading a client that never reads: %d bytes"
        sent;
    let off = sent mod String.length burst in
    match Unix.write_substring a burst off (String.length burst - off) with
    | n -> push (sent + n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match Unix.select [] [ a ] [] 1.0 with
        | _, [], _ -> ()
        | _ -> push sent)
  in
  push 0;
  let b = connect sock in
  write_all b ping 0;
  (match read_replies ~lines:1 b with
  | [ Wire.Pong ] -> ()
  | rs -> Alcotest.failf "second connection: got %d replies" (List.length rs));
  Unix.close b

(* --- hostile numbers ----------------------------------------------------------- *)

(* A well-formed admit whose evaluate complexity, priced at the default
   cost model's 8 per unit, overflows to a negative CPU quantity, so
   deciding it raises out of [Requirement.amount].  (Complexities 2^60
   and 2^61 wrap to 0 instead, and are admitted: the wire does not bound
   its numbers yet.) *)
let poison_admit ~now =
  let name = Rota_actor.Actor_name.make "poison.a0" in
  let computation =
    Computation.make ~id:"poison" ~start:now ~deadline:(now + 40)
      [
        Rota_actor.Program.make ~name ~home:(Rota_resource.Location.make "l1")
          [ Rota_actor.Action.evaluate (1 lsl 59) ];
      ]
  in
  Wire.Admit { now; computation; budget_ms = None }

(* Deciding raises, [apply] does not: the reply is [Failed], nothing is
   to be logged, and the clock and ledger are as they were, although
   the request's [now] would have moved the clock first. *)
let test_apply_total () =
  let replica = Replica.create Admission.Rota in
  let ops = ops_of ~seed:4 () in
  List.iteri
    (fun i op ->
      if i < List.length ops / 2 then ignore (Replica.apply replica op))
    ops;
  let before =
    match Replica.restore (Replica.snapshot replica) with
    | Ok copy -> copy
    | Error m -> Alcotest.failf "copy: %s" m
  in
  let now = Replica.now replica in
  Alcotest.(check bool) "ledger in use" true
    (Admission.ledger_size (Replica.controller replica) > 0);
  let payloads, reply = Replica.apply replica (poison_admit ~now:(now + 7)) in
  (match reply with
  | Wire.Failed _ -> ()
  | _ -> Alcotest.fail "a raising decision must answer failed");
  Alcotest.(check int) "no payloads" 0 (List.length payloads);
  Alcotest.(check int) "clock unchanged" now (Replica.now replica);
  Alcotest.(check string) "digest unchanged" (Replica.residual_digest before)
    (Replica.residual_digest replica);
  Alcotest.(check bool) "ledger unchanged" true (same_state before replica)

(* The same line against a live daemon: its sender gets [Failed], and
   the daemon lives on to answer a second connection. *)
let test_poison_line_survived () =
  with_daemon @@ fun sock ->
  let a = connect sock in
  write_all a (request_line (poison_admit ~now:5)) 0;
  (match read_replies ~lines:1 a with
  | [ Wire.Failed _ ] -> ()
  | rs -> Alcotest.failf "poison admit: expected failed, got %d replies" (List.length rs));
  let b = connect sock in
  write_all b ping 0;
  (match read_replies ~lines:1 b with
  | [ Wire.Pong ] -> ()
  | rs -> Alcotest.failf "second connection: got %d replies" (List.length rs));
  Unix.close a;
  Unix.close b


(* --- the request pipeline, in process ----------------------------------------- *)

module Pipeline = Rota_server.Pipeline
module Events = Rota_obs.Events

let open_pipeline ?(max_queue = 512) ?(snapshot_every = 512) ?(telemetry = false)
    dir =
  match Wal.recover ~dir ~policy:Admission.Rota () with
  | Error m -> Alcotest.failf "recover: %s" m
  | Ok r ->
      Pipeline.create ~dir ~snapshot_every ~max_queue ~default_budget_ms:250.
        ~telemetry ~slo_budget:0.01 ~flight_capacity:256 r

(* Step until nothing is queued; the replies in the order returned. *)
let step_all p =
  let rec go acc =
    if Pipeline.queued p = 0 then List.concat (List.rev acc)
    else go (Pipeline.step p :: acc)
  in
  go []

let response line =
  match Wire.response_of_line (String.trim line) with
  | Ok r -> r
  | Error m -> Alcotest.failf "bad reply %S: %s" line m

(* (id, action, cid) of every decision record in the WAL on disk. *)
let wal_decisions dir =
  let ic = open_in_bin (Wal.wal_path ~dir) in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  (match Binary.read_header ic with
  | Ok () -> ()
  | Error m -> Alcotest.failf "wal header: %s" m);
  let rec go acc =
    match Binary.read_item ic with
    | Binary.Event { Events.payload = Events.Decision { id; action; cid; _ }; _ } ->
        go ((id, action, cid) :: acc)
    | Binary.Event _ -> go acc
    | Binary.Eof | Binary.Cut _ -> List.rev acc
    | Binary.Malformed m -> Alcotest.failf "wal: %s" m
  in
  go []

let tagged k op = Wire.request_to_line { Wire.tag = Json.Int k; op }

let info_field name = function
  | Wire.Info fields -> List.assoc_opt name fields
  | _ -> None

let digest_of r =
  match info_field "digest" r.Wire.reply with
  | Some (Json.String d) -> d
  | _ -> Alcotest.fail "expected a residual-digest answer"

(* An admit that the enqueue check sheds: its 0.5 ms budget is below
   the cold 1 ms decide estimate. *)
let hasty_admit ~id ~now =
  let c = List.hd (Scenario.computations (params ~seed:9 ())) in
  Wire.Admit
    {
      now;
      budget_ms = Some 0.5;
      computation =
        Computation.make ~id ~start:now
          ~deadline:(now + c.Computation.deadline - c.Computation.start)
          c.Computation.programs;
    }

let cid_number cid =
  match String.rindex_opt cid '-' with
  | Some i -> int_of_string (String.sub cid (i + 1) (String.length cid - i - 1))
  | None -> Alcotest.failf "malformed cid %S" cid

type line = Op of Wire.op | Raw of string | Refused

(* Three connections interleave admits, releases, a revocation, a
   malformed line, an over-long-line refusal, the poison admit, ping,
   stats, metrics and sheds.  Every line gets exactly one reply, each
   connection gets its replies in submission order, and the cids the
   replies carry increase. *)
let test_pipeline_one_reply_in_order () =
  let dir = temp_dir "rota-pipe-order" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = open_pipeline dir in
  Pipeline.set_connections p 3;
  let ops = ops_of ~seed:7 () in
  let start = op_time (List.hd ops) in
  let extras =
    [
      (2, Raw "{not json");
      (1, Op (poison_admit ~now:start));
      (3, Op Wire.Ping);
      (2, Refused);
      (3, Op (Wire.Query "stats"));
      (1, Op (hasty_admit ~id:"hasty-1" ~now:start));
      (3, Op Wire.Metrics);
      (2, Op (hasty_admit ~id:"hasty-2" ~now:start));
      (3, Op (hasty_admit ~id:"hasty-3" ~now:start));
    ]
  in
  let script =
    List.concat
      (List.mapi
         (fun i op ->
           ((i mod 3) + 1, Op op)
           :: (match List.nth_opt extras i with Some e -> [ e ] | None -> []))
         ops)
  in
  List.iteri
    (fun k (conn, line) ->
      match line with
      | Op op -> Pipeline.submit p conn (tagged k op)
      | Raw l -> Pipeline.submit p conn l
      | Refused -> Pipeline.refuse p conn "request line exceeds 1048576 bytes")
    script;
  let replies = List.map (fun (c, l) -> (c, response l)) (step_all p) in
  Alcotest.(check int) "one reply per line" (List.length script) (List.length replies);
  let cids =
    List.map
      (fun (_, r) ->
        match r.Wire.cid with
        | Some c -> cid_number c
        | None -> Alcotest.fail "reply without a cid")
      replies
  in
  ignore
    (List.fold_left
       (fun prev c ->
         if c <= prev then Alcotest.failf "cid %d after %d" c prev;
         c)
       min_int cids);
  let indexed = List.mapi (fun k (conn, line) -> (conn, k, line)) script in
  List.iter
    (fun conn ->
      let sent = List.filter (fun (c, _, _) -> c = conn) indexed in
      let got = List.filter_map (fun (c, r) -> if c = conn then Some r else None) replies in
      Alcotest.(check int)
        (Printf.sprintf "connection %d: replies" conn)
        (List.length sent) (List.length got);
      List.iter2
        (fun (_, k, line) (r : Wire.response) ->
          let where = Printf.sprintf "connection %d, line %d" conn k in
          match (line, r.Wire.reply) with
          | Op _, _ when r.Wire.tag <> Json.Int k ->
              Alcotest.failf "%s: answered out of order (tag %s)" where
                (Json.to_string r.Wire.tag)
          | (Raw _ | Refused), Wire.Failed _ ->
              Alcotest.(check bool) (where ^ ": cid echoed as the tag") true
                (r.Wire.tag = Json.String (Option.get r.Wire.cid))
          | (Raw _ | Refused), _ -> Alcotest.failf "%s: expected failed" where
          | Op (Wire.Admit { budget_ms = Some 0.5; _ }), Wire.Shed _ -> ()
          | Op (Wire.Admit { computation; _ }), Wire.Failed _
            when computation.Computation.id = "poison" ->
              ()
          | Op (Wire.Admit { computation; _ }), _
            when computation.Computation.id = "poison" ->
              Alcotest.failf "%s: the poison admit must fail" where
          | Op Wire.Ping, Wire.Pong -> ()
          | Op (Wire.Query "stats"), reply ->
              Alcotest.(check bool) (where ^ ": stats counts connections") true
                (info_field "connections" reply = Some (Json.Int 3))
          | Op Wire.Metrics, Wire.Metrics_snapshot _ -> ()
          | Op (Wire.Admit _), Wire.Decided _
          | Op (Wire.Release _), Wire.Released _
          | Op (Wire.Join _), Wire.Joined _
          | Op (Wire.Revoke _), Wire.Revoked _ ->
              ()
          | Op _, reply ->
              Alcotest.failf "%s: unexpected reply %s" where
                (Wire.response_to_line { r with Wire.reply })
        )
        sent got)
    [ 1; 2; 3 ];
  let count f = List.length (List.filter (fun (_, r) -> f r.Wire.reply) replies) in
  Alcotest.(check int) "sheds" 3 (count (function Wire.Shed _ -> true | _ -> false));
  Alcotest.(check bool) "admits decided" true
    (count (function Wire.Decided { action = "admit"; _ } -> true | _ -> false) > 0);
  Alcotest.(check bool) "a release answered" true
    (count (function Wire.Released _ -> true | _ -> false) > 0);
  Pipeline.close p

(* Group commit: every decided reply a step returns already has its
   record, with its cid, in the WAL file; and the snapshot cadence runs
   between steps. *)
let test_pipeline_group_commit () =
  let dir = temp_dir "rota-pipe-commit" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = open_pipeline ~snapshot_every:16 dir in
  List.iteri (fun k op -> Pipeline.submit p 0 (tagged k op)) (ops_of ~arrivals:150 ~seed:3 ());
  let batches = ref 0 and decided = ref 0 in
  while Pipeline.queued p > 0 do
    let replies = Pipeline.step p in
    incr batches;
    let on_disk = Hashtbl.create 64 in
    List.iter
      (fun (_, _, cid) -> Option.iter (fun c -> Hashtbl.replace on_disk c ()) cid)
      (wal_decisions dir);
    List.iter
      (fun (_, line) ->
        let r = response line in
        match (r.Wire.reply, r.Wire.cid) with
        | Wire.Decided { id; _ }, Some cid ->
            incr decided;
            if not (Hashtbl.mem on_disk cid) then
              Alcotest.failf "batch %d: %s (%s) answered before its record was written"
                !batches id cid
        | Wire.Decided { id; _ }, None -> Alcotest.failf "decision on %s without a cid" id
        | _ -> ())
      replies
  done;
  Alcotest.(check bool) "several batches" true (!batches > 2);
  Alcotest.(check int) "one admit or reject record per decided reply" !decided
    (List.length
       (List.filter (fun (_, action, _) -> action = "admit" || action = "reject")
          (wal_decisions dir)));
  Alcotest.(check bool) "snapshot taken between steps" true
    (Sys.file_exists (Wal.snapshot_path ~dir));
  Pipeline.close p

(* A pipeline dropped with lines still queued (a crash) loses only what
   it never answered: recovery re-verifies everything with 0 diverged
   and reaches the digest after the last returned batch; a new pipeline
   serves on, and the offline audit verifies every decision. *)
let test_pipeline_crash () =
  let dir = temp_dir "rota-pipe-crash" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ops = ops_of ~arrivals:80 ~seed:5 () in
  let first, rest = List.partition (fun op -> op_time op < 60) ops in
  let p = open_pipeline ~snapshot_every:32 dir in
  List.iteri (fun k op -> Pipeline.submit p 0 (tagged k op)) first;
  Pipeline.submit p 0 (tagged (-1) (Wire.Query "residual-digest"));
  let served =
    match List.rev (step_all p) with
    | (_, line) :: _ -> digest_of (response line)
    | [] -> Alcotest.fail "no replies"
  in
  List.iteri (fun k op -> Pipeline.submit p 0 (tagged k op)) rest;
  (* Crash: the pipeline is dropped, never stepped or closed again. *)
  match Wal.recover ~dir ~policy:Admission.Rota () with
  | Error m -> Alcotest.failf "recover after the crash: %s" m
  | Ok r ->
      Alcotest.(check int) "0 diverged" 0 r.Wal.diverged;
      Alcotest.(check string) "recovered to the last answered digest" served r.Wal.digest;
      let p =
        Pipeline.create ~dir ~snapshot_every:32 ~max_queue:512 ~default_budget_ms:250.
          ~telemetry:false ~slo_budget:0.01 ~flight_capacity:256 r
      in
      List.iteri (fun k op -> Pipeline.submit p 0 (tagged k op)) rest;
      ignore (step_all p);
      Pipeline.close p;
      (match Rota_audit.Audit.audit_file (Wal.wal_path ~dir) with
      | Error _ -> Alcotest.fail "audit could not read the WAL"
      | Ok report ->
          Alcotest.(check int) "0 divergent" 0
            (List.length report.Rota_audit.Audit.divergences);
          Alcotest.(check int) "every decision verified"
            (List.length (wal_decisions dir)) report.Rota_audit.Audit.verified)

(* Each overload checkpoint answers [shed] with its own slug, logs
   nothing, bumps [server/shed.<slug>], and fails nothing. *)
let test_pipeline_overload () =
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.reset ();
      Metrics.set_enabled false)
  @@ fun () ->
  let shed_count slug = Metrics.counter_value (Metrics.counter ("server/shed." ^ slug)) in
  let check_sheds ~slug ?max_queue ?(pause = 0.) lines =
    let dir = temp_dir "rota-pipe-shed" in
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let p = open_pipeline ?max_queue ~telemetry:true dir in
    let before = shed_count slug in
    List.iteri (fun k op -> Pipeline.submit p 0 (tagged k op)) lines;
    Unix.sleepf pause;
    let replies = List.map (fun (_, l) -> response l) (step_all p) in
    Pipeline.close p;
    let sheds =
      List.filter_map
        (fun r -> match r.Wire.reply with Wire.Shed { id; _ } -> Some id | _ -> None)
        replies
    in
    Alcotest.(check int) (slug ^ ": one reply per line") (List.length lines)
      (List.length replies);
    Alcotest.(check bool) (slug ^ ": nothing failed") false
      (List.exists (fun r -> match r.Wire.reply with Wire.Failed _ -> true | _ -> false) replies);
    Alcotest.(check bool) (slug ^ ": something shed") true (sheds <> []);
    Alcotest.(check int) (slug ^ ": counted per shed") (List.length sheds)
      (shed_count slug - before);
    List.iter
      (fun (id, _, _) ->
        if List.mem id sheds then Alcotest.failf "%s: shed %s was logged" slug id)
      (wal_decisions dir)
  in
  let admit ~budget_ms id =
    match hasty_admit ~id ~now:0 with
    | Wire.Admit a -> Wire.Admit { a with budget_ms }
    | op -> op
  in
  check_sheds ~slug:"predicted-delay"
    (List.init 3 (fun i -> admit ~budget_ms:(Some 0.5) (Printf.sprintf "p%d" i)));
  check_sheds ~slug:"budget-spent" ~pause:0.05
    [ admit ~budget_ms:(Some 20.) "b0"; admit ~budget_ms:(Some 20.) "b1" ];
  check_sheds ~slug:"queue-full" ~max_queue:4
    (List.init 4 (fun _ -> Wire.Ping) @ [ admit ~budget_ms:(Some 1e6) "q0" ])

(* The descriptors this process holds open on [path]. *)
let open_on path =
  Array.fold_left
    (fun n fd ->
      match Unix.readlink (Filename.concat "/proc/self/fd" fd) with
      | target when target = path -> n + 1
      | _ | (exception Unix.Unix_error _) -> n)
    0
    (Sys.readdir "/proc/self/fd")

(* A [shutdown] op starts the drain; [close] leaves the WAL complete,
   released and snapshotted at its end, so recovery replays nothing and
   reaches the served digest. *)
let test_pipeline_drain () =
  let dir = temp_dir "rota-pipe-drain" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let p = open_pipeline dir in
  let ops = ops_of ~seed:11 () in
  List.iteri (fun k op -> Pipeline.submit p 0 (tagged k op)) ops;
  Pipeline.submit p 0 (tagged (-1) (Wire.Query "residual-digest"));
  Pipeline.submit p 0 (tagged (-2) Wire.Shutdown);
  Alcotest.(check bool) "not draining before the shutdown is decided" false
    (Pipeline.draining p);
  let replies = List.rev_map (fun (_, l) -> response l) (step_all p) in
  Alcotest.(check bool) "draining" true (Pipeline.draining p);
  let served =
    match replies with
    | { Wire.reply = Wire.Draining; _ } :: digest :: _ -> digest_of digest
    | _ -> Alcotest.fail "expected the digest, then draining"
  in
  let wal = Unix.realpath (Wal.wal_path ~dir) in
  Alcotest.(check int) "the WAL is open while serving" 1 (open_on wal);
  Pipeline.close p;
  Alcotest.(check int) "close releases the WAL" 0 (open_on wal);
  match Wal.recover ~dir ~policy:Admission.Rota () with
  | Error m -> Alcotest.failf "recover after the drain: %s" m
  | Ok r ->
      Wal.close r.Wal.writer;
      Alcotest.(check int) "0 diverged" 0 r.Wal.diverged;
      Alcotest.(check bool) "from the closing snapshot" true r.Wal.from_snapshot;
      Alcotest.(check int) "nothing past the snapshot" 0 r.Wal.replayed;
      Alcotest.(check string) "served digest" served r.Wal.digest

let () =
  Alcotest.run "server"
    [
      ( "wal",
        QCheck_alcotest.to_alcotest prop_truncation_recovers
        :: [
             Alcotest.test_case "snapshot-assisted recovery" `Quick
               test_snapshot_recovery;
             QCheck_alcotest.to_alcotest prop_served_equals_audited;
             QCheck_alcotest.to_alcotest prop_snapshot_anywhere;
           ] );
      ( "shed",
        [
          Alcotest.test_case "bounded queue delay" `Quick
            test_shed_bounded_delay;
        ]
        @ [ QCheck_alcotest.to_alcotest prop_dequeue_bounds_wait ] );
      ( "wire",
        [
          Alcotest.test_case "codec round-trips" `Quick test_wire_roundtrip;
          Alcotest.test_case "cid echo round-trips" `Quick test_wire_cid_echo;
          Alcotest.test_case "cid stamped into decisions" `Quick
            test_cid_stamped_in_decision;
          Alcotest.test_case "over-long line refused" `Quick
            test_overlong_line_refused;
          Alcotest.test_case "computation without programs refused" `Quick
            test_wire_refuses_workless;
          Alcotest.test_case "raising decision answered failed" `Quick
            test_apply_total;
          Alcotest.test_case "poison line leaves the daemon serving" `Quick
            test_poison_line_survived;
          Alcotest.test_case "unread replies bounded, drain not held" `Quick
            test_unread_replies_bounded;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "one reply per line, in order" `Quick
            test_pipeline_one_reply_in_order;
          Alcotest.test_case "replies follow their fsync" `Quick
            test_pipeline_group_commit;
          Alcotest.test_case "crash loses only unanswered lines" `Quick
            test_pipeline_crash;
          Alcotest.test_case "overload sheds by slug" `Quick
            test_pipeline_overload;
          Alcotest.test_case "shutdown drains and closes" `Quick
            test_pipeline_drain;
        ] );
      ( "scrape",
        [
          Alcotest.test_case "stable lint-clean families" `Quick
            test_scrape_families;
          Alcotest.test_case "admit slack completion bound" `Quick
            test_admit_slack_bound;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "replica snapshot round-trips" `Quick
            test_replica_snapshot_roundtrip;
          Alcotest.test_case "tampered snapshot refused" `Quick
            test_snapshot_tamper_refused;
        ] );
    ]
