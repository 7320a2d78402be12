(* The independent offline auditor, end to end: traced engine runs must
   re-verify 100% of their decision certificates from the trace file
   alone, and a tampered certificate must surface as a divergence naming
   the offending decision. *)

open Rota_scheduler
open Rota_sim
module Scenario = Rota_workload.Scenario
module Events = Rota_obs.Events
module Sink = Rota_obs.Sink
module Tracer = Rota_obs.Tracer
module Audit = Rota_audit.Audit
module Live = Audit.Live
module Watchdog = Rota_audit.Watchdog

let () = Calendar.set_self_check true

(* Trace whatever [run] does into a fresh JSONL file, then hand the path
   to [k]; tracer state and the file are cleaned up afterwards. *)
let with_traced run k =
  Tracer.reset ();
  let path = Filename.temp_file "rota-audit-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Tracer.reset ();
      Sys.remove path)
  @@ fun () ->
  Tracer.install (Sink.jsonl_file path);
  run ();
  Tracer.uninstall ();
  k path

let audit path =
  match Audit.audit_file path with
  | Ok report -> report
  | Error e ->
      Alcotest.failf "audit_file: %s"
        (Format.asprintf "%a" Rota_obs.Trace_reader.pp_error e)

let check_full_coverage name (r : Audit.report) =
  Alcotest.(check bool) (name ^ ": decisions recorded") true (r.Audit.decisions > 0);
  Alcotest.(check int)
    (name ^ ": every decision re-verified")
    r.Audit.decisions r.Audit.verified;
  Alcotest.(check int) (name ^ ": nothing skipped") 0 r.Audit.skipped;
  Alcotest.(check int)
    (name ^ ": no divergences")
    0
    (List.length r.Audit.divergences);
  Alcotest.(check bool) (name ^ ": ok") true (Audit.ok r)

let params ~seed =
  { Scenario.default_params with seed; horizon = 120; arrivals = 10; locations = 2 }

(* --- clean traces audit clean ------------------------------------------- *)

(* E6 shape: the same workload under every admission policy, no faults —
   covers T4 schedule/infeasible, T1 aggregate tables, optimistic
   unchecked, stale and duplicate evidence. *)
let test_audit_all_policies () =
  let p = params ~seed:42 in
  let trace = Scenario.trace p in
  with_traced
    (fun () ->
      List.iter
        (fun policy -> ignore (Engine.run ~policy trace))
        Admission.all_policies)
  @@ fun path ->
  let r = audit path in
  Alcotest.(check int) "one audited run per policy"
    (List.length Admission.all_policies)
    r.Audit.runs;
  check_full_coverage "all policies" r

(* E11 shape: fault storms with the repair ladder on — covers eviction
   and repair (T3) certificates plus capacity reconstruction through
   revocations, slowdowns and rejoins. *)
let test_audit_faulted_run () =
  let p = params ~seed:17 in
  let trace = Scenario.trace p in
  let faults = Scenario.fault_plan ~fault_seed:3 ~intensity:1.5 p in
  with_traced (fun () ->
      ignore (Engine.run ~faults ~repair:true ~policy:Admission.Rota trace))
  @@ fun path -> check_full_coverage "faulted run" (audit path)

(* QCheck: whatever workload and fault plan the generators produce, the
   auditor re-verifies every certificate with zero divergences — the
   checker (Accommodation.check_schedule on a reconstructed ledger) and
   the greedy decider never disagree. *)
let prop_audit_verifies_everything =
  QCheck.Test.make ~count:25
    ~name:"audit: every decision in a random traced run re-verifies"
    QCheck.(pair (int_bound 1000) (int_bound 100))
    (fun (seed, fault_seed) ->
      let p = params ~seed in
      let trace = Scenario.trace p in
      let faults = Scenario.fault_plan ~fault_seed ~intensity:1.5 p in
      with_traced (fun () ->
          ignore (Engine.run ~faults ~repair:true ~policy:Admission.Rota trace);
          ignore (Engine.run ~policy:Admission.Aggregate trace))
      @@ fun path ->
      let r = audit path in
      if not (Audit.ok r && r.Audit.skipped = 0 && r.Audit.verified = r.Audit.decisions)
      then
        QCheck.Test.fail_reportf
          "audit diverged: %d decisions, %d verified, %d skipped, %d divergent"
          r.Audit.decisions r.Audit.verified r.Audit.skipped
          (List.length r.Audit.divergences);
      true)

(* --- live watchdog ≡ offline audit --------------------------------------- *)

let verdict_key = function
  | Live.Verified -> "verified"
  | Live.Skipped m -> "skipped: " ^ m
  | Live.Diverged ms -> "diverged: " ^ String.concat "; " ms

(* QCheck: the watchdog riding the emitting engine and [audit_file]
   replaying the finished trace are two drivers over the same
   [Live.step], so their verdict sequences must be identical — same
   decisions, same order, same verdicts — on any workload and fault
   plan the generators produce. *)
let prop_watchdog_matches_offline =
  QCheck.Test.make ~count:15
    ~name:"watchdog: live verdict sequence equals the offline audit"
    QCheck.(pair (int_bound 1000) (int_bound 100))
    (fun (seed, fault_seed) ->
      let p = params ~seed in
      let trace = Scenario.trace p in
      let faults = Scenario.fault_plan ~fault_seed ~intensity:1.5 p in
      let seen = ref [] in
      let wd =
        Watchdog.create
          ~on_outcome:(fun (o : Live.outcome) ->
            seen := (o.Live.id, o.Live.action, verdict_key o.Live.verdict) :: !seen)
          ()
      in
      Tracer.reset ();
      let path = Filename.temp_file "rota-wd-equiv" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Tracer.reset ();
          Sys.remove path)
      @@ fun () ->
      Tracer.install (Sink.tee (Sink.jsonl_file path) (Watchdog.sink wd));
      ignore (Engine.run ~faults ~repair:true ~policy:Admission.Rota trace);
      Tracer.uninstall ();
      let live = List.rev !seen in
      let offline =
        match
          Audit.fold_decisions path ~init:[] ~f:(fun acc (o : Live.outcome) ->
              (o.Live.id, o.Live.action, verdict_key o.Live.verdict) :: acc)
        with
        | Ok (acc, _, _) -> List.rev acc
        | Error e ->
            QCheck.Test.fail_reportf "offline audit failed: %s"
              (Format.asprintf "%a" Rota_obs.Trace_reader.pp_error e)
      in
      if live = [] then QCheck.Test.fail_report "watchdog saw no decisions";
      if live <> offline then
        QCheck.Test.fail_reportf
          "live (%d outcomes) and offline (%d outcomes) verdict sequences differ"
          (List.length live) (List.length offline);
      true)

(* The engine snapshots the installed watchdog around each run, so every
   report carries exactly the stats delta its own run contributed. *)
let test_engine_reports_watchdog_delta () =
  let p = params ~seed:42 in
  let trace = Scenario.trace p in
  Tracer.reset ();
  Fun.protect
    ~finally:(fun () ->
      Watchdog.uninstall ();
      Tracer.reset ())
  @@ fun () ->
  let wd = Watchdog.create () in
  Tracer.install (Watchdog.sink wd);
  Watchdog.install wd;
  let r1 = Engine.run ~policy:Admission.Rota trace in
  let r2 = Engine.run ~policy:Admission.Aggregate trace in
  let total = Watchdog.stats wd in
  let get = function
    | Some s -> s
    | None -> Alcotest.fail "report lacks watchdog stats"
  in
  let s1 = get r1.Engine.watchdog and s2 = get r2.Engine.watchdog in
  Alcotest.(check bool) "run 1 saw decisions" true (s1.Watchdog.decisions > 0);
  Alcotest.(check int) "run 1 re-verified everything" s1.Watchdog.decisions
    s1.Watchdog.verified;
  Alcotest.(check int) "run 1 clean" 0 s1.Watchdog.divergences;
  Alcotest.(check int) "per-run deltas sum to the watchdog total"
    total.Watchdog.decisions
    (s1.Watchdog.decisions + s2.Watchdog.decisions);
  Watchdog.uninstall ();
  let r3 = Engine.run ~policy:Admission.Rota trace in
  Alcotest.(check bool) "no watchdog, no stats block" true
    (r3.Engine.watchdog = None)

(* --- tampering is caught ------------------------------------------------- *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Find the first decision line carrying a non-empty digest, flip one
   digest character, and return the mutated trace plus the decision's id. *)
let corrupt_first_digest ~src ~dst =
  let needle = "\"digest\":\"" in
  let mutated = ref None in
  let ic = open_in src and oc = open_out dst in
  (try
     while true do
       let line = input_line ic in
       let line =
         match !mutated with
         | Some _ -> line
         | None -> (
             match
               if contains ~sub:"\"kind\":\"decision\"" line then
                 Rota_obs.Json.parse line
               else Error "not a decision"
             with
             | Error _ -> line
             | Ok _ -> (
                 (* locate the digest value inside the raw line *)
                 let rec find i =
                   if i + String.length needle > String.length line then None
                   else if String.sub line i (String.length needle) = needle then
                     Some (i + String.length needle)
                   else find (i + 1)
                 in
                 match find 0 with
                 | Some at when line.[at] <> '"' ->
                     (match Events.of_line ~strict:true line with
                     | Ok { Events.payload = Events.Decision { id; _ }; _ } ->
                         mutated := Some id
                     | _ -> Alcotest.fail "decision line failed to parse");
                     let b = Bytes.of_string line in
                     Bytes.set b at (if line.[at] = '0' then 'f' else '0');
                     Bytes.to_string b
                 | _ -> line))
       in
       output_string oc line;
       output_char oc '\n'
     done
   with End_of_file -> ());
  close_in ic;
  close_out oc;
  match !mutated with
  | Some id -> id
  | None -> Alcotest.fail "no decision with a digest found to corrupt"

let test_audit_catches_tampering () =
  let p = params ~seed:42 in
  let trace = Scenario.trace p in
  with_traced (fun () -> ignore (Engine.run ~policy:Admission.Rota trace))
  @@ fun path ->
  let bad = Filename.temp_file "rota-audit-bad" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove bad) @@ fun () ->
  let victim = corrupt_first_digest ~src:path ~dst:bad in
  let r = audit bad in
  Alcotest.(check bool) "tampered audit fails" false (Audit.ok r);
  match r.Audit.divergences with
  | [] -> Alcotest.fail "no divergence reported"
  | d :: _ ->
      (* The first divergence names the decision whose digest was flipped. *)
      Alcotest.(check string) "divergence names the decision" victim d.Audit.id;
      Alcotest.(check bool) "message mentions the digest" true
        (contains ~sub:"digest" d.Audit.message)

(* A fail-fast watchdog re-observing the tampered stream must trip
   mid-stream — at the flipped decision, before the trailing events —
   naming the offending decision (the CLI maps {!Watchdog.Trip} to a
   nonzero exit carrying the same seq/id/message). *)
let test_watchdog_trips_on_tampering () =
  let p = params ~seed:42 in
  let trace = Scenario.trace p in
  with_traced (fun () -> ignore (Engine.run ~policy:Admission.Rota trace))
  @@ fun path ->
  let bad = Filename.temp_file "rota-wd-bad" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove bad) @@ fun () ->
  let victim = corrupt_first_digest ~src:path ~dst:bad in
  let events =
    match Rota_obs.Trace_reader.read_file bad with
    | Ok (es, _) -> es
    | Error _ -> Alcotest.fail "tampered trace unreadable"
  in
  let wd = Watchdog.create ~mode:Watchdog.Fail_fast () in
  let consumed = ref 0 in
  let tripped =
    try
      List.iter
        (fun e ->
          incr consumed;
          Watchdog.observe wd e)
        events;
      None
    with Watchdog.Trip { id; message; _ } -> Some (id, message)
  in
  match tripped with
  | None -> Alcotest.fail "fail-fast watchdog did not trip"
  | Some (id, message) ->
      Alcotest.(check string) "trip names the tampered decision" victim id;
      Alcotest.(check bool) "trip message mentions the digest" true
        (contains ~sub:"digest" message);
      Alcotest.(check bool) "tripped mid-stream, not at the end" true
        (!consumed < List.length events);
      let s = Watchdog.stats wd in
      Alcotest.(check bool) "divergence counted" true (s.Watchdog.divergences > 0)

(* rota explain: the decision's story renders with the auditor verdict. *)
let test_explain_renders_decision () =
  let p = params ~seed:42 in
  let trace = Scenario.trace p in
  with_traced (fun () -> ignore (Engine.run ~policy:Admission.Rota trace))
  @@ fun path ->
  (* Pick any decided id off the trace. *)
  let events =
    match Rota_obs.Trace_reader.read_file path with
    | Ok (es, _) -> es
    | Error _ -> Alcotest.fail "trace unreadable"
  in
  let id =
    match
      List.find_map
        (fun (e : Events.t) ->
          match e.Events.payload with
          | Events.Decision { id; _ } -> Some id
          | _ -> None)
        events
    with
    | Some id -> id
    | None -> Alcotest.fail "no decision in trace"
  in
  match Audit.explain_file path ~id with
  | Error _ -> Alcotest.fail "explain_file failed"
  | Ok [] -> Alcotest.failf "no explanation for %s" id
  | Ok (block :: _ as blocks) ->
      Alcotest.(check bool) "names the id" true (contains ~sub:id block);
      Alcotest.(check bool) "carries an auditor verdict" true
        (List.exists (contains ~sub:"auditor:") blocks);
      (* Unknown ids yield the empty list, not an error. *)
      (match Audit.explain_file path ~id:"no-such-id" with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "unknown id must yield no blocks"
      | Error _ -> Alcotest.fail "unknown id must not be a read error")

(* --- the auditor's carried residual -------------------------------------- *)

(* [Live] carries the residual it built for one decision forward by
   truncation, and rebuilds it only after the capacity or the entry
   table changes.  These streams are written by hand so that every kind
   of change lands between two residual reads with no other change in
   between, and each read is compared with a residual the test rebuilds
   from scratch: capacity minus the live reservations, truncated at the
   clock. *)
module Certificate = Rota.Certificate
module Resource_set = Rota_resource.Resource_set
module Json = Rota_obs.Json

let iv = Rota_interval.Interval.of_pair
let cpu = Rota_resource.Located_type.cpu (Rota_resource.Location.make "l1")
let slice rate a b = Resource_set.of_terms [ Rota_resource.Term.v rate (iv a b) cpu ]

(* The test's own ledger: capacity and (id, window stop, reservation). *)
type model = {
  mutable cap : Resource_set.t;
  mutable entries : (string * int * Resource_set.t) list;
}

let expected m ~now =
  let live = List.filter (fun (_, stop, _) -> stop > now) m.entries in
  let committed =
    List.fold_left
      (fun acc (_, _, r) -> Resource_set.union acc (Resource_set.truncate_before r now))
      Resource_set.empty live
  in
  match Resource_set.diff (Resource_set.truncate_before m.cap now) committed with
  | Ok r -> r
  | Error _ -> Alcotest.fail "the scripted ledger overcommits"

(* Feeds hand-made events to one [Live], numbering them and their runs. *)
let feeder () =
  let live = Live.create () and seq = ref 0 and run = ref 0 in
  let step ~sim payload =
    incr seq;
    (match payload with Events.Run_started _ -> incr run | _ -> ());
    Live.step live { Events.seq = !seq; run = !run; sim = Some sim; wall_s = 0.; payload }
  in
  (live, step)

let check_residual live m ~now what =
  match Live.residual_digest live with
  | Ok d -> Alcotest.(check string) what (Certificate.digest (expected m ~now)) d
  | Error e -> Alcotest.failf "%s: %s" what e

let terms set = Certificate.rects_to_json (Certificate.rects_of_set set)

let decision ~action ~id cert =
  Events.Decision
    { id; policy = "rota"; action; slug = action; certificate = Certificate.to_json cert;
      cid = None }

(* Theorem 2's greedy schedule for [q] units of cpu in [a, b), pinned to
   the residual the model holds at [now]. *)
let admit_cert m ~now ~window:(a, b) q =
  let residual = expected m ~now in
  let req =
    Rota_resource.Requirement.make_complex
      ~steps:[ [ Rota_resource.Requirement.amount cpu q ] ] ~window:(iv a b)
  in
  match Rota.Accommodation.schedule_sequential residual req with
  | Some schedule ->
      Certificate.of_schedules ~theorem:Certificate.T2 ~residual
        [ (Rota_actor.Actor_name.make "a", req, schedule) ]
  | None -> Alcotest.failf "scripted admit of %d on [%d,%d) does not fit" q a b

let expect_verified what = function
  | Some { Live.verdict = Live.Verified; _ } -> ()
  | Some { Live.verdict = Live.Diverged ms; _ } ->
      Alcotest.failf "%s diverged: %s" what (String.concat "; " ms)
  | Some { Live.verdict = Live.Skipped m; _ } -> Alcotest.failf "%s skipped: %s" what m
  | None -> Alcotest.failf "%s: no verdict" what

(* A reject pinned to the model's residual: verified only if [Live]'s
   own residual, carried or rebuilt, hashes the same. *)
let probe step m ~sim what =
  expect_verified what
    (step ~sim
       (decision ~action:"reject" ~id:("probe-" ^ what)
          (Certificate.infeasible ~residual:(expected m ~now:sim))))

let commit m id ~stop cert =
  m.entries <- (id, stop, Certificate.reservation cert) :: m.entries

let drop m id = m.entries <- List.filter (fun (i, _, _) -> i <> id) m.entries

let test_carried_residual_follows_changes () =
  let live, step = feeder () in
  let m = { cap = slice 4 0 100; entries = [] } in
  ignore (step ~sim:0 (Events.Run_started { label = "serve policy=rota" }));
  ignore (step ~sim:0 (Events.Capacity_joined { quantity = 400; terms = terms m.cap }));
  probe step m ~sim:1 "capacity";
  (* An admit's commit. *)
  let a = admit_cert m ~now:2 ~window:(2, 30) 40 in
  expect_verified "admit a" (step ~sim:2 (decision ~action:"admit" ~id:"a" a));
  commit m "a" ~stop:30 a;
  probe step m ~sim:3 "commit";
  let b = admit_cert m ~now:4 ~window:(4, 60) 60 in
  expect_verified "admit b" (step ~sim:4 (decision ~action:"admit" ~id:"b" b));
  commit m "b" ~stop:60 b;
  probe step m ~sim:4 "second commit";
  (* A release. *)
  ignore (step ~sim:5 (Events.Completed { id = "a" }));
  drop m "a";
  probe step m ~sim:5 "release";
  (* Capacity terms, both ways. *)
  let extra = slice 2 10 70 in
  ignore (step ~sim:6 (Events.Capacity_joined { quantity = 120; terms = terms extra }));
  m.cap <- Resource_set.union m.cap extra;
  probe step m ~sim:6 "join";
  let lost = slice 1 80 90 in
  ignore
    (step ~sim:7
       (Events.Fault_injected { fault = "revocation"; quantity = 10; terms = terms lost }));
  m.cap <- Resource_set.diff_clamped m.cap lost;
  probe step m ~sim:7 "revocation";
  (* An eviction with no capacity change between it and the last read. *)
  ignore (step ~sim:8 (Events.Commitment_revoked { id = "b"; quantity = 0 }));
  drop m "b";
  probe step m ~sim:8 "revoked";
  let c = admit_cert m ~now:9 ~window:(9, 40) 20 in
  expect_verified "admit c" (step ~sim:9 (decision ~action:"admit" ~id:"c" c));
  commit m "c" ~stop:40 c;
  probe step m ~sim:12 "carried forward";
  ignore (step ~sim:13 (Events.Commitment_degraded { id = "c"; extra = 1; released = true }));
  drop m "c";
  probe step m ~sim:13 "degraded and released";
  (* A run reset: nothing of the old run survives into the new one,
     even though the clock did not move back. *)
  ignore (step ~sim:13 (Events.Run_started { label = "serve policy=rota" }));
  m.cap <- Resource_set.empty;
  m.entries <- [];
  check_residual live m ~now:13 "run reset"

(* A tampered admit whose reservation reaches past its window: it
   diverges, is tracked anyway, and leaves the ledger when the clock
   reaches its window's stop — taking the tail past the stop with it. *)
let test_tampered_reservation_expires () =
  let live, step = feeder () in
  let m = { cap = slice 3 0 100; entries = [] } in
  ignore (step ~sim:0 (Events.Run_started { label = "serve policy=rota" }));
  ignore (step ~sim:0 (Events.Capacity_joined { quantity = 300; terms = terms m.cap }));
  let honest = admit_cert m ~now:2 ~window:(2, 50) 30 in
  expect_verified "honest admit" (step ~sim:2 (decision ~action:"admit" ~id:"h" honest));
  commit m "h" ~stop:50 honest;
  let c = admit_cert m ~now:5 ~window:(5, 60) 120 in
  let tampered =
    match c.Certificate.evidence with
    | Certificate.Schedules parts ->
        {
          c with
          Certificate.evidence =
            Certificate.Schedules
              (List.map (fun p -> { p with Certificate.window = iv 5 20 }) parts);
        }
    | _ -> Alcotest.fail "admit evidence expected"
  in
  Alcotest.(check bool) "reservation reaches past the window" true
    (not (Resource_set.within (Certificate.reservation tampered) (iv 5 20)));
  (match step ~sim:5 (decision ~action:"admit" ~id:"t" tampered) with
  | Some { Live.verdict = Live.Diverged _; _ } -> ()
  | _ -> Alcotest.fail "the tampered admit must diverge");
  commit m "t" ~stop:20 tampered;
  check_residual live m ~now:5 "with the tampered reservation";
  probe step m ~sim:19 "before the window stops";
  probe step m ~sim:20 "at the window's stop";
  check_residual live m ~now:20 "after the expiry"

let () =
  Alcotest.run "audit"
    [
      ( "clean",
        [
          Alcotest.test_case "all policies re-verify" `Quick
            test_audit_all_policies;
          Alcotest.test_case "faulted run re-verifies" `Quick
            test_audit_faulted_run;
          QCheck_alcotest.to_alcotest prop_audit_verifies_everything;
        ] );
      ( "watchdog",
        [
          QCheck_alcotest.to_alcotest prop_watchdog_matches_offline;
          Alcotest.test_case "engine reports per-run stats delta" `Quick
            test_engine_reports_watchdog_delta;
        ] );
      ( "tampering",
        [
          Alcotest.test_case "flipped digest is caught" `Quick
            test_audit_catches_tampering;
          Alcotest.test_case "fail-fast watchdog trips mid-stream" `Quick
            test_watchdog_trips_on_tampering;
        ] );
      ( "explain",
        [
          Alcotest.test_case "decision story renders" `Quick
            test_explain_renders_decision;
        ] );
      ( "residual",
        [
          Alcotest.test_case "follows every ledger change" `Quick
            test_carried_residual_follows_changes;
          Alcotest.test_case "tampered reservation expires with its window"
            `Quick test_tampered_reservation_expires;
        ] );
    ]
