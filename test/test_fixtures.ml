(* Old files keep reading.  The fixtures under fixtures/ were written by
   a binary that still logged every admission verdict twice: once as a
   legacy [admitted]/[rejected] record and once as its [decision]
   record.  They must keep validating, summarizing with one count per
   verdict, auditing clean, and recovering to the residual digest the
   daemon reported when it wrote them.

   How they were made (that binary, run from the repository root):

     rota simulate --arrivals 4 --locations 2 --policy rota --horizon 30 \
       --sample-every 0 --faults 1.0 --fault-seed 0 \
       --trace test/fixtures/legacy-engine.jsonl

     rota serve --dir test/fixtures/legacy-serve --socket rota.sock &
     rota load --socket rota.sock --arrivals 8 --horizon 120 \
       --connections 1 --pipeline 1 --seed 2
     kill -TERM %1

   [rota load] printed "residual digest: 8420f481d246c518"; the SIGTERM
   drain wrote snapshot.json next to the WAL.  That binary kept ledger
   entries past their deadlines: the snapshot lists six, every one of
   whose windows ended before its clock of 110. *)

module Events = Rota_obs.Events
module Trace_reader = Rota_obs.Trace_reader
module Summary = Rota_obs.Summary
module Audit = Rota_audit.Audit
module Admission = Rota_scheduler.Admission
module Wal = Rota_server.Wal
module Replica = Rota_server.Replica

let engine_trace = "fixtures/legacy-engine.jsonl"
let serve_dir = "fixtures/legacy-serve"
let serve_wal = Filename.concat serve_dir "wal.rotb"
let serve_digest = "8420f481d246c518"

let read path =
  match Trace_reader.read_file path with
  | Ok (events, Trace_reader.Complete) -> events
  | Ok (_, tail) ->
      Alcotest.failf "%s: %a" path Trace_reader.pp_tail tail
  | Error e -> Alcotest.failf "%s: %a" path Trace_reader.pp_error e

let count_kind kind events =
  List.length
    (List.filter
       (fun (e : Events.t) -> Events.kind e.Events.payload = kind)
       events)

let count_decisions action events =
  List.length
    (List.filter
       (fun (e : Events.t) ->
         match e.Events.payload with
         | Events.Decision { action = a; _ } -> String.equal a action
         | _ -> false)
       events)

let test_validate path () =
  let v = Trace_reader.validate_file path in
  Alcotest.(check (list string))
    "no validation errors" [] v.Trace_reader.errors;
  Alcotest.(check bool) "events read" true (v.Trace_reader.events > 0)

(* One count per verdict: the summary's admits and rejects equal the
   [decision] admit/reject records, although each verdict also has its
   legacy record in the file. *)
let test_summary path ~admitted ~rejected () =
  let events = read path in
  Alcotest.(check int) "legacy admitted records present" admitted
    (count_kind "admitted" events);
  Alcotest.(check int) "legacy rejected records present" rejected
    (count_kind "rejected" events);
  Alcotest.(check int) "decision admits" admitted
    (count_decisions "admit" events);
  Alcotest.(check int) "decision rejects" rejected
    (count_decisions "reject" events);
  match (Summary.of_events events).Summary.runs with
  | [ r ] ->
      Alcotest.(check int) "summary admitted" admitted r.Summary.admitted;
      Alcotest.(check int) "summary rejected" rejected r.Summary.rejected;
      Alcotest.(check int) "reject reasons" rejected
        (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Summary.reject_reasons)
  | runs -> Alcotest.failf "expected one run, got %d" (List.length runs)

(* The engine trace also holds an evict and a repair decision about an
   already-admitted computation: neither is a second admit, so latency
   still runs from the original admission. *)
let test_engine_latency () =
  let events = read engine_trace in
  Alcotest.(check int) "one evict" 1 (count_decisions "evict" events);
  Alcotest.(check int) "one repair" 1 (count_decisions "repair" events);
  match (Summary.of_events events).Summary.runs with
  | [ r ] ->
      Alcotest.(check (array int)) "admit-to-completion latencies" [| 22; 27 |]
        r.Summary.latencies
  | runs -> Alcotest.failf "expected one run, got %d" (List.length runs)

let test_audit path () =
  match Audit.audit_file path with
  | Error e -> Alcotest.failf "%s: %a" path Trace_reader.pp_error e
  | Ok r ->
      Alcotest.(check int) "0 divergent" 0 (List.length r.Audit.divergences);
      Alcotest.(check int) "every decision verified" r.Audit.decisions
        r.Audit.verified;
      Alcotest.(check bool) "decisions present" true (r.Audit.decisions > 0)

let temp_dir () =
  let path = Filename.temp_file "rota-fixture" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let copy_file src dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc data)

(* Recovery writes to its state dir (it reopens the WAL for appending),
   so it runs on a copy.  With the snapshot it replays nothing past it;
   without, every record replays through [Replica.replay].  Either way
   the dead entries are gone: restore advances to the snapshot's clock,
   and replay advances to each record's. *)
let test_recover ~with_snapshot () =
  let dir = temp_dir () in
  let files =
    if with_snapshot then [ "wal.rotb"; "snapshot.json" ] else [ "wal.rotb" ]
  in
  List.iter
    (fun f -> copy_file (Filename.concat serve_dir f) (Filename.concat dir f))
    files;
  let finally () =
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  in
  Fun.protect ~finally @@ fun () ->
  match Wal.recover ~dir ~policy:Admission.Rota () with
  | Error m -> Alcotest.failf "recover: %s" m
  | Ok r ->
      Wal.close r.Wal.writer;
      Alcotest.(check bool) "from snapshot" with_snapshot r.Wal.from_snapshot;
      Alcotest.(check int) "0 diverged" 0 r.Wal.diverged;
      Alcotest.(check int) "every decision re-verified" 8 r.Wal.verified;
      Alcotest.(check string) "recorded residual digest" serve_digest
        r.Wal.digest;
      Alcotest.(check int) "no entry outlives its deadline" 0
        (Admission.ledger_size (Replica.controller r.Wal.replica));
      if not with_snapshot then
        Alcotest.(check int) "every record replayed" r.Wal.scanned
          r.Wal.replayed

let () =
  Alcotest.run "rota_fixtures"
    [
      ( "legacy engine trace",
        [
          Alcotest.test_case "validates" `Quick (test_validate engine_trace);
          Alcotest.test_case "summary counts each verdict once" `Quick
            (test_summary engine_trace ~admitted:2 ~rejected:2);
          Alcotest.test_case "evict and repair are not admits" `Quick
            test_engine_latency;
          Alcotest.test_case "audits clean" `Quick (test_audit engine_trace);
        ] );
      ( "legacy serve wal",
        [
          Alcotest.test_case "validates" `Quick (test_validate serve_wal);
          Alcotest.test_case "summary counts each verdict once" `Quick
            (test_summary serve_wal ~admitted:6 ~rejected:2);
          Alcotest.test_case "audits clean" `Quick (test_audit serve_wal);
          Alcotest.test_case "recovers through the snapshot" `Quick
            (test_recover ~with_snapshot:true);
          Alcotest.test_case "recovers from the wal alone" `Quick
            (test_recover ~with_snapshot:false);
        ] );
    ]
