(* Serve-path benchmark: a real `rota serve` daemon driven over one
   Unix-socket connection with a seeded request stream, then crashed and
   recovered.  See servebench/README.md for the workloads and metrics.

   Run from the repository root:
     dune exec --root . --cache=disabled -- servebench/main.exe \
       --workload steady-mixed --seed 1
   Flags: --workload W --seed N [--seconds S] [--trace 0|1].
   The last line of standard output is one JSON object: --trace 0
   reports the end-to-end metrics, --trace 1 the per-layer ones. *)

open Servebench
module Wire = Rota_server.Wire
module Wal = Rota_server.Wal
module Json = Rota_obs.Json
module Events = Rota_obs.Events
module Binary = Rota_obs.Binary
module Trace_reader = Rota_obs.Trace_reader

let work_root = ".servebench"
let reference_path = "servebench/reference.json"

(* Restarts timed per run for setup_s (the median is reported). *)
let restarts = 3

(* Every wait in a run ends by this many seconds after its start, so a
   stuck daemon fails the run instead of outliving it. *)
let run_budget_s = 170.

(* Open-loop validity: a generator this late is measuring itself. *)
let max_late_p99_ms = 5.

(* --- small helpers ------------------------------------------------------- *)

(* Exact nearest-rank quantile. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median xs = quantile xs 0.5

let mean xs =
  Array.fold_left ( +. ) 0. xs /. float_of_int (max 1 (Array.length xs))

(* Machine-speed anchor, the same spin loop bench/main.ml records as
   spin_ns_per_iter: ns per iteration of a fixed integer loop, minimum
   over seven trials. *)
let spin_ns_per_iter () =
  let iters = 2_000_000 in
  let spin () =
    let x = ref 0 in
    for i = 1 to iters do
      x := !x lxor i
    done;
    Sys.opaque_identity !x
  in
  let best = ref infinity in
  for _ = 1 to 7 do
    let t0 = Unix.gettimeofday () in
    ignore (spin ());
    best := Float.min !best ((Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters)
  done;
  !best

(* The admit/reject decision records of a WAL: how many, and the wall
   time each was appended, by the cid of the request that made it. *)
let wal_decisions path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match Binary.read_header ic with
      | Error m -> Error m
      | Ok () ->
          let stamps = Hashtbl.create 4096 in
          let rec go n =
            match Binary.read_item ic with
            | Binary.Event
                {
                  Events.payload = Events.Decision { action = "admit" | "reject"; cid; _ };
                  wall_s;
                  _;
                } ->
                Option.iter (fun c -> Hashtbl.replace stamps c wall_s) cid;
                go (n + 1)
            | Binary.Event _ -> go n
            | Binary.Eof | Binary.Cut _ -> Ok (n, stamps)
            | Binary.Malformed m -> Error m
          in
          go 0)

(* The daemon's own registry, scraped once through the [metrics] verb:
   histogram (count, sum) and counter/gauge values by series name. *)
type scrape = { hists : (string * (int * float)) list; values : (string * float) list }

let scrape_of_samples samples =
  List.fold_left
    (fun acc j ->
      match Events.of_json j with
      | Ok { Events.payload = Events.Hist_sample { name; count; sum; _ }; _ } ->
          { acc with hists = (name, (count, sum)) :: acc.hists }
      | Ok { Events.payload = Events.Metric_sample { name; value; _ }; _ } ->
          { acc with values = (name, value) :: acc.values }
      | _ -> acc)
    { hists = []; values = [] } samples

let hist_mean s name =
  match List.assoc_opt name s.hists with
  | Some (c, sum) when c > 0 -> sum /. float_of_int c
  | _ -> nan

let hist_count s name = match List.assoc_opt name s.hists with Some (c, _) -> c | None -> 0
let value s name = Option.value (List.assoc_opt name s.values) ~default:0.

(* --- one run --------------------------------------------------------------- *)

type check = { what : string; ok : bool }

type run = {
  attempted : int;
  failed : int;
  checks : check list;
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
  notes : string list;
}

let bench (w : Workload.t) ~seed ~seconds ~trace =
  let deadline = Unix.gettimeofday () +. run_budget_s in
  let checks = ref [] and notes = ref [] in
  let check what ok = checks := { what; ok } :: !checks in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let fail fmt = Printf.ksprintf failwith fmt in
  let ok_or what = function Ok x -> x | Error m -> fail "%s: %s" what m in
  let here = Filename.concat work_root (Printf.sprintf "%s-seed%d-%d" w.name seed (Unix.getpid ())) in
  State_dir.fresh here;
  let dir = Filename.concat here "state" and socket = Filename.concat here "sock" in
  let reqs = Workload.requests w ~seed ~seconds in
  let lines = Workload.lines reqs in
  let n = Array.length lines in
  let admits = Array.map Workload.is_admit reqs in
  let schedule =
    match w.loop with
    | Workload.Open_loop { rate } -> Client.Open (Workload.due_times ~seed ~rate n)
    | Workload.Closed_loop { pipeline } -> Client.Closed pipeline
  in
  let daemon = ok_or "start daemon" (Daemon_proc.spawn ~dir ~socket ~deadline) in
  let fd = Client.connect socket in
  let load = ok_or "load" (Client.run fd ~lines ~schedule ~deadline) in
  let scrape =
    match Client.call fd ~deadline Wire.Metrics with
    | Ok (Wire.Metrics_snapshot { samples; _ }) -> scrape_of_samples samples
    | Ok _ -> fail "metrics: unexpected reply"
    | Error m -> fail "metrics: %s" m
  in
  let served_digest = ok_or "residual-digest" (Client.residual_digest fd ~deadline) in
  let rss_mb = Option.value (Daemon_proc.vm_hwm_mb daemon) ~default:nan in
  Daemon_proc.kill9 daemon;
  Unix.close fd;
  let wal = Wal.wal_path ~dir in
  let wal_bytes = (Unix.stat wal).Unix.st_size in
  let count o = Array.fold_left (fun acc x -> if x = o then acc + 1 else acc) 0 load.Client.outcomes in
  let admitted = count Client.Admit and rejected = count Client.Reject in
  let shed = count Client.Shed and failed = count Client.Failed in
  note "%d requests; %d admit latency samples (%d admitted, %d rejected, %d shed)" n
    (Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 admits)
    admitted rejected shed;
  check "no failed replies" (failed = 0);
  let decisions, stamps = ok_or "read WAL" (wal_decisions wal) in
  let decided i = match load.Client.outcomes.(i) with Client.Admit | Client.Reject -> true | _ -> false in
  check "WAL decision records = decided replies" (decisions = admitted + rejected);
  check "every decided reply's cid has its WAL record"
    (Hashtbl.length stamps = decisions
    && Array.for_all Fun.id
         (Array.mapi (fun i c -> (not (decided i)) || Hashtbl.mem stamps c) load.Client.cids));
  (* Crash recovery, [restarts] times over the same state (once when
     tracing); the last restart is drained with SIGTERM. *)
  let times = if trace then 1 else restarts in
  let setup =
    Array.init times (fun k ->
        let d = ok_or "restart daemon" (Daemon_proc.spawn ~dir ~socket ~deadline) in
        let r = d.Daemon_proc.recovery in
        if k = 0 then
          note "recovery: %d WAL records scanned, %d replayed%s, %d decisions re-verified"
            r.Daemon_proc.scanned r.Daemon_proc.replayed
            (if r.Daemon_proc.from_snapshot then " past the snapshot" else "")
            r.Daemon_proc.verified;
        check (Printf.sprintf "restart %d: 0 diverged" (k + 1)) (r.Daemon_proc.diverged = 0);
        let fd = Client.connect socket in
        let digest = ok_or "residual-digest after restart" (Client.residual_digest fd ~deadline) in
        check (Printf.sprintf "restart %d: residual digest matches" (k + 1))
          (String.equal digest served_digest);
        Unix.close fd;
        if k = times - 1 then check "SIGTERM drains and exits 0" (Daemon_proc.terminate d ~deadline)
        else Daemon_proc.kill9 d;
        d.Daemon_proc.ready_s)
  in
  let { Client.due; sent; replied; cids; _ } = load in
  let since_due t = Array.mapi (fun i x -> x -. due.(i)) t in
  let of_admits xs = Array.of_list (List.filteri (fun i _ -> admits.(i)) (Array.to_list xs)) in
  let admit_rtt = of_admits (since_due replied) in
  (* Due to decision appended: the round trip less encode, watchdog,
     flight record, the request's own flush and the reply's trip back
     (the WAL stamps each record as its append starts). *)
  let appended = Array.map (fun c -> Option.value (Hashtbl.find_opt stamps c) ~default:nan) cids in
  let admit_decided = of_admits (since_due appended) in
  let late = since_due sent in
  let late_p99_ms = quantile late 0.99 *. 1e3 in
  (match w.loop with
  | Workload.Open_loop _ ->
      check (Printf.sprintf "generator late p99 <= %g ms" max_late_p99_ms)
        (late_p99_ms <= max_late_p99_ms)
  | Workload.Closed_loop _ -> ());
  let duration = Array.fold_left Float.max 0. replied -. sent.(0) in
  let e2e =
    [
      ("throughput_rps", float_of_int n /. duration, "1/s");
      ("admit_rtt_p50_ms", median admit_rtt *. 1e3, "ms");
      ("setup_s", median setup, "s");
      ("rss_peak_mb", rss_mb, "MB");
      ("wal_bytes_per_req", float_of_int wal_bytes /. float_of_int n, "bytes");
      ("admit_ratio", float_of_int admitted /. float_of_int (max 1 (admitted + rejected)), "ratio");
    ]
  in
  (* Served-side layer figures, from the scrape. *)
  let daemon_rtt_us = hist_mean scrape "server/rtt_s" *. 1e6 in
  let queue_wait_us = hist_mean scrape "server/queue_wait_s" *. 1e6 in
  let fsync_us = hist_mean scrape "server/fsync_s" *. 1e6 in
  let fsyncs = float_of_int (hist_count scrape "server/fsync_s") in
  let served_reqs =
    List.fold_left (fun acc v -> acc +. value scrape ("server/requests." ^ v)) 0.
      [ "admit"; "release"; "join" ]
  in
  let batch = served_reqs /. Float.max 1. fsyncs in
  let client_send_rtt_us = mean (Array.mapi (fun i r -> r -. sent.(i)) replied) *. 1e6 in
  let served =
    [
      ("daemon.rtt_us", daemon_rtt_us, "us");
      ("daemon.queue_wait_us", queue_wait_us, "us");
      ("daemon.fsync_us", fsync_us, "us");
      ("daemon.batch_reqs", batch, "count");
      ("daemon.minor_words_per_req", value scrape "runtime/minor_words" /. float_of_int n, "words");
      ("daemon.major_gcs", value scrape "runtime/major_collections", "count");
      ("client.socket_us", client_send_rtt_us -. daemon_rtt_us, "us");
      ("client.late_p99_ms", late_p99_ms, "ms");
      ("client.admit_decided_p50_ms", median admit_decided *. 1e3, "ms");
      ("client.admit_rtt_p99_ms", quantile admit_rtt 0.99 *. 1e3, "ms");
      ("client.admit_decided_p99_ms", quantile admit_decided 0.99 *. 1e3, "ms");
    ]
  in
  let layers =
    if not trace then served
    else begin
      let replay_dir = Filename.concat here "replay" in
      State_dir.fresh replay_dir;
      let spans = Filename.concat work_root (Printf.sprintf "spans-%s.rotb" w.name) in
      let replay_batch = max 1 (int_of_float (Float.round batch)) in
      let r = ok_or "replay" (Replay.run ~dir:replay_dir ~spans ~batch:replay_batch lines) in
      check "replay digest = served digest" (String.equal r.Replay.digest served_digest);
      check "replay WAL recovers to the replay digest"
        (String.equal r.Replay.recovered.Wal.digest r.Replay.digest);
      check "replay WAL recovery: 0 diverged" (r.Replay.recovered.Wal.diverged = 0);
      check "replay watchdog: 0 diverged" (r.Replay.audit_diverged = 0);
      check "span file validates" (Trace_reader.valid (Trace_reader.validate_file spans));
      note "spans: %s (replayed in batches of %d)" spans replay_batch;
      let traced = Replay.metrics r in
      let us name =
        Option.value ~default:nan
          (List.find_map (fun (k, v, _) -> if k = name then Some v else None) traced)
      in
      (* The daemon's rtt window (parse to reply queued, less queue
         wait) as the traced layers explain it: parse, processing, and
         the served run's own fsyncs spread over its requests (replayed
         fsyncs run back to back and are faster).  Batch-mates'
         processing is not modelled, so the remainder is only a CPU
         residue where batches hold about one request (steady-mixed). *)
      let explained =
        List.fold_left (fun acc k -> acc +. us k) 0.
          [ "wire.parse_us"; "replica.apply_us"; "telemetry.admit_slack_us";
            "wal.append_us"; "audit.observe_us"; "flight.record_us" ]
        +. (fsync_us *. fsyncs /. float_of_int n)
      in
      traced @ served
      @ [ ("daemon.unattributed_us", daemon_rtt_us -. queue_wait_us -. explained, "us") ]
    end
  in
  State_dir.remove here;
  { attempted = n; failed = failed + shed; checks = List.rev !checks; e2e; layers;
    notes = List.rev !notes }

(* --- reference drift ------------------------------------------------------ *)

(* servebench/reference.json: the accepted runs' medians per workload
   and metric, and the spin anchor of the machine they ran on.  Timing
   metrics are rescaled by the anchor ratio before the drift is taken,
   so a uniformly slower machine does not read as a regression. *)
type reference = { ref_spin : float; medians : (string * float) list }

let load_reference workload =
  match In_channel.with_open_bin reference_path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
      match Json.parse text with
      | Error _ -> None
      | Ok j -> (
          let spin = Option.bind (Json.member "spin_ns_per_iter" j) (fun v -> Result.to_option (Json.to_float v)) in
          let medians = Option.bind (Json.member "workloads" j) (Json.member workload) in
          match (spin, medians) with
          | Some ref_spin, Some (Json.Obj fields) ->
              Some
                {
                  ref_spin;
                  medians =
                    List.filter_map
                      (fun (k, v) -> Option.map (fun x -> (k, x)) (Result.to_option (Json.to_float v)))
                      fields;
                }
          | _ -> None))

(* Speed-proportional units: a machine [k] times slower reads times [k]
   times longer and rates [k] times lower. *)
let rescale ~ratio unit v =
  match unit with
  | "us" | "ms" | "s" -> v /. ratio
  | "1/s" -> v *. ratio
  | _ -> v

let print_table ~spin reference title rows =
  Printf.printf "%s\n" title;
  Printf.printf "  %-34s %14s %-6s %14s %9s %9s\n" "metric" "value" "unit" "reference" "drift" "rescaled";
  List.iter
    (fun (name, v, unit) ->
      match Option.bind reference (fun r -> Option.map (fun x -> (r, x)) (List.assoc_opt name r.medians)) with
      | Some (r, x) when x <> 0. ->
          let ratio = spin /. r.ref_spin in
          Printf.printf "  %-34s %14.4f %-6s %14.4f %+8.1f%% %+8.1f%%\n" name v unit x
            (((v /. x) -. 1.) *. 100.)
            (((rescale ~ratio unit v /. x) -. 1.) *. 100.)
      | _ -> Printf.printf "  %-34s %14.4f %-6s %14s\n" name v unit "-")
    rows

(* --- entry point ------------------------------------------------------------ *)

let usage =
  "usage: main.exe --workload (steady-mixed|burst-reject|pileup-admit) --seed N \
   [--seconds S] [--trace 0|1]"

let parse_args args =
  let rec go acc = function
    | [] -> Ok acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((flag, v) :: acc) rest
    | arg :: _ -> Error ("unexpected argument " ^ arg)
  in
  let ( let* ) = Result.bind in
  let* kv = go [] args in
  let get f = List.assoc_opt f kv in
  let* () =
    match List.find_opt (fun (f, _) -> not (List.mem f [ "--workload"; "--seed"; "--seconds"; "--trace" ])) kv with
    | Some (f, _) -> Error ("unknown flag " ^ f)
    | None -> Ok ()
  in
  let* w =
    match Option.map Workload.find (get "--workload") with
    | Some (Some w) -> Ok w
    | _ -> Error "--workload: expected one of steady-mixed, burst-reject, pileup-admit"
  in
  let* seed = Option.to_result ~none:"--seed: expected an integer" (Option.bind (get "--seed") int_of_string_opt) in
  let* seconds =
    match get "--seconds" with
    | None -> Ok Workload.reference_seconds
    | Some s -> (
        match float_of_string_opt s with
        | Some x when x > 0. -> Ok x
        | _ -> Error "--seconds: expected a positive number")
  in
  let* trace =
    match get "--trace" with
    | None | Some "0" -> Ok false
    | Some "1" -> Ok true
    | Some _ -> Error "--trace: expected 0 or 1"
  in
  Ok (w, seed, seconds, trace)

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
                metrics) );
       ])

let main args =
  match parse_args args with
  | Error m ->
      prerr_endline m;
      prerr_endline usage;
      2
  | Ok (w, seed, seconds, trace) -> (
      (* Die through [exit], so the daemon children are killed too. *)
      List.iter
        (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
        [ Sys.sigterm; Sys.sigint; Sys.sighup ];
      let spin = spin_ns_per_iter () in
      match bench w ~seed ~seconds ~trace with
      | exception e ->
          let m = match e with Failure m -> m | e -> Printexc.to_string e in
          Printf.eprintf "servebench %s seed %d: %s\n" w.Workload.name seed m;
          1
      | r ->
          let reference = load_reference w.Workload.name in
          Printf.printf "servebench %s seed %d (%g s, trace %d)\n" w.Workload.name seed seconds
            (Bool.to_int trace);
          Printf.printf "machine anchor: spin_ns_per_iter=%.4f%s\n" spin
            (match reference with
            | Some r -> Printf.sprintf " (reference %.4f)" r.ref_spin
            | None -> " (no reference)");
          List.iter (Printf.printf "%s\n") r.notes;
          print_table ~spin reference "end to end" r.e2e;
          print_table ~spin reference "per layer" r.layers;
          List.iter
            (fun c -> Printf.printf "check %-44s %s\n" c.what (if c.ok then "ok" else "FAILED"))
            r.checks;
          let metrics = List.filter (fun (_, v, _) -> Float.is_finite v) (if trace then r.layers else r.e2e) in
          let complete = List.length metrics = List.length (if trace then r.layers else r.e2e) in
          let correct = complete && List.for_all (fun c -> c.ok) r.checks in
          print_endline (result_line ~correct ~attempted:r.attempted ~failed:r.failed metrics);
          if correct then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | [ _; flag; dir; socket ] when String.equal flag Daemon_proc.child_flag ->
      Daemon_proc.serve_child ~dir ~socket
  | _ :: args -> exit (main args)
  | [] -> exit 2
