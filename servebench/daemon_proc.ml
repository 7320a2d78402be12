(* The daemon under test, as a child process.

   The child is this same executable re-run in its daemon mode
   ({!serve_child}), so it calls [Rota_server.Daemon.run] with the
   shipping [Daemon.config] defaults and its heap and resident set are
   the daemon's alone — a plain fork would inherit the bench's request
   arrays and count them in the daemon's VmHWM and GC work. *)

module Daemon = Rota_server.Daemon
module Wal = Rota_server.Wal
module Admission = Rota_scheduler.Admission
module Json = Rota_obs.Json

let child_flag = "--serve-child"

type recovery = {
  scanned : int;
  replayed : int;
  verified : int;
  diverged : int;
  from_snapshot : bool;
  digest : string;
}

let recovery_to_line (r : Wal.recovery) =
  Json.to_string
    (Json.Obj
       [
         ("scanned", Json.Int r.Wal.scanned);
         ("replayed", Json.Int r.Wal.replayed);
         ("verified", Json.Int r.Wal.verified);
         ("diverged", Json.Int r.Wal.diverged);
         ("from_snapshot", Json.Bool r.Wal.from_snapshot);
         ("digest", Json.String r.Wal.digest);
       ])

let recovery_of_line line =
  let ( let* ) = Result.bind in
  let* j = Json.parse line in
  let int k = Result.bind (Option.to_result ~none:k (Json.member k j)) Json.to_int in
  let* scanned = int "scanned" in
  let* replayed = int "replayed" in
  let* verified = int "verified" in
  let* diverged = int "diverged" in
  let* digest =
    Result.bind (Option.to_result ~none:"digest" (Json.member "digest" j)) Json.to_str
  in
  let from_snapshot = Json.member "from_snapshot" j = Some (Json.Bool true) in
  Ok { scanned; replayed; verified; diverged; from_snapshot; digest }

(* Daemon mode: serve [dir] on [socket]; announce readiness (the
   recovery summary, one line) on stdout, which the parent reads. *)
let serve_child ~dir ~socket =
  let cfg = Daemon.config ~dir ~address:(Daemon.Unix_socket socket) Admission.Rota in
  let on_ready r =
    print_endline (recovery_to_line r);
    flush stdout
  in
  match Daemon.run ~on_ready cfg with
  | Ok () -> exit 0
  | Error m ->
      prerr_endline ("servebench daemon: " ^ m);
      exit 1

type t = { pid : int; ready_s : float; recovery : recovery }

(* Children still running; killed and reaped at exit whatever happens. *)
let live = ref []

let reap pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  let status = go () in
  live := List.filter (( <> ) pid) !live;
  status

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap pid))
        !live)

(* Read one line from [fd] before the wall time [deadline]; [None] on
   EOF or timeout. *)
let read_line fd ~deadline =
  let buf = Buffer.create 256 and byte = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then None
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> None
      | _ -> (
          match Unix.read fd byte 0 1 with
          | 0 -> None
          | _ when Bytes.get byte 0 = '\n' -> Some (Buffer.contents buf)
          | _ ->
              Buffer.add_char buf (Bytes.get byte 0);
              go ())
  in
  go ()

(* Start a daemon on [dir] and wait until it listens.  [ready_s] is the
   fork-to-listening time: WAL recovery plus the full re-audit. *)
let spawn ~dir ~socket ~deadline =
  let r, w = Unix.pipe ~cloexec:true () in
  flush_all ();
  let t0 = Unix.gettimeofday () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe [| exe; child_flag; dir; socket |] Unix.stdin w Unix.stderr
  in
  live := pid :: !live;
  Unix.close w;
  let line = read_line r ~deadline in
  let ready_s = Unix.gettimeofday () -. t0 in
  Unix.close r;
  match Option.map recovery_of_line line with
  | Some (Ok recovery) -> Ok { pid; ready_s; recovery }
  | Some (Error m) -> Error ("daemon ready line: " ^ m)
  | None -> Error "daemon exited or timed out before listening"

let kill9 t =
  Unix.kill t.pid Sys.sigkill;
  ignore (reap t.pid)

(* Graceful drain; [true] when the daemon exited 0 before [deadline]
   (past it, the daemon is killed). *)
let terminate t ~deadline =
  Unix.kill t.pid Sys.sigterm;
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        kill9 t;
        false
    | _, status ->
        live := List.filter (( <> ) t.pid) !live;
        status = Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ()

(* Peak resident set (VmHWM) of a live child, in MB. *)
let vm_hwm_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
        | _ -> go ()
        | exception End_of_file -> None
      in
      go ())
