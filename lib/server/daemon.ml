open Import

type address = Unix_socket of string | Tcp of string * int

type config = {
  dir : string;
  address : address;
  policy : Admission.policy;
  cost_model : Cost_model.t option;
  max_queue : int;
  default_budget_ms : float;
  snapshot_every : int;
  max_connections : int;
  telemetry : bool;
  slo_budget : float;
  flight_capacity : int;
}

let config ?(max_queue = 512) ?(default_budget_ms = 250.) ?(snapshot_every = 512)
    ?(max_connections = 64) ?(telemetry = true) ?(slo_budget = 0.01)
    ?(flight_capacity = 4096) ?cost_model ~dir ~address policy =
  {
    dir;
    address;
    policy;
    cost_model;
    max_queue;
    default_budget_ms;
    snapshot_every;
    max_connections;
    telemetry;
    slo_budget;
    flight_capacity;
  }

let max_line_bytes = 1 lsl 20
let max_unsent_bytes = 1 lsl 20
let drain_grace_s = 1.0

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (* the unterminated tail of the last read *)
  outq : string Queue.t;
  mutable out_off : int;  (* bytes of [Queue.peek outq] already written *)
  mutable unsent : int;  (* reply bytes in [outq] not yet written *)
  mutable owed : int;  (* lines submitted whose reply has not come back *)
  mutable stalled_since : float;
      (* draining: when the replies stopped moving; [0.] while they move *)
  mutable alive : bool;
  mutable refused : bool;
      (* sent an over-long line: read no more, close once answered *)
}

let stop_requested = ref false
let quit_requested = ref false

let install_signals () =
  let note _ = stop_requested := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle note);
  Sys.set_signal Sys.sigint (Sys.Signal_handle note);
  (* SIGQUIT = "tell me what you were doing": dump the flight recorder,
     then drain — the crash-investigation analogue of a core dump. *)
  Sys.set_signal Sys.sigquit (Sys.Signal_handle (fun _ -> quit_requested := true));
  (* Peer hangups surface as write errors, not process death. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let sockaddr = function
  | Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
  | Tcp (host, port) ->
      let addr =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> Unix.inet_addr_of_string host
      in
      (Unix.PF_INET, Unix.ADDR_INET (addr, port))

let connect address =
  let domain, addr = sockaddr address in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Unix.close fd;
     raise e);
  fd

let listen_on address =
  let domain, addr = sockaddr address in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match address with
  | Unix_socket path -> if Sys.file_exists path then Unix.unlink path
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd addr;
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  fd

(* One select round's worth of writing to a connection; partial writes
   keep their offset into the head chunk. *)
let write_some conn =
  try
    let progress = ref true in
    while !progress && not (Queue.is_empty conn.outq) do
      let chunk = Queue.peek conn.outq in
      let len = String.length chunk - conn.out_off in
      let n = Unix.write_substring conn.fd chunk conn.out_off len in
      conn.unsent <- conn.unsent - n;
      if n > 0 then conn.stalled_since <- 0.;
      if n = len then begin
        ignore (Queue.pop conn.outq);
        conn.out_off <- 0
      end
      else begin
        conn.out_off <- conn.out_off + n;
        progress := false
      end
    done;
    true
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      true
  | Unix.Unix_error _ -> false

let deliver (conn, line) =
  conn.owed <- conn.owed - 1;
  if conn.alive then begin
    Queue.add line conn.outq;
    conn.unsent <- conn.unsent + String.length line
  end

(* The socket loop: accept, read and split lines, hand them to the
   pipeline, write its replies, and drain on request. *)
let serve cfg pipeline listener =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let chunk = Bytes.create 8192 in
  let close_conn conn =
    if conn.alive then begin
      conn.alive <- false;
      Hashtbl.remove conns conn.fd;
      Pipeline.set_connections pipeline (Hashtbl.length conns);
      try Unix.close conn.fd with Unix.Unix_error _ -> ()
    end
  in
  let rec accept_all () =
    match Unix.accept listener with
    | fd, _ ->
        Unix.set_nonblock fd;
        Hashtbl.replace conns fd
          {
            fd;
            inbuf = Buffer.create 256;
            outq = Queue.create ();
            out_off = 0;
            unsent = 0;
            owed = 0;
            stalled_since = 0.;
            alive = true;
            refused = false;
          };
        Pipeline.set_connections pipeline (Hashtbl.length conns);
        accept_all ()
    | exception Unix.Unix_error _ -> ()
  in
  (* Only the fresh bytes are scanned: [inbuf] holds just the
     unterminated tail, never a newline, so splitting is linear in the
     bytes read.  A line past [max_line_bytes] gets one [Failed] reply,
     queued behind the connection's earlier requests, and then the
     connection closes. *)
  let feed conn n =
    let rec split start =
      let stop =
        match Bytes.index_from_opt chunk start '\n' with
        | Some i when i < n -> i
        | _ -> n
      in
      Buffer.add_subbytes conn.inbuf chunk start (stop - start);
      if Buffer.length conn.inbuf > max_line_bytes then begin
        conn.refused <- true;
        Buffer.reset conn.inbuf;
        conn.owed <- conn.owed + 1;
        Pipeline.refuse pipeline conn
          (Printf.sprintf "request line exceeds %d bytes" max_line_bytes)
      end
      else if stop < n then begin
        let line = String.trim (Buffer.contents conn.inbuf) in
        Buffer.clear conn.inbuf;
        if line <> "" then begin
          conn.owed <- conn.owed + 1;
          Pipeline.submit pipeline conn line
        end;
        split (stop + 1)
      end
    in
    split 0
  in
  let read conn =
    match Unix.read conn.fd chunk 0 (Bytes.length chunk) with
    | 0 -> close_conn conn
    | n -> feed conn n
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        ()
    | exception Unix.Unix_error _ -> close_conn conn
  in
  (* After a round's replies: flush what can be written, close refused
     connections once everything they were owed is out, and — while
     draining with nothing left to decide — close connections whose
     replies have not moved for [drain_grace_s]. *)
  let settle ~quiet =
    let now = if quiet then Unix.gettimeofday () else 0. in
    let finished =
      Hashtbl.fold
        (fun _ c acc ->
          if c.unsent > 0 && not (write_some c) then c :: acc
          else if c.refused && c.owed = 0 && c.unsent = 0 then c :: acc
          else if quiet && c.unsent > 0 then
            if c.stalled_since = 0. then begin
              c.stalled_since <- now;
              acc
            end
            else if now -. c.stalled_since >= drain_grace_s then c :: acc
            else acc
          else acc)
        conns []
    in
    List.iter close_conn finished
  in
  let rec loop () =
    if !quit_requested then begin
      quit_requested := false;
      Pipeline.dump_flight pipeline "sigquit";
      stop_requested := true
    end;
    let draining = !stop_requested || Pipeline.draining pipeline in
    (* Backpressure: a full queue stops all reading and accepting, so
       overload waits in kernel buffers and connect queues, not here. *)
    let reads =
      if draining || Pipeline.queued pipeline >= cfg.max_queue then []
      else
        Hashtbl.fold
          (fun fd c acc ->
            if c.refused || c.unsent > max_unsent_bytes then acc else fd :: acc)
          conns
          (if Hashtbl.length conns < cfg.max_connections then [ listener ]
           else [])
    in
    let writes =
      Hashtbl.fold (fun fd c acc -> if c.unsent > 0 then fd :: acc else acc) conns []
    in
    let timeout = if Pipeline.queued pipeline = 0 then 0.2 else 0. in
    let readable, _, _ =
      try Unix.select reads writes [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter
      (fun fd ->
        if fd == listener then accept_all ()
        else Option.iter read (Hashtbl.find_opt conns fd))
      readable;
    List.iter deliver (Pipeline.step pipeline);
    let draining = draining || Pipeline.draining pipeline in
    let quiet = draining && Pipeline.queued pipeline = 0 in
    settle ~quiet;
    if quiet && Hashtbl.fold (fun _ c ok -> ok && c.unsent = 0) conns true
    then begin
      Pipeline.close pipeline;
      Hashtbl.iter (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
      (try Unix.close listener with Unix.Unix_error _ -> ());
      match cfg.address with
      | Unix_socket path -> if Sys.file_exists path then Unix.unlink path
      | Tcp _ -> ()
    end
    else loop ()
  in
  loop ()

let run ?(on_ready = fun (_ : Wal.recovery) -> ()) cfg =
  if not (Sys.file_exists cfg.dir) then Unix.mkdir cfg.dir 0o755;
  (* The observability plane is on unless explicitly refused: a serving
     daemon that cannot answer "what are you doing" is flying blind. *)
  if cfg.telemetry then Metrics.set_enabled true;
  match
    Wal.recover ?cost_model:cfg.cost_model ~dir:cfg.dir ~policy:cfg.policy ()
  with
  | Error m -> Error ("recovery: " ^ m)
  | Ok recovery -> (
      install_signals ();
      stop_requested := false;
      quit_requested := false;
      match listen_on cfg.address with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "bind: %s" (Unix.error_message e))
      | listener -> (
          let pipeline =
            Pipeline.create ~dir:cfg.dir ~snapshot_every:cfg.snapshot_every
              ~max_queue:cfg.max_queue ~default_budget_ms:cfg.default_budget_ms
              ~telemetry:cfg.telemetry ~slo_budget:cfg.slo_budget
              ~flight_capacity:cfg.flight_capacity recovery
          in
          on_ready recovery;
          (* The first update only sets the baseline that each [metrics]
             scrape folds the allocation since serving began against. *)
          if cfg.telemetry then Runtime_sampler.update ();
          (* A daemon dying of an uncaught exception still leaves its
             last seconds on disk for the post-mortem. *)
          try Ok (serve cfg pipeline listener)
          with exn ->
            if not (Pipeline.flight_dumped pipeline) then
              Pipeline.dump_flight pipeline ("fatal: " ^ Printexc.to_string exn);
            raise exn))
