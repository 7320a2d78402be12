(* The load generator: one non-blocking Unix-socket connection, replies
   matched to requests by position (the daemon answers in order).

   Every request's times are kept, so percentiles are exact.  A request
   is due at its scheduled send time in the open loop, and when a
   pipeline slot freed up in the closed loop; [sent] is when the
   generator actually handed the line to the kernel. *)

module Wire = Rota_server.Wire

type outcome = Admit | Reject | Shed | Failed | Other

type result = {
  outcomes : outcome array;
  cids : string array;  (** The daemon's correlation id of each reply. *)
  due : float array;  (** Wall-clock times, seconds. *)
  sent : float array;
  replied : float array;
}

let classify = function
  | Wire.Decided { action = "admit"; _ } -> Admit
  | Wire.Decided _ -> Reject
  | Wire.Shed _ -> Shed
  | Wire.Failed _ -> Failed
  | _ -> Other

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Unix.set_nonblock fd;
  fd

let retry_eintr f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> f ()

(* Write as much of [out] as the socket accepts; keep the rest. *)
let flush_out fd out =
  let rec go () =
    if Buffer.length out > 0 then begin
      let s = Buffer.contents out in
      match Unix.write_substring fd s 0 (String.length s) with
      | n ->
          Buffer.clear out;
          Buffer.add_substring out s n (String.length s - n);
          if n > 0 then go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    end
  in
  go ()

(* Complete lines out of [inbuf], in order; the unterminated rest stays. *)
let take_lines inbuf =
  let s = Buffer.contents inbuf in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
    | None ->
        Buffer.clear inbuf;
        Buffer.add_substring inbuf s start (String.length s - start);
        List.rev acc
  in
  go 0 []

let chunk = Bytes.create 65536

(* How long before a due time the open-loop generator stops sleeping. *)
let spin_s = 0.0005

type schedule = Open of float array | Closed of int

(* Drive [lines] through [fd].  [deadline] is an absolute wall time past
   which the run is abandoned. *)
let run fd ~lines ~schedule ~deadline =
  let n = Array.length lines in
  let outcomes = Array.make n Other
  and cids = Array.make n ""
  and due = Array.make n 0.
  and sent_at = Array.make n 0.
  and replied = Array.make n 0. in
  let out = Buffer.create 65536 in
  let inbuf = Buffer.create 65536 in
  let start = Unix.gettimeofday () in
  let sent = ref 0 and got = ref 0 in
  let last_reply = ref start in
  let send i now =
    Buffer.add_string out lines.(i);
    Buffer.add_char out '\n';
    sent_at.(i) <- now;
    incr sent
  in
  let error = ref None in
  let last_progress = ref start in
  while !error = None && !got < n do
    let now = Unix.gettimeofday () in
    (match schedule with
    | Open offsets ->
        while !sent < n && start +. offsets.(!sent) <= now do
          due.(!sent) <- start +. offsets.(!sent);
          send !sent now
        done
    | Closed depth ->
        while !sent < n && !sent - !got < depth do
          (* Slot freed by the reply that arrived last (or the start). *)
          due.(!sent) <- (if !sent < depth then start else !last_reply);
          send !sent now
        done);
    flush_out fd out;
    let timeout =
      match schedule with
      | Open offsets when !sent < n ->
          (* Sleep until shortly before the next due time, then poll:
             a timer wake-up alone would make the generator late by the
             host's wake-up latency, which varies from run to run. *)
          let wait = start +. offsets.(!sent) -. now in
          if wait > spin_s then Float.min 0.5 (wait -. spin_s) else 0.
      | _ -> 0.5
    in
    let writes = if Buffer.length out > 0 then [ fd ] else [] in
    let readable, _, _ =
      try Unix.select [ fd ] writes [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if readable <> [] then begin
      match retry_eintr (fun () -> Unix.read fd chunk 0 (Bytes.length chunk)) with
      | 0 -> error := Some (Printf.sprintf "daemon closed the connection after %d replies" !got)
      | k ->
          let now = Unix.gettimeofday () in
          Buffer.add_subbytes inbuf chunk 0 k;
          List.iter
            (fun line ->
              if !got >= !sent then error := Some "reply without a request"
              else begin
                (match Wire.response_of_line line with
                | Ok { Wire.reply; cid; _ } ->
                    outcomes.(!got) <- classify reply;
                    cids.(!got) <- Option.value cid ~default:""
                | Error m -> error := Some ("bad reply: " ^ m));
                replied.(!got) <- now;
                incr got
              end)
            (take_lines inbuf);
          last_reply := now;
          last_progress := now
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) -> error := Some (Unix.error_message e)
    end;
    let now = Unix.gettimeofday () in
    if !error = None then
      if now > deadline then error := Some (Printf.sprintf "run deadline hit after %d replies" !got)
      else if now -. !last_progress > 30. && !sent > !got then
        error := Some (Printf.sprintf "no reply for 30 s with %d outstanding" (!sent - !got))
  done;
  match !error with
  | Some m -> Error m
  | None ->
      Ok { outcomes; cids; due; sent = sent_at; replied }

(* One request, one reply, on an otherwise idle connection. *)
let call fd ~deadline (op : Wire.op) =
  let line = Wire.request_to_line { Wire.tag = Rota_obs.Json.Null; op } ^ "\n" in
  let out = Buffer.create 128 in
  Buffer.add_string out line;
  let inbuf = Buffer.create 4096 in
  let rec go () =
    flush_out fd out;
    if Unix.gettimeofday () > deadline then Error "no reply before the run's deadline"
    else
      let writes = if Buffer.length out > 0 then [ fd ] else [] in
      match Unix.select [ fd ] writes [] 0.5 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | [], _, _ -> go ()
      | _ -> (
          match retry_eintr (fun () -> Unix.read fd chunk 0 (Bytes.length chunk)) with
          | 0 -> Error "daemon closed the connection"
          | k -> (
              Buffer.add_subbytes inbuf chunk 0 k;
              match take_lines inbuf with
              | [] -> go ()
              | l :: _ ->
                  Result.map (fun (r : Wire.response) -> r.Wire.reply) (Wire.response_of_line l))
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> go ())
  in
  go ()

let residual_digest fd ~deadline =
  match call fd ~deadline (Wire.Query "residual-digest") with
  | Ok (Wire.Info fields) -> (
      match List.assoc_opt "digest" fields with
      | Some (Rota_obs.Json.String d) -> Ok d
      | _ -> Error "residual-digest reply without a digest")
  | Ok _ -> Error "unexpected reply to residual-digest"
  | Error m -> Error m
