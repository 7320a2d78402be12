(** The serve daemon's request pipeline: everything between a request
    line and its reply line, with no socket I/O.

    A pipeline owns the {!Replica}, the {!Wal} writer, the {!Shed}der,
    the request queue, the per-outcome counters and the observability
    plane (watchdog, flight ring, SLO windows).  {!Daemon.run} feeds it
    the lines it reads and writes out the replies it returns; tests feed
    it lines directly.

    The pipeline is polymorphic in the connection handle ['c], which it
    only carries: each reply comes back paired with the handle its
    request was submitted with, and the handles of one connection get
    their replies in submission order.

    Request lifecycle: {!submit} mints the correlation id, parses the
    line and checks shedding at enqueue; every line — parse errors and
    enqueue sheds included — takes its place in one FIFO.  {!step}
    decides up to [batch_size] queued items through {!Replica.apply},
    appends their records to the WAL, fsyncs once (group commit), and
    only then returns the batch's replies.  No reply precedes its
    record's fsync, so every acknowledged transition survives a crash. *)

type 'c t

val create :
  dir:string ->
  snapshot_every:int ->
  max_queue:int ->
  default_budget_ms:float ->
  telemetry:bool ->
  slo_budget:float ->
  flight_capacity:int ->
  Wal.recovery ->
  'c t
(** Serve on from a recovered state directory.  With [telemetry], the
    pipeline records spans, feeds a {!Rota_audit.Watchdog} and the SLO
    windows, and keeps a [flight_capacity]-event {!Rota_obs.Flight}
    ring. *)

val submit : 'c t -> 'c -> string -> unit
(** Queue one request line (newline stripped) from a connection. *)

val refuse : 'c t -> 'c -> string -> unit
(** Queue a [Failed] reply with this message, in the connection's
    request order — the answer to a line the caller will not submit
    (one past the daemon's length cap). *)

val step : 'c t -> ('c * string) list
(** Decide up to 64 queued items, fsync once if any was logged, and
    return their replies in queue order, each a newline-terminated wire
    line.  A snapshot that has fallen due is taken first, after the
    previous batch's replies have been handed out. *)

val queued : 'c t -> int
(** Items waiting for {!step}. *)

val draining : 'c t -> bool
(** A [shutdown] request has been decided. *)

val set_connections : 'c t -> int -> unit
(** The number of open connections, as reported by the [stats] query
    and the [server/connections] gauge. *)

val close : 'c t -> unit
(** Sync and close the WAL, then snapshot its end. *)

val dump_flight : 'c t -> string -> unit
(** Dump the flight ring to [<dir>/flight-<pid>.rotb] with the reason
    on stderr (no-op without telemetry). *)

val flight_dumped : 'c t -> bool
(** Whether any dump — SIGQUIT, audit divergence, shed storm — has been
    written. *)
