open Import

(** The [rota serve] daemon: a single-threaded [select] loop serving the
    {!Wire} protocol over a Unix or TCP socket.

    The loop holds only sockets: it accepts, reads and splits request
    lines (each at most {!max_line_bytes}), hands them to a {!Pipeline},
    writes the replies the pipeline returns, handles signals and runs
    the drain.  Everything between a line and its reply — parsing,
    {!Shed} overload protection, deciding through {!Replica.apply},
    {!Wal} group commit, and the observability plane — is the
    pipeline's.  No reply precedes its record's fsync, so every
    acknowledged transition survives a crash.

    Backpressure: when the queue holds [max_queue] requests the loop
    stops [select]ing client descriptors readable (and the listener
    acceptable), so overload is pushed back into kernel buffers and
    client connect queues instead of process memory.  A connection with
    more than {!max_unsent_bytes} of replies it has not read is not read
    either, until they drain.

    Observability (unless [telemetry = false]): every request carries a
    correlation id ([r<pid>-<n>], echoed in the reply [cid] field — and
    as the [tag] for untagged requests — and stamped into the WAL
    decision record) and a [server/request] span with
    parse/queue-wait/decide/encode children; the {!Telemetry} families
    fill in as traffic flows; a {!Rota_audit.Watchdog} re-verifies every
    WAL event and feeds the deadline-assurance {!Rota_obs.Slo} windows
    behind the [slo/burn_*] gauges; and a {!Rota_obs.Flight} ring keeps
    the last [flight_capacity] events in memory, dumped to
    [<dir>/flight-<pid>.rotb] on SIGQUIT, the first audit divergence, a
    shed storm, or a fatal exception.  The wire verb {!Wire.Metrics} is
    the one scrape path: it answers the OpenMetrics exposition and the
    same registry as sample events ([rota metrics scrape], [rota top
    --connect]).

    Shutdown: SIGTERM/SIGINT (or a {!Wire.Shutdown} request) drains —
    stop accepting and reading, decide everything queued, flush
    responses, fsync, snapshot, exit cleanly.  A connection that takes
    no reply bytes for {!drain_grace_s} once nothing is left to decide
    is closed, so a client that never reads cannot hold the drain up.
    SIGQUIT dumps the flight recorder first, then drains. *)

type address = Unix_socket of string | Tcp of string * int

val connect : address -> Unix.file_descr
(** A blocking client connection to a daemon's address ([rota load],
    [rota metrics scrape], [rota top --connect]). *)

val max_line_bytes : int
(** Longest request line a connection may send: 1 MiB.  A longer one,
    terminated or not, gets one [Failed] reply after the replies the
    connection is already owed, and then the connection closes. *)

val max_unsent_bytes : int
(** Unsent reply bytes past which a connection is not read: 1 MiB.  A
    client that pipelines without reading its replies is pushed back
    into its own socket buffer instead of growing the daemon. *)

val drain_grace_s : float
(** How long a draining daemon, with nothing left to decide, waits for
    a connection to take any reply bytes before closing it: 1 s. *)

type config = {
  dir : string;  (** WAL + snapshot directory (created if missing). *)
  address : address;
  policy : Admission.policy;
  cost_model : Cost_model.t option;
  max_queue : int;
  default_budget_ms : float;
  snapshot_every : int;  (** Decided requests between snapshots. *)
  max_connections : int;
  telemetry : bool;
      (** [false] switches the whole observability plane off: no metric
          recording, no spans, no watchdog, no flight recorder.  The
          bench's overhead pair flips exactly this. *)
  slo_budget : float;
      (** Fraction of requests allowed to miss (shed, or decided then
          contradicted by the live audit) before the burn rate exceeds
          1.0. *)
  flight_capacity : int;  (** Flight-recorder ring size, in events. *)
}

val config :
  ?max_queue:int ->
  ?default_budget_ms:float ->
  ?snapshot_every:int ->
  ?max_connections:int ->
  ?telemetry:bool ->
  ?slo_budget:float ->
  ?flight_capacity:int ->
  ?cost_model:Cost_model.t ->
  dir:string ->
  address:address ->
  Admission.policy ->
  config
(** Defaults: [max_queue = 512], [default_budget_ms = 250.],
    [snapshot_every = 512], [max_connections = 64], telemetry on,
    [slo_budget = 0.01] (99% of requests), [flight_capacity = 4096]. *)

val run : ?on_ready:(Wal.recovery -> unit) -> config -> (unit, string) result
(** Recover (or create) the WAL, bind, serve until drained.  [on_ready]
    fires once the socket is listening, with the recovery summary —
    the CLI prints its "listening" line from it, and smoke tests key on
    that line to know the daemon is up. *)
