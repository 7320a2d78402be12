(** Process-global metrics registry: named counters, gauges, and
    fixed-bucket histograms.

    Instrumented code registers its handles once (usually at module
    initialisation) and then calls {!incr} / {!observe} on the hot path.
    Recording is {e off} by default: every mutation first reads one
    global flag and returns immediately when disabled, so instrumenting
    a hot path costs a single load-and-branch until somebody turns the
    registry on ([--metrics] in the CLI, or {!set_enabled} in code).

    Handles are interned by name — [counter "x"] called twice returns
    the same cell — so libraries and their callers can share a series
    without coordinating. *)

val set_enabled : bool -> unit
(** Turn recording on or off.  Registration is always allowed. *)

val enabled : unit -> bool
(** Whether mutations currently record.  Hot paths that want to avoid
    even a closure allocation can branch on this themselves. *)

(** {1 Counters} — monotonically increasing integers. *)

type counter

val counter : string -> counter
(** Find or create the counter named [name]. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} — instantaneous integer levels (queue depths, live sets). *)

type gauge

val gauge : string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int

(** {1 Histograms} — fixed upper-bound buckets plus an overflow bucket,
    with sum/min/max tracked exactly and quantiles estimated by linear
    interpolation inside the covering bucket. *)

type histogram

val histogram : ?buckets:float array -> string -> histogram
(** Find or create.  [buckets] must be strictly ascending.  Raises
    [Invalid_argument] on an empty or unsorted bucket array, and also
    when [name] already exists and [buckets] is given but differs from
    the registered array — a silent mismatch would drop the caller's
    buckets and skew every later observation.  Omitting [buckets] always
    finds an existing histogram regardless of how it was bucketed. *)

val observe : histogram -> float -> unit

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk, observing its wall-clock duration in seconds.  When
    recording is disabled this is exactly the thunk call. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float
val hist_mean : histogram -> float
(** 0 when empty. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0,1]: the estimated value below which a
    [q] fraction of observations fall.  Within a bucket the estimate
    interpolates linearly from the bucket's lower to upper bound, so a
    quantile landing exactly on a cumulative-count boundary returns the
    bucket's upper bound exactly.  Estimates are clamped to the observed
    min/max, and observations past the last bucket report the true
    maximum.  0 when empty. *)

(** {1 Registry} *)

type histogram_view = {
  hname : string;
  count : int;
  sum : float;
  mean : float;
  min_v : float;  (** 0 when empty *)
  max_v : float;  (** 0 when empty *)
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  bucket_counts : (float * int) list;
      (** Cumulative count per declared upper bound, ascending.  The
          implicit +Inf bucket is [count]; the overflow cell is the
          difference with the last listed entry. *)
}

type view = {
  counters : (string * int) list;  (** Sorted by name. *)
  gauges : (string * int) list;  (** Sorted by name. *)
  histograms : histogram_view list;  (** Sorted by name. *)
}

val snapshot : unit -> view
(** Current values of everything registered (including zeros). *)

val reset : unit -> unit
(** Zero every registered series (registrations and handles survive, and
    stay valid).  Does not change the enabled flag. *)
