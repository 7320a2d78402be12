(** OpenMetrics / Prometheus text exposition of the metrics registry —
    the scrape surface a [rota serve] endpoint (or a file-based scraper)
    reads.

    Registry names map into the OpenMetrics alphabet mechanically: the
    trailing [".slug"] of a name becomes a [slug="..."] label (the same
    per-policy / per-reason taxonomy the counters already use, so
    ["admission/decision_s.rota"] renders as
    [admission_decision_s_bucket{slug="rota",le="..."}]), every other
    character outside [[a-zA-Z0-9_:]] becomes ['_'], counters gain the
    [_total] suffix, and histograms render their cumulative buckets plus
    [_sum]/[_count].  Output always ends with the [# EOF] terminator.

    If two registry series of different metric types collapse onto the
    same family name, the later one is renamed with its type appended
    ([x] and gauge [x] → [x] and [x_gauge]) so a family is never
    declared twice. *)

val render : Metrics.view -> string
(** Render a registry snapshot: counters and gauges at their current
    values, histograms with cumulative buckets ([+Inf] == [_count]).
    An empty registry renders as just ["# EOF\n"]. *)

val render_events : Events.t list -> string
(** Reconstruct a scrape from a finished trace: the last
    [metric-sample] per series (typed by its [family] tag; untagged
    samples from older traces render as gauges) and the last
    [hist-sample] per histogram.  The trace does not carry bucket
    boundaries, so histograms come back as OpenMetrics {e summaries}
    (quantile labels) rather than bucketed histograms. *)

val write_file : string -> string -> unit
(** [write_file path contents] writes atomically ([path ^ ".tmp"] then
    rename), so a concurrent scraper never reads a half-written file. *)

val snapshot_sink : ?every:int -> string -> Sink.t
(** A sink that rewrites [path] with a fresh registry snapshot every
    [every] events it observes (default 1000, clamped to ≥ 1) and once
    more on close — tee it after the trace sink to get a periodically
    refreshed scrape file during a run.  The events themselves are only
    counted, never written. *)

val lint : string -> (unit, string) result
(** Validate rendered text: line grammar (names, label escaping,
    values), a single [# TYPE] per family, the [# EOF] terminator, and
    the histogram laws scrapers rely on — cumulative bucket counts
    never decrease, and the [le="+Inf"] bucket exists and equals
    [_count], per label set.  Returns the first violation found. *)
