(** Deadline-aware load shedding for the serve daemon's request queue.

    The daemon admits work into a bounded FIFO; this module decides,
    purely from queue arithmetic, when a request should be rejected fast
    instead.  The policy is the paper's admission story turned on the
    daemon itself: a decision that would arrive after its latency budget
    is worthless, so refuse it while refusing is still cheap.

    Two checkpoints, both against the request's budget (its own
    [budget_ms] if given, else the server default):

    - {b enqueue}: shed when the queue is full, or when the predicted
      queue delay — queued requests ahead times the EWMA decide-latency
      estimate — already exceeds the budget.  This bounds queue growth
      under sustained overload regardless of how fast clients push.
    - {b dequeue}: shed when the request has {e actually} waited longer
      than its budget by the time a decider picks it up.  This is the
      backstop that keeps the p99 of {e accepted} requests bounded even
      when the estimate lags a latency spike.

    All state is a scalar estimate; the module never blocks and holds no
    references to requests. *)

type t

val create :
  ?alpha:float -> ?default_budget_s:float -> ?max_queue:int -> unit -> t
(** [alpha] is the EWMA gain on new decide-latency samples (default
    [0.1]); [default_budget_s] applies to requests that carry no budget
    of their own (default [0.25]); [max_queue] caps outstanding requests
    (default [512]). *)

val observe : t -> float -> unit
(** [observe t decide_s] folds one measured decide latency (seconds,
    queue wait excluded) into the estimate. *)

val estimate_s : t -> float
(** Current decide-latency estimate, seconds.  Before any sample, a
    deliberately pessimistic seed so a cold daemon under instant
    overload still sheds. *)

val max_queue : t -> int

type verdict = Accept | Reject of { slug : string; message : string }
(** [Reject] carries both tellings of the refusal: [message] is the
    human-readable reason the wire response reports, [slug] the stable
    overload taxonomy the [server/shed.<slug>] counters and the
    {!Rota_obs.Events.Shed} telemetry event are keyed by —
    ["queue-full"], ["predicted-delay"], or ["budget-spent"]. *)

val on_enqueue : t -> queue_len:int -> budget_ms:float option -> verdict
(** Called with the queue length {e before} insertion. *)

val on_dequeue : t -> waited_s:float -> budget_ms:float option -> verdict
