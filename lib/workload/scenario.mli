open Import

(** Named experiment scenarios.

    Bundles the generators of {!Gen} into the parameterized environments
    the experiment suite (EXPERIMENTS.md) and the benchmarks run on. *)

type params = {
  seed : int;
  locations : int;
  horizon : Time.t;
  arrivals : int;  (** Number of computations offered. *)
  actors : int * int;  (** Actors per computation (range). *)
  actions : int * int;  (** Actions per actor (range). *)
  slack : float;  (** Deadline looseness; 1.0 = just feasible alone. *)
  cpu_rate : int;  (** Steady CPU rate per node. *)
  net_rate : int;  (** Steady rate per directed link. *)
  churn_joins : int;  (** Number of transient resource joins. *)
  churn_rate : int * int;
  churn_duration : int * int;
}

val default_params : params
(** A moderate open system: 3 nodes, horizon 200, 30 arrivals, slack 2.0,
    steady rates 4/4, 10 churn joins.  Override fields as needed. *)

val with_load : params -> float -> params
(** Scales the number of arrivals by a load factor (at least one arrival). *)

val capacity_of : params -> Resource_set.t
(** The steady capacity of the scenario (excluding churn). *)

val trace : params -> Trace.t
(** The full open-system trace: steady capacity joining at time 0, churn
    joins, and computations arriving at uniform-random instants, each with
    a deadline derived from its size and the scenario's slack. *)

val computations : params -> Computation.t list
(** Just the computations of {!trace}, in arrival order. *)

val trace_with_sessions : params -> sessions:int -> Trace.t
(** {!trace} plus [sessions] random interacting-actor sessions arriving at
    random instants (see [Gen.random_session]). *)

val pooled :
  seed:int ->
  pools:int ->
  per_pool:int ->
  horizon:Time.t ->
  Resource_set.t * (int * Computation.t) list
(** The CyberOrgs-style scoping scenario (experiment E7): [pools]
    disjoint single-node resource encapsulations and, for each, [per_pool]
    computations confined to that pool's node.  Returns the global
    capacity (union of all pools) and the computations tagged with their
    pool index.  Reasoning about a computation only needs its own pool's
    slice; E7 measures how much that scoping saves. *)

val pool_capacity :
  seed:int -> pools:int -> horizon:Time.t -> int -> Resource_set.t
(** The capacity slice of one pool of the {!pooled} scenario. *)

val fault_plan : ?fault_seed:int -> ?intensity:float -> params -> Fault.plan
(** A deterministic fault plan for the scenario [trace p] generates:
    {!Gen.random_faults} seeded from [p.seed + 1009 + fault_seed] (so the
    plan varies under [fault_seed] without disturbing the workload),
    targeting the scenario's computation ids with slowdowns.  [intensity]
    (default [0.5]) scales the number of fault events; [<= 0.] is the
    empty plan. *)
