open Import

(** Resource requirements — the paper's [rho].

    A computation is represented by the resources it needs.  Three levels:

    - a {b simple} requirement [rho(gamma, s, d)]: the amounts a single
      actor action needs, anywhere within the window [(s, d)];
    - a {b complex} requirement [rho(Gamma, s, d)]: an ordered sequence of
      steps, each with its own amounts — the resources must arrive in
      order ("the right resources are required at the right time");
    - a {b concurrent} requirement [rho(Lambda, s, d)]: a bag of complex
      requirements sharing the window, one per independent actor.

    The function {!satisfied_simple} is the paper's boolean function [f];
    order-sensitive satisfaction of complex/concurrent requirements is
    decided by the theorem procedures in the core library
    ([Rota.Accommodation]), which also produce schedule certificates. *)

type amount = { ltype : Located_type.t; quantity : int }
(** [quantity] units of resource type [ltype]; quantities are positive
    (zero amounts — like the paper's [{0}] network charge for a local
    migrate — are dropped at construction). *)

val amount : Located_type.t -> int -> amount
(** Raises [Invalid_argument] on a negative quantity; zero amounts are
    legal inputs to the [make_*] builders below but are filtered there. *)

type simple = private { amounts : amount list; window : Interval.t }
(** The total amounts required within the window, normalized: types are
    distinct, sorted, quantities positive. *)

type step = amount list
(** One subcomputation's amounts. *)

type complex = private { steps : step list; window : Interval.t }
(** Ordered steps to be completed within the window.  Steps are normalized
    like simple amounts; steps that require nothing are dropped. *)

type concurrent = private { parts : complex list; window : Interval.t }
(** Independent actors' complex requirements over a common window. *)

val make_simple : amounts:amount list -> window:Interval.t -> simple
(** Aggregates duplicate types and drops zero quantities. *)

val make_complex : steps:step list -> window:Interval.t -> complex

val make_concurrent : parts:complex list -> window:Interval.t -> concurrent
(** The parts' own windows are overridden by the common window, mirroring
    the paper's [rho(Lambda,s,d) = U_i rho(Gamma_i, s, d)]. *)

val simple_of_complex : complex -> simple
(** Forgets ordering: the aggregate amounts over the whole window.  Used by
    the aggregate baseline (and as a necessary condition). *)

val complex_of_simple : simple -> complex
(** A one-step complex requirement. *)

val satisfied_simple : Resource_set.t -> simple -> bool
(** The paper's [f(Theta, rho(gamma, s, d))]: for every required amount,
    the total availability of its type within the window reaches the
    quantity. *)

val unsatisfied_amounts : Resource_set.t -> simple -> amount list
(** The amounts (with residual quantities) that {!satisfied_simple} finds
    missing; empty iff satisfied. *)

val demand_simple : simple -> (Located_type.t * int) list
(** Type-to-quantity view of a simple requirement. *)

val demand_complex : complex -> (Located_type.t * int) list
(** Aggregate demand per type across all steps. *)

val total_quantity_complex : complex -> int
(** Sum of all quantities over all steps (a work-size measure). *)

val step_count : complex -> int

val equal_simple : simple -> simple -> bool

val equal_complex : complex -> complex -> bool

val equal_concurrent : concurrent -> concurrent -> bool

val pp_amount : Format.formatter -> amount -> unit

val pp_simple : Format.formatter -> simple -> unit

val pp_complex : Format.formatter -> complex -> unit

val pp_concurrent : Format.formatter -> concurrent -> unit
