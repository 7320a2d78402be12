open Import

(** The satisfaction relation [M, sigma, t |= psi] (Figure 1).

    Formulas are judged on a computation path [sigma] at a time point [t]:

    - [true] always holds, [false] never;
    - [satisfy(rho(gamma,s,d))] holds when the resources {b expiring
      unused} along [sigma] within [(max(s,t), d)] satisfy the simple
      requirement — expiring resources are the system's spare capacity,
      "unwanted resources which will expire unless new computations
      requiring them enter the system";
    - [satisfy(rho(Gamma,s,d))] holds when breakpoints
      [t_1 < ... < t_m-1] exist splitting [(max(s,t), d)] so every step's
      simple requirement holds on its subinterval (decided by the
      Theorem-2 procedure on the expiring resources);
    - [satisfy(rho(Lambda,s,d))] holds when the parts can be placed one
      after another, each on what the previous placements left (decided
      by the Theorem-3/4 procedure);
    - [not], and the temporal operators over the {e path's} later time
      points: [eventually psi] — some strictly later point of [sigma]
      satisfies [psi]; [always psi] — all strictly later points do.

    Paths here are finite (the tree is explored to a horizon), so the
    temporal operators are bounded — adequate because every [satisfy] atom
    is itself bounded by its window's deadline. *)

type verdict =
  | Holds
  | Fails
  | Unknown of string
      (** The exploration budget ran out before a witness either way; the
          payload says which limit was hit. *)

val on_path : Path.t -> at:Time.t -> Formula.t -> bool
(** [on_path sigma ~at psi] is [M, sigma, at |= psi], Figure 1 verbatim.
    Time points beyond the path's tip make temporal operators range over
    the empty set ([eventually] false, [always] true). *)

val exists_path :
  ?horizon:Time.t -> ?budget:int -> State.t -> Formula.t -> verdict
(** [exists_path state psi]: does {e some} computation path from [state]
    (explored to [horizon]) satisfy [psi] at [state]'s clock?  This is the
    quantifier of Theorems 3 and 4.  [budget] caps the number of
    transition applications (default [200_000]). *)

val forall_paths :
  ?horizon:Time.t -> ?budget:int -> State.t -> Formula.t -> verdict
(** Dual of {!exists_path}: every path satisfies [psi]. *)

val witness :
  ?horizon:Time.t -> ?budget:int -> State.t -> Formula.t -> Path.t option
(** Like {!exists_path} but returns the satisfying path itself — the
    concrete system evolution backing a [Holds] verdict.  [None] covers
    both [Fails] and a blown budget; use {!exists_path} to distinguish. *)

type completion =
  | Completed of Path.t
      (** A path along which the computation's pending requirements
          drain before its deadline. *)
  | Impossible  (** The exhaustive search proved no such path exists. *)
  | Budget_exhausted of { budget : int }
      (** The search hit its transition budget before reaching either
          verdict — inconclusive, not a crash. *)

val completion_path :
  ?budget:int -> State.t -> computation:string -> completion
(** Theorem 3's witness on the transition tree: a path along which the
    named computation's pending requirements drain before its deadline.
    Memoized on visited states; [Impossible] is exact (the budget was
    not hit), [Budget_exhausted] reports an inconclusive search as a
    structured outcome instead of raising. *)

val pp_verdict : Format.formatter -> verdict -> unit
