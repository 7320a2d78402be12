(** Normalized finite unions of intervals.

    The paper makes the usual set operations — union, intersection,
    relative complement — "also available for time intervals"; their results
    are in general not single intervals but finite unions.  This module
    maintains such unions in a canonical form: a sorted list of pairwise
    disjoint, non-adjacent intervals.  Canonical form makes structural
    equality coincide with set equality. *)

type t
(** A set of ticks, as a canonical union of intervals. *)

val empty : t

val is_empty : t -> bool

val of_list : Interval.t list -> t
(** Builds the union of arbitrary (possibly overlapping, unsorted)
    intervals. *)

val intervals : t -> Interval.t list
(** The canonical decomposition: sorted, disjoint, non-adjacent. *)

val mem : Time.t -> t -> bool

val measure : t -> int
(** Total number of ticks covered. *)

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t
(** Relative complement. *)

val add : Interval.t -> t -> t

val remove : Interval.t -> t -> t

val subset : t -> t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int

val hull : t -> Interval.t option
(** Smallest single interval covering the set, or [None] if empty. *)

val restrict : Interval.t -> t -> t
(** [restrict w s] keeps only the part of [s] inside the window [w]. *)

val first : t -> Time.t option
(** Earliest covered tick. *)

val last : t -> Time.t option
(** Latest covered tick. *)

val fold : (Interval.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over the canonical intervals, leftmost first. *)

val pp : Format.formatter -> t -> unit
(** Prints as [[0,3) u [5,7)], or [{}] when empty. *)
