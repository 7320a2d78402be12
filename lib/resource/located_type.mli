(** Located resource types.

    The paper writes a located type [xi] as the pair of a resource type and
    the place where the resource resides: [<cpu, l1>] for processor cycles
    on node [l1], [<network, l1 -> l2>] for communication capacity from [l1]
    to [l2].  We add [Memory] and an extensible [Custom] kind so the library
    can model resources beyond the paper's two examples (storage, GPU,
    licenses, ...) without changing the algebra. *)

type t =
  | Cpu of Location.t  (** Processor capacity at a node. *)
  | Memory of Location.t  (** Memory capacity at a node. *)
  | Network of Location.t * Location.t
      (** Directed link capacity from a source to a destination node. *)
  | Custom of string * Location.t
      (** Any other named resource kind residing at a node. *)

val cpu : Location.t -> t

val memory : Location.t -> t

val network : src:Location.t -> dst:Location.t -> t

val custom : string -> Location.t -> t

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order (used as map key). *)

val hash : t -> int

val kind : t -> string
(** ["cpu"], ["memory"], ["network"], or the custom kind name. *)

val locations : t -> Location.t list
(** The node(s) the resource involves: one for node resources, source then
    destination for network resources. *)

val pp : Format.formatter -> t -> unit
(** Prints in the paper's notation, e.g. [<cpu,l1>] or [<network,l1->l2>]. *)

val to_string : t -> string
(** Exactly what {!pp} prints.  Certificate digests hash this text, so
    changing it changes every recorded residual digest. *)
