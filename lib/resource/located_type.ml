type t =
  | Cpu of Location.t
  | Memory of Location.t
  | Network of Location.t * Location.t
  | Custom of string * Location.t

let cpu l = Cpu l
let memory l = Memory l
let network ~src ~dst = Network (src, dst)
let custom kind l = Custom (kind, l)

let rank = function
  | Cpu _ -> 0
  | Memory _ -> 1
  | Network _ -> 2
  | Custom _ -> 3

let compare a b =
  match (a, b) with
  | Cpu la, Cpu lb | Memory la, Memory lb -> Location.compare la lb
  | Network (sa, da), Network (sb, db) -> (
      match Location.compare sa sb with
      | 0 -> Location.compare da db
      | c -> c)
  | Custom (ka, la), Custom (kb, lb) -> (
      match String.compare ka kb with 0 -> Location.compare la lb | c -> c)
  | (Cpu _ | Memory _ | Network _ | Custom _), _ ->
      Int.compare (rank a) (rank b)

let equal a b = compare a b = 0
let hash = Hashtbl.hash

let kind = function
  | Cpu _ -> "cpu"
  | Memory _ -> "memory"
  | Network _ -> "network"
  | Custom (k, _) -> k

let locations = function
  | Cpu l | Memory l | Custom (_, l) -> [ l ]
  | Network (src, dst) -> [ src; dst ]

(* One rendering, shared by [pp] and by everything that needs the name
   as a string (certificate digests hash it): a plain concatenation, so
   naming a type costs one string allocation, not a formatter. *)
let to_string = function
  | Cpu l -> String.concat "" [ "<cpu,"; Location.name l; ">" ]
  | Memory l -> String.concat "" [ "<memory,"; Location.name l; ">" ]
  | Network (src, dst) ->
      String.concat ""
        [ "<network,"; Location.name src; "->"; Location.name dst; ">" ]
  | Custom (k, l) -> String.concat "" [ "<"; k; ","; Location.name l; ">" ]

let pp ppf xi = Format.pp_print_string ppf (to_string xi)
