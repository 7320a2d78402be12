(* Invariant: intervals sorted by start, pairwise disjoint and non-adjacent
   (each gap is at least one tick), so the representation is canonical. *)
type t = Interval.t list

let empty = []
let is_empty s = s = []
let intervals s = s

(* Merge a sorted-by-start list, coalescing overlapping/adjacent runs. *)
let normalize sorted =
  let flush acc = function None -> acc | Some i -> i :: acc in
  let step (acc, cur) i =
    match cur with
    | None -> (acc, Some i)
    | Some c ->
        if Interval.overlaps c i || Interval.adjacent c i then
          (acc, Some (Interval.hull c i))
        else (c :: acc, Some i)
  in
  let acc, cur = List.fold_left step ([], None) sorted in
  List.rev (flush acc cur)

let of_list is = normalize (List.sort Interval.compare is)
let mem t s = List.exists (Interval.mem t) s
let measure s = List.fold_left (fun n i -> n + Interval.duration i) 0 s

let union a b = of_list (a @ b)

let inter a b =
  let with_a acc i =
    List.fold_left
      (fun acc j ->
        match Interval.inter i j with Some k -> k :: acc | None -> acc)
      acc b
  in
  of_list (List.fold_left with_a [] a)

let diff a b =
  let subtract_all i =
    List.fold_left
      (fun pieces j -> List.concat_map (fun p -> Interval.diff p j) pieces)
      [ i ] b
  in
  of_list (List.concat_map subtract_all a)

let add i s = union [ i ] s
let remove i s = diff s [ i ]
let subset a b = is_empty (diff a b)
let equal a b = List.equal Interval.equal a b
let compare a b = List.compare Interval.compare a b

let hull = function
  | [] -> None
  | first :: _ as s ->
      let last = List.nth s (List.length s - 1) in
      Some (Interval.hull first last)

let restrict w s = inter [ w ] s
let first = function [] -> None | i :: _ -> Some (Interval.start i)

let last s =
  match List.rev s with [] -> None | i :: _ -> Some (Interval.stop i - 1)

let fold f s init = List.fold_left (fun acc i -> f i acc) init s

let pp ppf = function
  | [] -> Format.pp_print_string ppf "{}"
  | s ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " u ")
        Interval.pp ppf s
