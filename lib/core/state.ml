open Import

type pending = {
  computation : string;
  actor : Actor_name.t;
  window : Interval.t;
  steps : Requirement.step list;
}

type t = { available : Resource_set.t; pending : pending list; now : Time.t }

let compare_pending a b =
  match String.compare a.computation b.computation with
  | 0 -> (
      match Actor_name.compare a.actor b.actor with
      | 0 -> (
          match Interval.compare a.window b.window with
          | 0 ->
              let compare_amount (x : Requirement.amount)
                  (y : Requirement.amount) =
                match Located_type.compare x.ltype y.ltype with
                | 0 -> Int.compare x.quantity y.quantity
                | c -> c
              in
              List.compare (List.compare compare_amount) a.steps b.steps
          | c -> c)
      | c -> c)
  | c -> c

(* Canonical pending order makes state comparison structural. *)
let normalize_pending pending = List.sort compare_pending pending

let make ~available ~now =
  { available = Resource_set.truncate_before available now;
    pending = [];
    now }

let is_idle s = s.pending = []

let pending_of s ~computation =
  List.filter (fun p -> String.equal p.computation computation) s.pending

let computations s =
  List.fold_left
    (fun acc p ->
      if List.exists (String.equal p.computation) acc then acc
      else p.computation :: acc)
    [] s.pending
  |> List.rev

let acquire s theta_join =
  {
    s with
    available =
      Resource_set.union s.available
        (Resource_set.truncate_before theta_join s.now);
  }

let revoke s slice =
  {
    s with
    available =
      Resource_set.diff_clamped s.available
        (Resource_set.truncate_before slice s.now);
  }

(* Remaining steps must be positive-amount only and non-empty. *)
let clean_steps steps =
  List.filter_map
    (fun step ->
      match
        List.filter (fun (a : Requirement.amount) -> a.quantity > 0) step
      with
      | [] -> None
      | step -> Some step)
    steps

let accommodate_parts s ~id ~window parts =
  if s.now >= Interval.stop window then
    Error
      (Printf.sprintf "cannot accommodate %s: deadline %d has passed (now %d)"
         id (Interval.stop window) s.now)
  else if List.exists (fun p -> String.equal p.computation id) s.pending then
    Error (Printf.sprintf "computation %s is already accommodated" id)
  else
    let pendings =
      List.filter_map
        (fun (actor, steps) ->
          match clean_steps steps with
          | [] -> None
          | steps -> Some { computation = id; actor; window; steps })
        parts
    in
    Ok { s with pending = normalize_pending (pendings @ s.pending) }

let accommodate ?merge s model computation =
  let conc = Computation.to_concurrent ?merge model computation in
  let parts =
    List.map2
      (fun (prog : Program.t) (part : Requirement.complex) ->
        (prog.name, part.Requirement.steps))
      computation.Computation.programs conc.Requirement.parts
  in
  accommodate_parts s ~id:computation.Computation.id
    ~window:(Computation.window computation)
    parts

let leave s ~computation =
  let mine, others =
    List.partition (fun p -> String.equal p.computation computation) s.pending
  in
  match mine with
  | [] -> Error (Printf.sprintf "computation %s is not accommodated" computation)
  | p :: _ ->
      if s.now >= Interval.start p.window then
        Error
          (Printf.sprintf
             "computation %s has already started (s=%d, now=%d): cannot leave"
             computation (Interval.start p.window) s.now)
      else Ok { s with pending = others }

let drop s ~computation =
  {
    s with
    pending =
      List.filter (fun p -> not (String.equal p.computation computation)) s.pending;
  }

let consume_in_head s ~computation ~actor consumed =
  let consume_step step =
    List.filter_map
      (fun (a : Requirement.amount) ->
        let taken =
          List.fold_left
            (fun acc (xi, q) ->
              if Located_type.equal xi a.ltype then acc + q else acc)
            0 consumed
        in
        let quantity = max 0 (a.quantity - taken) in
        if quantity > 0 then Some (Requirement.amount a.ltype quantity)
        else None)
      step
  in
  let update p =
    if String.equal p.computation computation && Actor_name.equal p.actor actor
    then
      match p.steps with
      | [] -> None
      | head :: rest -> (
          match consume_step head with
          | [] -> if rest = [] then None else Some { p with steps = rest }
          | head -> Some { p with steps = head :: rest })
    else Some p
  in
  { s with pending = List.filter_map update s.pending }

let tick s =
  let now = Time.succ s.now in
  { s with now; available = Resource_set.truncate_before s.available now }

let compare a b =
  match Time.compare a.now b.now with
  | 0 -> (
      match Resource_set.compare a.available b.available with
      | 0 -> List.compare compare_pending a.pending b.pending
      | c -> c)
  | c -> c

let equal a b = compare a b = 0

let pp_pending ppf p =
  let pp_step ppf step =
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         Requirement.pp_amount)
      step
  in
  Format.fprintf ppf "%s/%a%a: %a" p.computation Actor_name.pp p.actor
    Interval.pp p.window
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ; ")
       pp_step)
    p.steps

let pp ppf s =
  Format.fprintf ppf "@[<v>S(t=%a)@ Theta = %a@ rho = @[<v>%a@]@]" Time.pp
    s.now Resource_set.pp s.available
    (Format.pp_print_list pp_pending)
    s.pending
