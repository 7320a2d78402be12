open Import

type assignment = {
  ltype : Located_type.t;
  computation : string;
  actor : Actor_name.t;
}

type label = assignment list

let head_amounts (p : State.pending) =
  match p.State.steps with [] -> [] | head :: _ -> head

let wants p xi =
  List.exists
    (fun (a : Requirement.amount) -> Located_type.equal a.ltype xi)
    (head_amounts p)

let remaining_for p xi =
  List.fold_left
    (fun acc (a : Requirement.amount) ->
      if Located_type.equal a.ltype xi then acc + a.quantity else acc)
    0 (head_amounts p)

let active_pendings (s : State.t) =
  List.filter (fun (p : State.pending) -> Interval.mem s.State.now p.State.window)
    s.State.pending

let consumable (s : State.t) =
  let active = active_pendings s in
  Resource_set.fold
    (fun xi profile acc ->
      if Profile.rate_at profile s.State.now <= 0 then acc
      else
        let candidates =
          List.filter_map
            (fun (p : State.pending) ->
              if wants p xi then Some (p.State.computation, p.State.actor)
              else None)
            active
        in
        if candidates = [] then acc else (xi, candidates) :: acc)
    s.State.available []
  |> List.rev

let labels s =
  let choices = consumable s in
  (* Cartesian product over types of (expire | fuel candidate). *)
  let extend partial (xi, candidates) =
    partial
    @ List.concat_map
        (fun label ->
          List.map
            (fun (computation, actor) ->
              { ltype = xi; computation; actor } :: label)
            candidates)
        partial
  in
  (* Seed with the all-expire label; note [extend] keeps the unassigned
     alternative by including [partial] itself. *)
  List.fold_left (fun acc choice -> extend acc choice) [ [] ] choices
  |> List.map List.rev

let label_count s =
  List.fold_left
    (fun acc (_, candidates) -> acc * (1 + List.length candidates))
    1 (consumable s)

let greedy_label (s : State.t) =
  let deadline_of computation actor =
    match
      List.find_opt
        (fun (p : State.pending) ->
          String.equal p.State.computation computation
          && Actor_name.equal p.State.actor actor)
        s.State.pending
    with
    | Some p -> Interval.stop p.State.window
    | None -> max_int
  in
  let pick (xi, candidates) =
    let best =
      List.sort
        (fun (c1, a1) (c2, a2) ->
          match Int.compare (deadline_of c1 a1) (deadline_of c2 a2) with
          | 0 -> (
              match String.compare c1 c2 with
              | 0 -> Actor_name.compare a1 a2
              | c -> c)
          | c -> c)
        candidates
    in
    match best with
    | (computation, actor) :: _ -> Some { ltype = xi; computation; actor }
    | [] -> None
  in
  List.filter_map pick (consumable s)

let check_label label =
  let types = List.map (fun a -> a.ltype) label in
  let distinct = List.sort_uniq Located_type.compare types in
  if List.length distinct <> List.length types then
    invalid_arg "Transition.apply: a resource type is assigned twice"

let transfers (s : State.t) label =
  List.map
    (fun a ->
      let rate = Profile.rate_at (Resource_set.find a.ltype s.State.available) s.State.now in
      let remaining =
        match
          List.find_opt
            (fun (p : State.pending) ->
              String.equal p.State.computation a.computation
              && Actor_name.equal p.State.actor a.actor)
            s.State.pending
        with
        | Some p -> remaining_for p a.ltype
        | None -> 0
      in
      (a, min rate remaining))
    label

let apply s label =
  check_label label;
  let s' =
    List.fold_left
      (fun acc (a, quantity) ->
        if quantity <= 0 then acc
        else
          State.consume_in_head acc ~computation:a.computation ~actor:a.actor
            [ (a.ltype, quantity) ])
      s (transfers s label)
  in
  State.tick s'

let expired_slice (s : State.t) label =
  let now = s.State.now in
  let slice = Interval.of_pair now (Time.succ now) in
  let consumed_of xi =
    List.fold_left
      (fun acc (a, q) -> if Located_type.equal a.ltype xi then acc + q else acc)
      0 (transfers s label)
  in
  Resource_set.fold
    (fun xi profile acc ->
      let rate = Profile.rate_at profile now in
      let left = rate - consumed_of xi in
      if left > 0 then
        Resource_set.union acc
          (Resource_set.singleton (Term.v left slice xi))
      else acc)
    s.State.available Resource_set.empty

let step_greedy s = apply s (greedy_label s)

let rec run_greedy (s : State.t) ~horizon =
  if s.State.now >= horizon then s
  else
    let next = step_greedy s in
    run_greedy next ~horizon
