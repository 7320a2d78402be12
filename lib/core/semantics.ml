open Import

type verdict = Holds | Fails | Unknown of string

(* The usable remainder of a requirement window at evaluation time [at]:
   [(max(s,t), d)]. *)
let clip window ~at =
  Interval.make ~start:(Time.max (Interval.start window) at)
    ~stop:(Interval.stop window)

let times_after path t =
  List.filter_map
    (fun (s : State.t) -> if s.State.now > t then Some s.State.now else None)
    (Path.states path)

let rec on_path path ~at psi =
  match (psi : Formula.t) with
  | True -> true
  | False -> false
  | Satisfy_simple r -> (
      match clip r.Requirement.window ~at with
      | None -> false
      | Some window ->
          let theta = Path.expired_within path window in
          Requirement.satisfied_simple theta
            (Requirement.make_simple ~amounts:r.Requirement.amounts ~window))
  | Satisfy_complex r -> (
      match clip r.Requirement.window ~at with
      | None -> false
      | Some window ->
          let theta = Path.expired_within path window in
          Accommodation.sequential_feasible theta
            (Requirement.make_complex ~steps:r.Requirement.steps ~window))
  | Satisfy_concurrent r -> (
      match clip r.Requirement.window ~at with
      | None -> false
      | Some window ->
          let theta = Path.expired_within path window in
          Accommodation.concurrent_feasible theta
            (Requirement.make_concurrent ~parts:r.Requirement.parts ~window))
  | Not psi -> not (on_path path ~at psi)
  | Eventually psi ->
      List.exists (fun t -> on_path path ~at:t psi) (times_after path at)
  | Always psi ->
      List.for_all (fun t -> on_path path ~at:t psi) (times_after path at)

(* The natural exploration bound: the latest of the formula's deadlines
   and the availability horizon (at least one tick past [now]). *)
let default_horizon (state : State.t) psi =
  let now = state.State.now in
  let candidates =
    List.filter_map Fun.id
      [ Formula.horizon psi; Resource_set.horizon state.State.available ]
  in
  List.fold_left Time.max (Time.succ now) candidates

exception Out_of_budget

let m_exists = Rota_obs.Metrics.counter "semantics/exists_path"
let m_exists_s = Rota_obs.Metrics.histogram "semantics/exists_path_s"
let m_forall = Rota_obs.Metrics.counter "semantics/forall_paths"

let exists_path_uninstrumented ?horizon ?(budget = 200_000) (state : State.t)
    psi =
  let horizon =
    match horizon with Some h -> h | None -> default_horizon state psi
  in
  let remaining = ref budget in
  let rec dfs path =
    let tip = Path.tip path in
    if tip.State.now >= horizon then on_path path ~at:state.State.now psi
    else
      List.exists
        (fun label ->
          if !remaining <= 0 then raise Out_of_budget;
          decr remaining;
          dfs (Path.extend path label))
        (Transition.labels tip)
  in
  match dfs (Path.init state) with
  | true -> Holds
  | false -> Fails
  | exception Out_of_budget ->
      Unknown (Printf.sprintf "transition budget (%d) exhausted" budget)

let exists_path ?horizon ?budget state psi =
  if Rota_obs.Metrics.enabled () then begin
    Rota_obs.Metrics.incr m_exists;
    Rota_obs.Metrics.time m_exists_s (fun () ->
        exists_path_uninstrumented ?horizon ?budget state psi)
  end
  else exists_path_uninstrumented ?horizon ?budget state psi

let witness ?horizon ?(budget = 200_000) (state : State.t) psi =
  let horizon =
    match horizon with Some h -> h | None -> default_horizon state psi
  in
  let remaining = ref budget in
  let rec dfs path =
    let tip = Path.tip path in
    if tip.State.now >= horizon then
      if on_path path ~at:state.State.now psi then Some path else None
    else
      List.find_map
        (fun label ->
          if !remaining <= 0 then raise Out_of_budget;
          decr remaining;
          dfs (Path.extend path label))
        (Transition.labels tip)
  in
  match dfs (Path.init state) with
  | result -> result
  | exception Out_of_budget -> None

let forall_paths ?horizon ?budget state psi =
  Rota_obs.Metrics.incr m_forall;
  match exists_path ?horizon ?budget state (Formula.neg psi) with
  | Holds -> Fails
  | Fails -> Holds
  | Unknown _ as u -> u

module State_set = Set.Make (State)

type completion =
  | Completed of Path.t
  | Impossible
  | Budget_exhausted of { budget : int }

let completion_path ?(budget = 200_000) (state : State.t) ~computation =
  match State.pending_of state ~computation with
  | [] -> Completed (Path.init state)
  | pendings ->
      let deadline =
        List.fold_left
          (fun acc (p : State.pending) ->
            Time.max acc (Interval.stop p.State.window))
          min_int pendings
      in
      let remaining = ref budget in
      (* A state from which draining is impossible stays impossible however
         we reached it, so failures memoize soundly. *)
      let failed = ref State_set.empty in
      let rec dfs path =
        let tip = Path.tip path in
        if State.pending_of tip ~computation = [] then Some path
        else if tip.State.now >= deadline then None
        else if State_set.mem tip !failed then None
        else
          let result =
            List.find_map
              (fun label ->
                if !remaining <= 0 then raise Out_of_budget;
                decr remaining;
                dfs (Path.extend path label))
              (Transition.labels tip)
          in
          if result = None then failed := State_set.add tip !failed;
          result
      in
      (* An exhausted budget is an inconclusive search, not a crash: the
         caller decides whether "don't know" counts as infeasible. *)
      (match dfs (Path.init state) with
      | Some path -> Completed path
      | None -> Impossible
      | exception Out_of_budget -> Budget_exhausted { budget })

let pp_verdict ppf = function
  | Holds -> Format.pp_print_string ppf "holds"
  | Fails -> Format.pp_print_string ppf "fails"
  | Unknown reason -> Format.fprintf ppf "unknown (%s)" reason
