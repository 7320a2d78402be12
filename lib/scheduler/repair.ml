open Import

type victim = {
  computation : string;
  window : Interval.t;
  parts : (Actor_name.t * Requirement.step list) list;
}

type rung = Reaccommodate | Migrate of Location.t

let rung_name = function
  | Reaccommodate -> "reaccommodate"
  | Migrate _ -> "migrate"

type backoff = { base : int; cap : int; max_attempts : int }

let default_backoff = { base = 1; cap = 8; max_attempts = 4 }

let delay b ~attempt =
  (* attempt is bounded by [max_attempts], so the shift cannot overflow. *)
  min b.cap (b.base * (1 lsl min attempt 30))

type repaired = {
  controller : Admission.t;
  rung : rung;
  schedules : (Actor_name.t * Accommodation.schedule) list;
  parts : (Actor_name.t * Requirement.step list) list;
  certificate : Certificate.t;
      (** Theorem-3 evidence for the re-admission, against the pre-adopt
          residual.  Eager: repairs only run on the (rare) fault path. *)
}

type outcome =
  | Repaired of repaired
  | Retry of { at : Time.t; attempt : int }
  | Preempted of { reason : string }

(* Ordering heuristic for batch repair: remaining laxity, measured as
   window ticks left minus the largest single actor's remaining
   quantity (a lower bound on the ticks it needs at unit rate).  Only
   used to decide who gets preempted first — exactness is not
   required. *)
let slack ~now (v : victim) =
  let longest =
    List.fold_left
      (fun acc (_, steps) ->
        let q =
          List.fold_left
            (fun acc step ->
              List.fold_left
                (fun acc (a : Requirement.amount) -> acc + a.quantity)
                acc step)
            0 steps
        in
        max acc q)
      0 v.parts
  in
  Interval.stop v.window - now - longest

(* Commit the given per-actor step lists on the controller's residual
   within [max now start, deadline).  This is the Theorem-3 re-check the
   ladder is built on: the residual excludes every live reservation, so
   a successful commit cannot disturb an unaffected commitment. *)
let commit_parts controller ~now ~computation ~window parts ~rung =
  match
    Interval.make
      ~start:(Time.max now (Interval.start window))
      ~stop:(Interval.stop window)
  with
  | None -> None
  | Some window -> (
      let conc =
        Requirement.make_concurrent
          ~parts:
            (List.map
               (fun (_, steps) -> Requirement.make_complex ~steps ~window)
               parts)
          ~window
      in
      let theta = Admission.residual controller in
      match Accommodation.schedule_concurrent theta conc with
      | None -> None
      | Some schedules -> (
          let named = List.map2 (fun (name, _) s -> (name, s)) parts schedules in
          let entry =
            {
              Calendar.computation;
              window;
              reservation = Accommodation.reservation_of_schedules schedules;
              schedules = named;
            }
          in
          let certificate =
            Certificate.of_schedules ~theorem:Certificate.T3 ~residual:theta
              (List.map2
                 (fun (actor, s) spec -> (actor, spec, s))
                 named conc.Requirement.parts)
          in
          match Admission.adopt controller entry with
          | Ok controller ->
              Some { controller; rung; schedules = named; parts; certificate }
          | Error _ -> None))

(* Rung 1: the victim's remaining work, re-accommodated as-is on the
   post-fault residual. *)
let try_reaccommodate controller ~now (v : victim) =
  commit_parts controller ~now ~computation:v.computation ~window:v.window
    v.parts ~rung:Reaccommodate

(* Rung 2 applies when the remaining work is pure computation: every
   amount of every part is cpu at that part's single home node.  Then
   the work is location-transparent modulo migration costs, and we can
   replay the planner's Relocate strategy: price pack/transfer/unpack
   with the controller's cost model, retarget the cpu amounts, and
   re-run the Theorem-3 check at each candidate site. *)
let cpu_home_of steps =
  match
    List.concat_map
      (fun step -> List.map (fun (a : Requirement.amount) -> a.ltype) step)
      steps
  with
  | [] -> None
  | Located_type.Cpu home :: rest ->
      if
        List.for_all
          (fun xi -> Located_type.equal xi (Located_type.cpu home))
          rest
      then Some home
      else None
  | _ -> None

let relocate_steps cm ~home ~site steps =
  if Location.equal home site then steps
  else
    let amount = Requirement.amount in
    let moved =
      List.map
        (List.map (fun (a : Requirement.amount) ->
             amount (Located_type.cpu site) a.quantity))
        steps
    in
    [ amount (Located_type.cpu home) cm.Cost_model.migrate_pack_cost ]
    :: [
         amount
           (Located_type.network ~src:home ~dst:site)
           cm.Cost_model.migrate_transfer_cost;
       ]
    :: [ amount (Located_type.cpu site) cm.Cost_model.migrate_unpack_cost ]
    :: moved

let cpu_sites theta =
  List.filter_map
    (function Located_type.Cpu l -> Some l | _ -> None)
    (Resource_set.domain theta)

let try_migrate controller ~now (v : victim) =
  let homes = List.map (fun (_, steps) -> cpu_home_of steps) v.parts in
  if List.exists Option.is_none homes then None
  else
    let homes = List.map Option.get homes in
    let cm = Admission.cost_model controller in
    let sites = cpu_sites (Admission.residual controller) in
    (* Enumerate candidate destinations through the planner's strategy
       space; [Stay] is rung 1, and a round trip buys nothing once the
       home capacity is gone. *)
    let candidates =
      List.concat_map
        (fun home ->
          List.filter_map
            (function Planner.Relocate site -> Some site | _ -> None)
            (Planner.strategies ~home ~sites))
        homes
      |> List.sort_uniq Location.compare
    in
    List.find_map
      (fun site ->
        let parts =
          List.map2
            (fun (name, steps) home ->
              (name, relocate_steps cm ~home ~site steps))
            v.parts homes
        in
        commit_parts controller ~now ~computation:v.computation
          ~window:v.window parts ~rung:(Migrate site))
      candidates

let attempt_ladder ?(backoff = default_backoff) ?(attempt = 0) controller ~now
    (v : victim) =
  let deadline = Interval.stop v.window in
  if now >= deadline then Preempted { reason = "deadline already passed" }
  else
    match try_reaccommodate controller ~now v with
    | Some r -> Repaired r
    | None -> (
        match try_migrate controller ~now v with
        | Some r -> Repaired r
        | None ->
            let next = Time.add now (delay backoff ~attempt) in
            if attempt + 1 >= backoff.max_attempts then
              Preempted { reason = "repair attempts exhausted" }
            else if next >= deadline then
              Preempted { reason = "no retry window left before the deadline" }
            else Retry { at = next; attempt = attempt + 1 })

(* Per-policy repair latency and outcome counters, labelled like the
   admission series (same [.slug] convention).  Handles are interned by
   name on each call: the fault path is rare, and lazy interning keeps
   processes that never repair free of repair/* rows. *)
module Obs = struct
  module Metrics = Rota_obs.Metrics

  let outcome_label = function
    | Repaired r -> rung_name r.rung
    | Retry _ -> "retry"
    | Preempted _ -> "preempted"
end

let attempt ?backoff ?attempt controller ~now v =
  let module Metrics = Rota_obs.Metrics in
  if not (Metrics.enabled ()) then
    attempt_ladder ?backoff ?attempt controller ~now v
  else begin
    let n = Admission.policy_name (Admission.policy controller) in
    Metrics.incr (Metrics.counter ("repair/attempts." ^ n));
    let outcome =
      Metrics.time
        (Metrics.histogram ("repair/attempt_s." ^ n))
        (fun () -> attempt_ladder ?backoff ?attempt controller ~now v)
    in
    Metrics.incr
      (Metrics.counter ("repair/outcome." ^ Obs.outcome_label outcome));
    outcome
  end

let pp_outcome ppf = function
  | Repaired r -> Format.fprintf ppf "repaired (%s)" (rung_name r.rung)
  | Retry { at; attempt } ->
      Format.fprintf ppf "retry at %a (attempt %d)" Time.pp at attempt
  | Preempted { reason } -> Format.fprintf ppf "preempted: %s" reason
