open Import

type strategy = Stay | Relocate of Location.t | Round_trip of Location.t

type verdict = {
  strategy : strategy;
  program : Program.t;
  finish : Time.t;
  schedule : Accommodation.schedule;
}

let strategies ~home ~sites =
  let away = List.filter (fun s -> not (Location.equal s home)) sites in
  (Stay :: List.map (fun s -> Relocate s) away)
  @ List.map (fun s -> Round_trip s) away

(* The plan as an actor program: the work bracketed by the strategy's
   migrations.  The [work] actions are location-transparent (they
   execute wherever the actor is). *)
let program_of strategy ~name ~home ~work =
  let actions =
    match strategy with
    | Stay -> work
    | Relocate site -> (Action.migrate site :: work)
    | Round_trip site -> (Action.migrate site :: work) @ [ Action.migrate home ]
  in
  Program.make ~name ~home actions

let migration_count = function
  | Stay -> 0
  | Relocate _ -> 1
  | Round_trip _ -> 2

let finish_of ~window (schedule : Accommodation.schedule) =
  List.fold_left
    (fun acc (a : Accommodation.step_allocation) ->
      Time.max acc (Interval.stop a.Accommodation.subwindow))
    (Interval.start window)
    schedule.Accommodation.steps

let evaluate ?(cost_model = Cost_model.default) theta ~window ~name ~home
    ~sites ~work =
  let locate _ = None in
  let judge strategy =
    let program = program_of strategy ~name ~home ~work in
    let requirement = Program.to_complex cost_model ~locate ~window program in
    match Accommodation.schedule_sequential theta requirement with
    | None -> None
    | Some schedule ->
        Some { strategy; program; finish = finish_of ~window schedule; schedule }
  in
  strategies ~home ~sites
  |> List.filter_map judge
  |> List.stable_sort (fun a b ->
         match Time.compare a.finish b.finish with
         | 0 ->
             Int.compare (migration_count a.strategy) (migration_count b.strategy)
         | c -> c)

let best ?cost_model theta ~window ~name ~home ~sites ~work =
  match evaluate ?cost_model theta ~window ~name ~home ~sites ~work with
  | [] -> None
  | v :: _ -> Some v

(* Plan against a live controller: only its residual (uncommitted)
   capacity is offered, priced with the controller's own cost model, so
   a pursued plan can be committed without disturbing admitted work. *)
let evaluate_on ?cost_model controller ~window ~name ~home ~sites ~work =
  let cost_model =
    Option.value cost_model ~default:(Admission.cost_model controller)
  in
  evaluate ~cost_model
    (Admission.residual controller)
    ~window ~name ~home ~sites ~work

let best_on ?cost_model controller ~window ~name ~home ~sites ~work =
  match evaluate_on ?cost_model controller ~window ~name ~home ~sites ~work with
  | [] -> None
  | v :: _ -> Some v

let pp_strategy ppf = function
  | Stay -> Format.pp_print_string ppf "stay"
  | Relocate site -> Format.fprintf ppf "relocate(%a)" Location.pp site
  | Round_trip site -> Format.fprintf ppf "round-trip(%a)" Location.pp site

let pp_verdict ppf v =
  Format.fprintf ppf "%a: finishes at %a" pp_strategy v.strategy Time.pp
    v.finish
