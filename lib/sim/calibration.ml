open Import

type ratios = { cpu : float; network : float }

let kind_of xi =
  match (xi : Located_type.t) with
  | Located_type.Network _ -> `Network
  | Located_type.Cpu _ | Located_type.Memory _ | Located_type.Custom _ -> `Cpu

let demand_of_parts parts =
  List.fold_left
    (fun (cpu, net) part ->
      List.fold_left
        (fun (cpu, net) (xi, q) ->
          match kind_of xi with
          | `Cpu -> (cpu + q, net)
          | `Network -> (cpu, net + q))
        (cpu, net)
        (Requirement.demand_complex part))
    (0, 0) parts

let believed_demand model trace ~admitted =
  let from_computations =
    List.fold_left
      (fun (cpu, net) (_, (c : Computation.t)) ->
        if admitted c.Computation.id then begin
          let conc = Computation.to_concurrent model c in
          let dc, dn = demand_of_parts conc.Requirement.parts in
          (cpu + dc, net + dn)
        end
        else (cpu, net))
      (0, 0) (Trace.arrivals trace)
  in
  List.fold_left
    (fun (cpu, net) (_, (s : Session.t)) ->
      if admitted s.Session.id then
        let nodes = Session.to_nodes model s in
        let dc, dn =
          demand_of_parts
            (List.map (fun (n : Precedence.node) -> n.Precedence.requirement) nodes)
        in
        (cpu + dc, net + dn)
      else (cpu, net))
    from_computations (Trace.sessions trace)

(* [(cpu, network)] totals actually consumed in a run, from the report's
   per-type stats (custom and memory kinds count as CPU-side work). *)
let actual_consumption (report : Engine.report) =
  List.fold_left
    (fun (cpu, net) (s : Engine.type_stat) ->
      match kind_of s.Engine.ltype with
      | `Cpu -> (cpu + s.Engine.consumed, net)
      | `Network -> (cpu, net + s.Engine.consumed))
    (0, 0) report.Engine.type_stats

let ratios_of_run ~believed trace (report : Engine.report) =
  let admitted id =
    List.exists
      (fun (o : Engine.outcome) ->
        String.equal o.Engine.computation id && o.Engine.admitted)
      report.Engine.outcomes
  in
  let believed_cpu, believed_net = believed_demand believed trace ~admitted in
  let consumed_cpu, consumed_net = actual_consumption report in
  (* Work still owed at deadline kills completes the picture: consumed +
     unfinished is exactly the true demand of the admitted work. *)
  let owed_cpu, owed_net =
    List.fold_left
      (fun (cpu, net) (o : Engine.outcome) ->
        List.fold_left
          (fun (cpu, net) (xi, q) ->
            match kind_of xi with
            | `Cpu -> (cpu + q, net)
            | `Network -> (cpu, net + q))
          (cpu, net) o.Engine.unfinished)
      (0, 0) report.Engine.outcomes
  in
  let ratio believed actual =
    if believed <= 0 then 1.0 else float_of_int actual /. float_of_int believed
  in
  {
    cpu = ratio believed_cpu (consumed_cpu + owed_cpu);
    network = ratio believed_net (consumed_net + owed_net);
  }

let scale (m : Cost_model.t) r =
  let up factor v = max 1 (int_of_float (ceil (float_of_int v *. factor))) in
  {
    Cost_model.evaluate_cost = up r.cpu m.Cost_model.evaluate_cost;
    send_cost = up r.network m.Cost_model.send_cost;
    create_cost = up r.cpu m.Cost_model.create_cost;
    ready_cost = up r.cpu m.Cost_model.ready_cost;
    migrate_pack_cost = up r.cpu m.Cost_model.migrate_pack_cost;
    migrate_transfer_cost = up r.network m.Cost_model.migrate_transfer_cost;
    migrate_unpack_cost = up r.cpu m.Cost_model.migrate_unpack_cost;
  }

let calibrate ?(iterations = 3) ~policy ~believed ~true_model trace =
  let rec loop believed i acc =
    if i = 0 then List.rev acc
    else
      let report =
        Engine.run ~cost_model:believed ~true_cost_model:true_model ~policy trace
      in
      let revised = scale believed (ratios_of_run ~believed trace report) in
      loop revised (i - 1) ((believed, report) :: acc)
  in
  loop believed iterations []
