type t = {
  alpha : float;
  default_budget_s : float;
  max_queue : int;
  mutable estimate : float;
  mutable sampled : bool;
}

(* Pessimistic cold-start seed: a daemon that has decided nothing yet
   must still bound its queue under an instant burst. *)
let cold_estimate_s = 0.001

let create ?(alpha = 0.1) ?(default_budget_s = 0.25) ?(max_queue = 512) () =
  if alpha <= 0. || alpha > 1. then invalid_arg "Shed.create: alpha";
  if default_budget_s <= 0. then invalid_arg "Shed.create: default_budget_s";
  if max_queue < 1 then invalid_arg "Shed.create: max_queue";
  { alpha; default_budget_s; max_queue; estimate = cold_estimate_s; sampled = false }

let observe t decide_s =
  if decide_s >= 0. then
    if t.sampled then
      t.estimate <- (t.alpha *. decide_s) +. ((1. -. t.alpha) *. t.estimate)
    else begin
      t.estimate <- decide_s;
      t.sampled <- true
    end

let estimate_s t = t.estimate
let max_queue t = t.max_queue

(* The effective budget for one request, seconds. *)
let budget_s t ~budget_ms =
  match budget_ms with
  | Some ms when ms > 0. -> ms /. 1000.
  | Some _ | None -> t.default_budget_s

type verdict = Accept | Reject of { slug : string; message : string }

let on_enqueue t ~queue_len ~budget_ms =
  if queue_len >= t.max_queue then
    Reject
      {
        slug = "queue-full";
        message = Printf.sprintf "queue full (%d outstanding)" t.max_queue;
      }
  else
    let budget = budget_s t ~budget_ms in
    let predicted = float_of_int (queue_len + 1) *. t.estimate in
    if predicted > budget then
      Reject
        {
          slug = "predicted-delay";
          message =
            Printf.sprintf
              "predicted queue delay %.1fms exceeds budget %.1fms"
              (predicted *. 1000.) (budget *. 1000.);
        }
    else Accept

let on_dequeue t ~waited_s ~budget_ms =
  let budget = budget_s t ~budget_ms in
  if waited_s > budget then
    Reject
      {
        slug = "budget-spent";
        message =
          Printf.sprintf "waited %.1fms, budget %.1fms already spent"
            (waited_s *. 1000.) (budget *. 1000.);
      }
  else Accept
