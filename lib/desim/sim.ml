type t = {
  wheel : Timing_wheel.t;
  mutable clock : float;
  mutable handlers : (int -> int -> unit) array;
  mutable n_handlers : int;
  mutable events : int;
}

let create ?(events_per_time = 64.) () =
  let tick =
    if (not (Float.is_finite events_per_time)) || events_per_time <= 0. then 1.
    else Float.min 1e6 (Float.max 1e-9 (1. /. events_per_time))
  in
  {
    wheel = Timing_wheel.create ~tick ();
    clock = 0.;
    handlers = Array.make 8 (fun _ _ -> ());
    n_handlers = 0;
    events = 0;
  }

let now t = t.clock

let register t f =
  if t.n_handlers = Array.length t.handlers then begin
    let bigger = Array.make (2 * t.n_handlers) t.handlers.(0) in
    Array.blit t.handlers 0 bigger 0 t.n_handlers;
    t.handlers <- bigger
  end;
  t.handlers.(t.n_handlers) <- f;
  t.n_handlers <- t.n_handlers + 1;
  t.n_handlers - 1

let schedule_code t ~at ~handler ~a ~b =
  if not (Float.is_finite at) then invalid_arg "Sim.schedule_code: non-finite time";
  if at < t.clock then invalid_arg "Sim.schedule_code: time in the past";
  Timing_wheel.schedule t.wheel ~time:at ~handler ~a ~b

let schedule_code_after t ~delay ~handler ~a ~b =
  if (not (Float.is_finite delay)) || delay < 0. then
    invalid_arg "Sim.schedule_code_after: bad delay";
  schedule_code t ~at:(t.clock +. delay) ~handler ~a ~b

let step t =
  let w = t.wheel in
  if Timing_wheel.pop w then begin
    t.clock <- Timing_wheel.popped_time w;
    t.events <- t.events + 1;
    (t.handlers.(Timing_wheel.popped_handler w))
      (Timing_wheel.popped_a w) (Timing_wheel.popped_b w);
    true
  end
  else false

let run ?until t =
  (match until with
  | None -> while step t do () done
  | Some stop -> while Timing_wheel.next_time t.wheel <= stop && step t do () done);
  match until with
  | Some stop when stop > t.clock -> t.clock <- stop
  | Some _ | None -> ()

let pending t = Timing_wheel.size t.wheel

let events t = t.events
