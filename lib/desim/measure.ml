open Ffc_numerics

module Flat = struct
  type t = {
    offsets : int array;  (** conn -> first slot; length n_conns + 1. *)
    level : int array;
    last : float array;
    integral : float array;
    mutable window_start : float;
    delays : Stats.running array;
    delivered : int array;
    dropped : int array;
  }

  let create ~paths =
    let n = Array.length paths in
    let offsets = Array.make (n + 1) 0 in
    for i = 0 to n - 1 do
      offsets.(i + 1) <- offsets.(i) + Array.length paths.(i)
    done;
    let slots = offsets.(n) in
    {
      offsets;
      level = Array.make slots 0;
      last = Array.make slots 0.;
      integral = Array.make slots 0.;
      window_start = 0.;
      delays = Array.init n (fun _ -> Stats.running_create ());
      delivered = Array.make n 0;
      dropped = Array.make n 0;
    }

  let[@inline] slot t ~conn ~hop = t.offsets.(conn) + hop

  let num_conns t = Array.length t.delivered
  let num_slots t = Array.length t.level

  let[@inline] advance t s ~now =
    t.integral.(s) <- t.integral.(s) +. (float_of_int t.level.(s) *. (now -. t.last.(s)));
    t.last.(s) <- now

  let incr t ~slot ~now =
    advance t slot ~now;
    t.level.(slot) <- t.level.(slot) + 1

  let decr t ~slot ~now =
    advance t slot ~now;
    if t.level.(slot) <= 0 then
      invalid_arg "Measure.Flat.decr: occupancy would go negative";
    t.level.(slot) <- t.level.(slot) - 1

  let occupancy t ~slot = t.level.(slot)

  let mean_occupancy t ~slot ~now =
    let span = now -. t.window_start in
    if span <= 0. then 0.
    else begin
      let total =
        t.integral.(slot) +. (float_of_int t.level.(slot) *. (now -. t.last.(slot)))
      in
      total /. span
    end

  let reset t ~now =
    t.window_start <- now;
    Array.fill t.integral 0 (Array.length t.integral) 0.;
    Array.fill t.last 0 (Array.length t.last) now;
    Array.fill t.delivered 0 (Array.length t.delivered) 0;
    Array.fill t.dropped 0 (Array.length t.dropped) 0;
    for i = 0 to Array.length t.delays - 1 do
      t.delays.(i) <- Stats.running_create ()
    done

  let record_delay t ~conn d = Stats.running_add t.delays.(conn) d
  let delay_mean t ~conn = Stats.running_mean t.delays.(conn)
  let delay_ci95 t ~conn = Stats.running_ci95_halfwidth t.delays.(conn)
  let delay_count t ~conn = Stats.running_count t.delays.(conn)
  let delay_stats t ~conn = t.delays.(conn)

  let[@inline] count_delivery t ~conn =
    t.delivered.(conn) <- t.delivered.(conn) + 1

  let deliveries t ~conn = t.delivered.(conn)

  let[@inline] count_drop t ~conn = t.dropped.(conn) <- t.dropped.(conn) + 1
  let drops t ~conn = t.dropped.(conn)
end
