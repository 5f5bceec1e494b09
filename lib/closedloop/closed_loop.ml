open Ffc_numerics
open Ffc_topology
open Ffc_core
open Ffc_desim

type discipline = Netsim.discipline = Fifo | Fs_priority | Fair_queueing

type result = {
  times : float array;
  rates : float array array;
  signals : float array array;
  final_rates : float array;
  mean_tail_rates : float array;
}

type drop_result = {
  dr_times : float array;
  dr_rates : float array array;
  dr_mean_tail_rates : float array;
  drop_fraction : float array;
  mean_utilization : float;
}

let validate fn ~net ~adjusters ~r0 ~interval ~updates =
  let n_conns = Network.num_connections net in
  let fail msg = invalid_arg (fn ^ ": " ^ msg) in
  if Array.length adjusters <> n_conns then fail "adjuster count mismatch";
  if Array.length r0 <> n_conns then fail "r0 length mismatch";
  if not (interval > 0. && Float.is_finite interval) then
    fail "interval must be positive and finite";
  if updates <= 0 then fail "updates must be positive";
  if Array.exists (fun r -> (not (Float.is_finite r)) || r < 0.) r0 then
    fail "rates must be finite and non-negative"

(* The window's mean end-to-end delay of connection [i], [default] when
   none of its packets was delivered. *)
let delay_or flat i default =
  if Measure.Flat.delay_count flat ~conn:i > 0 then Measure.Flat.delay_mean flat ~conn:i
  else default

let paths_of net =
  Array.init (Network.num_connections net) (fun i ->
      Array.of_list (Network.gateways_of_connection net i))

(* The network under control: Poisson sources at [r0] feeding [net]'s
   gateways over the shared packet path.  Each gateway's server, then
   each connection's source, splits its stream off [rng] in ascending
   order. *)
type plant = { sim : Sim.t; fabric : Fabric.t; sources : Source.t array }

let plant ~net ~paths ~rng ~qdisc ?buffer_limit ?klass ~r0 () =
  let gateways =
    Array.init (Network.num_gateways net) (fun a ->
        (Network.gateway net a, Rng.split rng))
  in
  (* A capacity-based event-rate estimate sizes the wheel's tick:
     executed events per unit time are bounded by completions plus
     forwards at every gateway (~2 mu each) whatever the rates do. *)
  let capacity =
    Array.fold_left (fun acc (g, _) -> acc +. (2. *. g.Network.mu)) 0. gateways
  in
  let sim = Sim.create ~events_per_time:capacity () in
  let pool = Packet.Pool.create () in
  let fabric = Fabric.create ~sim ~pool ~paths ~gateways ~qdisc ?buffer_limit ?klass () in
  let emit pkt = Fabric.inject fabric pkt 0 in
  let sources =
    Array.mapi
      (fun i rate -> Source.create ~sim ~rng:(Rng.split rng) ~pool ~conn:i ~rate ~emit ())
      r0
  in
  Array.iter Source.start sources;
  { sim; fabric; sources }

(* Runs [updates] control intervals of length [interval].  At each
   update instant, [signals] reads the closing window as per-connection
   signal and delay vectors (b, d); every connection sets its rate in
   [rates] to r + f(r, b, d) via its own adjuster; [after k] runs; the
   measurement window restarts.  Returns the update times, the rate
   vector set at each update, and each connection's mean rate over the
   last quarter of the updates. *)
let control plant ~adjusters ~rates ~interval ~updates ~signals ~after =
  let flat = Fabric.flat plant.fabric in
  let times = Array.make updates 0. in
  let log = Array.make updates [||] in
  for k = 0 to updates - 1 do
    Sim.run ~until:(float_of_int (k + 1) *. interval) plant.sim;
    let now = Sim.now plant.sim in
    let b, d = signals k ~now in
    Array.iteri
      (fun i r ->
        let dr = Rate_adjust.eval adjusters.(i) ~r ~b:b.(i) ~d:d.(i) in
        rates.(i) <- Float.max 0. (r +. dr);
        Source.set_rate plant.sources.(i) rates.(i))
      (Array.copy rates);
    after k;
    Measure.Flat.reset flat ~now;
    times.(k) <- now;
    log.(k) <- Array.copy rates
  done;
  let tail = Stdlib.max 1 (updates / 4) in
  let tail_means =
    Array.mapi
      (fun i _ ->
        let acc = ref 0. in
        for k = updates - tail to updates - 1 do
          acc := !acc +. log.(k).(i)
        done;
        !acc /. float_of_int tail)
      rates
  in
  (times, log, tail_means)

let run ~net ~discipline ~style ~signal ~adjusters ~r0 ~interval ~updates ~seed () =
  validate "Closed_loop.run" ~net ~adjusters ~r0 ~interval ~updates;
  let n_gws = Network.num_gateways net in
  let rng = Rng.create seed in
  let rates = Array.copy r0 in
  let paths = paths_of net in
  (* Per-gateway (connection, hop) incidence in Gamma(a) order — shared
     by the FS table refresh and the measured-queue readout. *)
  let incidence =
    Array.init n_gws (fun a ->
        Network.connections_at_gateway net a
        |> List.map (fun i ->
               let hop = ref (-1) in
               Array.iteri (fun k g -> if g = a then hop := k) paths.(i);
               (i, !hop))
        |> Array.of_list)
  in
  (* FS thinning tables per (connection, hop), recomputed from the
     current rate vector at every control update, as an implementation
     of FS would have to. *)
  let class_tables =
    Array.map (Array.map (fun _ -> ([||] : (int * float) array))) paths
  in
  let refresh_class_tables () =
    if discipline = Fs_priority then
      for a = 0 to n_gws - 1 do
        let local_rates = Network.rates_at_gateway net ~rates a in
        Array.iter
          (fun (i, hop) ->
            class_tables.(i).(hop) <-
              Netsim.fs_class_table ~local_rates ~rate:rates.(i))
          incidence.(a)
      done
  in
  refresh_class_tables ();
  (* One thinning stream for the whole network, split before the
     servers'; a connection whose table is empty draws nothing. *)
  let class_rng = Rng.split rng in
  let klass i hop =
    let table = class_tables.(i).(hop) in
    if Array.length table > 0 then
      Netsim.draw_fs_class table class_rng ~rate:(Float.max 1e-12 rates.(i))
    else 0
  in
  let plant =
    plant ~net ~paths ~rng ~qdisc:(Netsim.qdisc_of discipline)
      ?klass:(if discipline = Fs_priority then Some klass else None)
      ~r0 ()
  in
  let flat = Fabric.flat plant.fabric in
  let line_latency i =
    Array.fold_left
      (fun acc a -> acc +. (Network.gateway net a).Network.latency)
      0. paths.(i)
  in
  let signals_log = Array.make updates [||] in
  (* Measured per-gateway queue averages over the closing window, turned
     into congestion measures and bottleneck-combined signals (§2.3.1);
     d is the measured mean end-to-end delay. *)
  let signals k ~now =
    let measures =
      Array.map
        (fun inc ->
          Congestion.measures style
            (Array.map
               (fun (i, hop) ->
                 Measure.Flat.mean_occupancy flat
                   ~slot:(Measure.Flat.slot flat ~conn:i ~hop)
                   ~now)
               inc))
        incidence
    in
    let b =
      Array.mapi
        (fun i path ->
          Array.fold_left
            (fun acc a ->
              let local = Network.local_index net ~conn:i ~gw:a in
              Float.max acc (Signal.eval signal measures.(a).(local)))
            0. path)
        paths
    in
    let d = Array.mapi (fun i _ -> delay_or flat i (line_latency i)) paths in
    signals_log.(k) <- b;
    (b, d)
  in
  let times, log, mean_tail_rates =
    control plant ~adjusters ~rates ~interval ~updates ~signals
      ~after:(fun _ -> refresh_class_tables ())
  in
  {
    times;
    rates = log;
    signals = signals_log;
    final_rates = Array.copy rates;
    mean_tail_rates;
  }

let run_drop_tail ~net ~buffer ~adjusters ~r0 ~interval ~updates ~seed () =
  validate "Closed_loop.run_drop_tail" ~net ~adjusters ~r0 ~interval ~updates;
  if buffer < 1 then invalid_arg "Closed_loop.run_drop_tail: buffer must be >= 1";
  let n_conns = Network.num_connections net in
  let plant =
    plant ~net ~paths:(paths_of net) ~rng:(Rng.create seed) ~qdisc:Qdisc.Fifo
      ~buffer_limit:buffer ~r0 ()
  in
  let flat = Fabric.flat plant.fabric in
  (* Binary implicit signal: any drop in the window sets the "bit". *)
  let signals _ ~now:_ =
    ( Array.init n_conns (fun i -> if Measure.Flat.drops flat ~conn:i > 0 then 1. else 0.),
      Array.init n_conns (fun i -> delay_or flat i 1.) )
  in
  let tail = Stdlib.max 1 (updates / 4) in
  let total_drops = Array.make n_conns 0 in
  let tail_delivered = ref 0 in
  let after k =
    for i = 0 to n_conns - 1 do
      total_drops.(i) <- total_drops.(i) + Measure.Flat.drops flat ~conn:i;
      if k >= updates - tail then
        tail_delivered := !tail_delivered + Measure.Flat.deliveries flat ~conn:i
    done
  in
  let times, log, dr_mean_tail_rates =
    control plant ~adjusters ~rates:(Array.copy r0) ~interval ~updates ~signals ~after
  in
  let drop_fraction =
    Array.mapi
      (fun i drops ->
        let emitted = Source.emitted plant.sources.(i) in
        if emitted = 0 then 0. else float_of_int drops /. float_of_int emitted)
      total_drops
  in
  let total_mu = ref 0. in
  for a = 0 to Network.num_gateways net - 1 do
    total_mu := !total_mu +. (Network.gateway net a).Network.mu
  done;
  let delivered_rate = float_of_int !tail_delivered /. (float_of_int tail *. interval) in
  {
    dr_times = times;
    dr_rates = log;
    dr_mean_tail_rates;
    drop_fraction;
    mean_utilization = delivered_rate /. !total_mu;
  }
