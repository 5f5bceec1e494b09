open Ffc_numerics
open Ffc_topology

type discipline = Fifo | Fs_priority | Fair_queueing

(* Fair Share thinning: for a connection with rate [r] at a gateway whose
   local sorted rates produce level increments [incr], the packet belongs
   to level j with probability incr.(j)/r for each level the connection
   participates in (those with threshold <= r).  Precomputes the
   cumulative distribution as (class, cumulative rate) pairs. *)
let fs_class_table ~local_rates ~rate =
  if rate <= 0. then [||]
  else begin
    let sorted = Vec.sorted_increasing local_rates in
    let entries = ref [] in
    let cum = ref 0. in
    Array.iteri
      (fun j threshold ->
        let increment = if j = 0 then threshold else threshold -. sorted.(j - 1) in
        if increment > 0. && threshold <= rate then begin
          cum := !cum +. increment;
          entries := (j, !cum) :: !entries
        end)
      sorted;
    Array.of_list (List.rev !entries)
  end

let draw_fs_class table rng ~rate =
  let u = Rng.uniform rng *. rate in
  let n = Array.length table in
  let rec go i =
    if i >= n - 1 then fst table.(n - 1)
    else begin
      let _, cum = table.(i) in
      if u <= cum then fst table.(i) else go (i + 1)
    end
  in
  if n = 0 then 0 else go 0

let qdisc_of = function
  | Fifo -> Qdisc.Fifo
  | Fs_priority -> Qdisc.Preemptive_priority
  | Fair_queueing -> Qdisc.Fair_queueing

type result = {
  net : Network.t;
  horizon : float;
  window : float;
  paths : int array array;  (** Global gateway paths per connection. *)
  conn_shard : int array;
  conn_local : int array;
  flats : Measure.Flat.t array;  (** Per shard, locally indexed. *)
  total_events : int;
  n_components : int;
}

(* Everything a shard worker needs, fully precomputed on the calling
   domain so workers share only read-only state (each RNG stream is
   touched by exactly one shard). *)
type shard_plan = {
  sp_conns : int array;  (** Global connection ids, canonical order. *)
  sp_gws : int array;  (** Global gateway ids, canonical order. *)
  sp_paths : int array array;  (** Per local conn, local gateway path. *)
  sp_rates : float array;  (** Per local conn. *)
  sp_comp : int array;  (** Per local conn, local component ordinal. *)
  sp_n_comps : int;
  sp_tables : (int * float) array array array;  (** Per local conn, per hop. *)
  sp_events_per_time : float;
}

type shard_out = {
  so_flat : Measure.Flat.t;
  so_events : int;
  so_injections : int;
  so_hist : Ffc_obs.Metrics.Histogram.Local.t option;
      (* per-shard delay tally; flushed into "desim.delay" at the join *)
}

let run ~net ~rates ~discipline ~seed ?warmup ?(shards = 1) ?jobs ?buffer_limit
    ~horizon () =
  let n_conns = Network.num_connections net in
  let n_gws = Network.num_gateways net in
  if Array.length rates <> n_conns then
    invalid_arg "Netsim.run: rates length mismatch";
  Array.iter
    (fun r ->
      if (not (Float.is_finite r)) || r < 0. then
        invalid_arg "Netsim.run: rates must be finite and non-negative")
    rates;
  let warmup = match warmup with Some w -> w | None -> 0.1 *. horizon in
  if not (horizon > warmup && warmup >= 0.) then
    invalid_arg "Netsim.run: need horizon > warmup >= 0";
  if shards < 1 then invalid_arg "Netsim.run: shards must be >= 1";
  (match buffer_limit with
  | Some k when k < 1 -> invalid_arg "Netsim.run: buffer_limit must be >= 1"
  | Some _ | None -> ());
  Ffc_obs.Ctx.incr_named "desim.runs";
  let paths =
    Array.init n_conns (fun i -> Array.of_list (Network.gateways_of_connection net i))
  in
  (* Connected components of the gateway graph (edges: consecutive hops
     of any path) — the independent simulation domains. *)
  let uf = Array.init n_gws (fun a -> a) in
  let rec find a = if uf.(a) = a then a else (let r = find uf.(a) in uf.(a) <- r; r) in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then if ra < rb then uf.(rb) <- ra else uf.(ra) <- rb
  in
  Array.iter
    (fun path ->
      for k = 1 to Array.length path - 1 do
        union path.(0) path.(k)
      done)
    paths;
  (* Canonical component ids: order of first appearance over ascending
     gateway index — independent of everything but the topology. *)
  let comp_of_gw = Array.make n_gws (-1) in
  let n_comps = ref 0 in
  for a = 0 to n_gws - 1 do
    let r = find a in
    if comp_of_gw.(r) < 0 then begin
      comp_of_gw.(r) <- !n_comps;
      incr n_comps
    end;
    comp_of_gw.(a) <- comp_of_gw.(r)
  done;
  let n_comps = !n_comps in
  let comp_of_conn =
    Array.init n_conns (fun i -> comp_of_gw.(paths.(i).(0)))
  in
  (* Component weights (expected events per unit time) drive both the
     contiguous shard partition and the wheel tick choice. *)
  let comp_weight = Array.make n_comps 0. in
  Array.iteri
    (fun i path ->
      let c = comp_of_conn.(i) in
      comp_weight.(c) <-
        comp_weight.(c) +. (rates.(i) *. float_of_int ((2 * Array.length path) + 2)))
    paths;
  let total_weight = Array.fold_left ( +. ) 0. comp_weight in
  let shards = min shards n_comps |> max 1 in
  (* Contiguous partition balanced by cumulative weight: component [c]
     goes to the group its weight-prefix ratio lands in — monotone in
     [c], hence contiguous; deterministic for a given topology. *)
  let shard_of_comp = Array.make n_comps 0 in
  let cum = ref 0. in
  for c = 0 to n_comps - 1 do
    shard_of_comp.(c) <-
      (if total_weight <= 0. then c * shards / max 1 n_comps
       else min (shards - 1) (int_of_float (!cum /. total_weight *. float_of_int shards)));
    cum := !cum +. comp_weight.(c)
  done;
  (* Per-entity SplitMix64 streams, pre-split in fixed global order so a
     component's draws never depend on sharding (the E23 per-task-stream
     pattern). *)
  let root_rng = Rng.create seed in
  let server_rngs = Array.init n_gws (fun _ -> Rng.split root_rng) in
  let class_rngs = Array.init n_gws (fun _ -> Rng.split root_rng) in
  let source_rngs = Array.init n_conns (fun _ -> Rng.split root_rng) in
  (* Global FS thinning tables, one per (connection, hop). *)
  let fs_tables =
    if discipline <> Fs_priority then [||]
    else
      Array.init n_conns (fun i ->
          Array.map
            (fun a ->
              fs_class_table
                ~local_rates:(Network.rates_at_gateway net ~rates a)
                ~rate:rates.(i))
            paths.(i))
  in
  (* Shard plans: canonical order everywhere is ascending component id,
     then ascending global id within the component. *)
  let comp_conns = Array.make n_comps [] in
  for i = n_conns - 1 downto 0 do
    comp_conns.(comp_of_conn.(i)) <- i :: comp_conns.(comp_of_conn.(i))
  done;
  let comp_gws = Array.make n_comps [] in
  for a = n_gws - 1 downto 0 do
    comp_gws.(comp_of_gw.(a)) <- a :: comp_gws.(comp_of_gw.(a))
  done;
  let conn_shard = Array.make n_conns 0 in
  let conn_local = Array.make n_conns 0 in
  let gw_local = Array.make n_gws 0 in
  let plans =
    Array.init shards (fun s ->
        let comps = ref [] in
        for c = n_comps - 1 downto 0 do
          if shard_of_comp.(c) = s then comps := c :: !comps
        done;
        let comps = !comps in
        let conns =
          List.concat_map (fun c -> comp_conns.(c)) comps |> Array.of_list
        in
        let gws = List.concat_map (fun c -> comp_gws.(c)) comps |> Array.of_list in
        Array.iteri (fun a_l a -> gw_local.(a) <- a_l) gws;
        Array.iteri
          (fun i_l i ->
            conn_shard.(i) <- s;
            conn_local.(i) <- i_l)
          conns;
        let comp_ord = ref (-1) and last_comp = ref (-1) in
        let sp_comp =
          Array.map
            (fun i ->
              let c = comp_of_conn.(i) in
              if c <> !last_comp then begin
                last_comp := c;
                incr comp_ord
              end;
              !comp_ord)
            conns
        in
        {
          sp_conns = conns;
          sp_gws = gws;
          sp_paths = Array.map (fun i -> Array.map (fun a -> gw_local.(a)) paths.(i)) conns;
          sp_rates = Array.map (fun i -> rates.(i)) conns;
          sp_comp;
          sp_n_comps = List.length comps;
          sp_tables =
            (if discipline = Fs_priority then Array.map (fun i -> fs_tables.(i)) conns
             else Array.make (Array.length conns) [||]);
          sp_events_per_time =
            List.fold_left (fun acc c -> acc +. comp_weight.(c)) 0. comps;
        })
  in
  let delay_hist =
    match Ffc_obs.Ctx.ambient () with
    | Some c ->
      Some (Ffc_obs.Metrics.histogram (Ffc_obs.Ctx.metrics c) "desim.delay")
    | None -> None
  in
  let qdisc = qdisc_of discipline in
  let run_shard (p : shard_plan) =
    let sim = Sim.create ~events_per_time:p.sp_events_per_time () in
    let pool = Packet.Pool.create ~initial:1024 () in
    let trc = Ffc_obs.Ctx.tracing () in
    (* Per-shard local tally (Histogram.Local): zero-sync observes in
       the event loop, one bulk flush into the shared histogram at
       the main-domain merge. *)
    let local_delays = Option.map Ffc_obs.Metrics.Histogram.Local.create delay_hist in
    (* Per-component delivery trace buffers — flushed in component
       order at the end so the trace stream is independent of how
       components were grouped into shards. *)
    let trace_buf = Array.make p.sp_n_comps [] in
    let trace_ord = Array.make p.sp_n_comps 0 in
    let on_deliver i_l delay =
      (match local_delays with
      | Some l -> Ffc_obs.Metrics.Histogram.Local.observe l delay
      | None -> ());
      match trc with
      | Some c ->
        (* Stride sampling on the component's own delivery ordinal —
           deterministic and sharding-independent. *)
        let comp = p.sp_comp.(i_l) in
        trace_ord.(comp) <- trace_ord.(comp) + 1;
        if Ffc_obs.Ctx.sample c trace_ord.(comp) then
          trace_buf.(comp) <-
            Ffc_obs.Event.desim_delivery ~time:(Sim.now sim) ~conn:p.sp_conns.(i_l) ~delay
            :: trace_buf.(comp)
      | None -> ()
    in
    let klass i_l hop =
      let a = p.sp_gws.(p.sp_paths.(i_l).(hop)) in
      draw_fs_class p.sp_tables.(i_l).(hop) class_rngs.(a) ~rate:p.sp_rates.(i_l)
    in
    let fabric =
      Fabric.create ~sim ~pool ~paths:p.sp_paths
        ~gateways:(Array.map (fun a -> (Network.gateway net a, server_rngs.(a))) p.sp_gws)
        ~qdisc ?buffer_limit
        ?klass:(if discipline = Fs_priority then Some klass else None)
        ~on_deliver ()
    in
    let emit pkt = Fabric.inject fabric pkt 0 in
    Array.iteri
      (fun i_l i ->
        Source.start
          (Source.create ~sim ~rng:source_rngs.(i) ~pool ~conn:i_l ~rate:p.sp_rates.(i_l)
             ~emit ()))
      p.sp_conns;
    Sim.run ~until:warmup sim;
    Measure.Flat.reset (Fabric.flat fabric) ~now:warmup;
    Sim.run ~until:horizon sim;
    (match trc with
    | Some c ->
      for comp = 0 to p.sp_n_comps - 1 do
        List.iter (Ffc_obs.Ctx.emit c) (List.rev trace_buf.(comp))
      done
    | None -> ());
    {
      so_flat = Fabric.flat fabric;
      so_events = Sim.events sim;
      so_injections = Fabric.injections fabric;
      so_hist = local_delays;
    }
  in
  (* The per-shard span is sched-gated like the pool.* events: shard
     membership depends on --shards, so it sits outside the trace
     byte-identity contract. *)
  let simulate (p : shard_plan) =
    match Ffc_obs.Ctx.tracing () with
    | Some c when Ffc_obs.Ctx.sched c ->
      Ffc_obs.Span.with_span
        ~attrs:[ ("conns", string_of_int (Array.length p.sp_conns)) ]
        "desim.shard"
        (fun () -> run_shard p)
    | _ -> run_shard p
  in
  let jobs = Pool.effective_jobs ?jobs () |> min shards in
  let outs = Pool.parallel_map ~jobs simulate plans in
  let total_events = Array.fold_left (fun acc o -> acc + o.so_events) 0 outs in
  let flats = Array.map (fun o -> o.so_flat) outs in
  (* Deterministic merge of the observability tallies (main domain). *)
  (match Ffc_obs.Ctx.ambient () with
  | Some c ->
    let m = Ffc_obs.Ctx.metrics c in
    let add name v = Ffc_obs.Metrics.Counter.add (Ffc_obs.Metrics.counter m name) v in
    add "desim.injections" (Array.fold_left (fun acc o -> acc + o.so_injections) 0 outs);
    add "desim.events" total_events;
    let delivered = ref 0 and dropped = ref 0 in
    for i = 0 to n_conns - 1 do
      let f = flats.(conn_shard.(i)) in
      delivered := !delivered + Measure.Flat.deliveries f ~conn:conn_local.(i);
      dropped := !dropped + Measure.Flat.drops f ~conn:conn_local.(i)
    done;
    add "desim.deliveries" !delivered;
    add "desim.drops" !dropped;
    (* Flush the per-shard tallies in shard order (workers are joined;
       the parent histogram takes one RMW per occupied bucket). *)
    Array.iter
      (fun o -> Option.iter Ffc_obs.Metrics.Histogram.Local.flush o.so_hist)
      outs
  | None -> ());
  (match Ffc_obs.Ctx.tracing () with
  | Some c ->
    let window = horizon -. warmup in
    for i = 0 to n_conns - 1 do
      let deliveries =
        Measure.Flat.deliveries flats.(conn_shard.(i)) ~conn:conn_local.(i)
      in
      Ffc_obs.Ctx.emit c
        (Ffc_obs.Event.desim_summary ~conn:i ~deliveries
           ~throughput:(float_of_int deliveries /. window))
    done
  | None -> ());
  {
    net;
    horizon;
    window = horizon -. warmup;
    paths;
    conn_shard;
    conn_local;
    flats;
    total_events;
    n_components = n_comps;
  }

let hop_of r ~gw ~conn =
  let path = r.paths.(conn) in
  let pos = ref (-1) in
  Array.iteri (fun k a -> if a = gw then pos := k) path;
  !pos

let mean_queue r ~gw ~conn =
  let hop = hop_of r ~gw ~conn in
  if hop < 0 then 0.
  else begin
    let f = r.flats.(r.conn_shard.(conn)) in
    Measure.Flat.mean_occupancy f
      ~slot:(Measure.Flat.slot f ~conn:r.conn_local.(conn) ~hop)
      ~now:r.horizon
  end

let total_mean_queue r ~gw =
  List.fold_left
    (fun acc conn -> acc +. mean_queue r ~gw ~conn)
    0.
    (Network.connections_at_gateway r.net gw)

let delay_mean r ~conn =
  Measure.Flat.delay_mean r.flats.(r.conn_shard.(conn)) ~conn:r.conn_local.(conn)

let delay_ci95 r ~conn =
  Measure.Flat.delay_ci95 r.flats.(r.conn_shard.(conn)) ~conn:r.conn_local.(conn)

let deliveries r ~conn =
  Measure.Flat.deliveries r.flats.(r.conn_shard.(conn)) ~conn:r.conn_local.(conn)

let drops r ~conn =
  Measure.Flat.drops r.flats.(r.conn_shard.(conn)) ~conn:r.conn_local.(conn)

let throughput r ~conn = float_of_int (deliveries r ~conn) /. r.window

let window r = r.window

let events r = r.total_events

let components r = r.n_components
