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

(* Flows per simulation block, the locality unit.  A block's servers,
   sources, packets and calendar stay cache-resident while it runs; the
   value comes from a measured sweep (docs/DESIM.md §4). *)
let block_flows = 32

type result = {
  net : Network.t;
  horizon : float;
  window : float;
  paths : int array array;  (** Global gateway paths per connection. *)
  conn_block : int array;
  conn_local : int array;
  flats : Measure.Flat.t array;  (** Per block, locally indexed. *)
  total_events : int;
  n_components : int;
}

type block_out = {
  bo_flat : Measure.Flat.t;
  bo_events : int;
  bo_injections : int;
  bo_hist : Ffc_obs.Metrics.Histogram.Local.t option;
      (* per-block delay tally; flushed into "desim.delay" at the join *)
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
  (* Canonical order is ascending component id, then ascending global
     id within the component.  [conn_order] lists every connection in
     that order, component [c]'s at indices [conn_start.(c)] to
     [conn_start.(c + 1) - 1]; likewise [gw_order] for gateways. *)
  let by_component n comp_of =
    let start = Array.make (n_comps + 1) 0 in
    for x = 0 to n - 1 do
      start.(comp_of.(x) + 1) <- start.(comp_of.(x) + 1) + 1
    done;
    for c = 0 to n_comps - 1 do
      start.(c + 1) <- start.(c + 1) + start.(c)
    done;
    let fill = Array.sub start 0 n_comps in
    let order = Array.make n 0 in
    for x = 0 to n - 1 do
      let c = comp_of.(x) in
      order.(fill.(c)) <- x;
      fill.(c) <- fill.(c) + 1
    done;
    (order, start)
  in
  let conn_order, conn_start = by_component n_conns comp_of_conn in
  let gw_order, gw_start = by_component n_gws comp_of_gw in
  (* Blocks: consecutive components of at most [block_flows] flows
     together (a larger component alone) — fixed by the topology, so no
     statistic, trace or tally depends on the shard count. *)
  let block_comp =
    let cuts = ref [ 0 ] and fill = ref 0 in
    for c = 0 to n_comps - 1 do
      let flows = conn_start.(c + 1) - conn_start.(c) in
      if !fill > 0 && !fill + flows > block_flows then begin
        cuts := c :: !cuts;
        fill := 0
      end;
      fill := !fill + flows
    done;
    Array.of_list (List.rev (n_comps :: !cuts))
  in
  let n_blocks = Array.length block_comp - 1 in
  (* Local indices: a connection's (and a gateway's) position within its
     block, in canonical order.  Block weights (expected events per unit
     time) drive both each block's wheel tick and the shard partition. *)
  let conn_block = Array.make n_conns 0 in
  let conn_local = Array.make n_conns 0 in
  let gw_local = Array.make n_gws 0 in
  let block_weight = Array.make n_blocks 0. in
  for b = 0 to n_blocks - 1 do
    let c0 = block_comp.(b) and c1 = block_comp.(b + 1) in
    for k = conn_start.(c0) to conn_start.(c1) - 1 do
      let i = conn_order.(k) in
      conn_block.(i) <- b;
      conn_local.(i) <- k - conn_start.(c0);
      block_weight.(b) <-
        block_weight.(b) +. (rates.(i) *. float_of_int ((2 * Array.length paths.(i)) + 2))
    done;
    for k = gw_start.(c0) to gw_start.(c1) - 1 do
      gw_local.(gw_order.(k)) <- k - gw_start.(c0)
    done
  done;
  (* A shard, the parallel unit, is a contiguous run of blocks balanced
     by cumulative weight: block [b] goes to the shard its weight-prefix
     ratio lands in — monotone in [b], hence contiguous.  Shard [s] runs
     blocks [shard_block.(s)] to [shard_block.(s + 1) - 1]. *)
  let shards = min shards n_blocks |> max 1 in
  let total_weight = Array.fold_left ( +. ) 0. block_weight in
  let shard_block = Array.make (shards + 1) n_blocks in
  let next = ref 0 and cum = ref 0. in
  for b = 0 to n_blocks - 1 do
    let s =
      if total_weight <= 0. then b * shards / n_blocks
      else min (shards - 1) (int_of_float (!cum /. total_weight *. float_of_int shards))
    in
    while !next <= s do
      shard_block.(!next) <- b;
      incr next
    done;
    cum := !cum +. block_weight.(b)
  done;
  (* Per-entity SplitMix64 streams, pre-split in fixed global order so a
     component's draws never depend on blocking or sharding (the E23
     per-task-stream pattern). *)
  let root_rng = Rng.create seed in
  let server_rngs = Array.init n_gws (fun _ -> Rng.split root_rng) in
  let class_rngs = Array.init n_gws (fun _ -> Rng.split root_rng) in
  let source_rngs = Array.init n_conns (fun _ -> Rng.split root_rng) in
  let delay_hist =
    match Ffc_obs.Ctx.ambient () with
    | Some c ->
      Some (Ffc_obs.Metrics.histogram (Ffc_obs.Ctx.metrics c) "desim.delay")
    | None -> None
  in
  let qdisc = qdisc_of discipline in
  (* One block, alone from 0 through the warm-up to the horizon, on its
     own calendar, packet pool and tallies.  Its local plan is built
     here, on the worker, right before it runs. *)
  let run_block b =
    let c0 = block_comp.(b) and c1 = block_comp.(b + 1) in
    let slice order start = Array.sub order start.(c0) (start.(c1) - start.(c0)) in
    let conns = slice conn_order conn_start and gws = slice gw_order gw_start in
    let l_paths = Array.map (fun i -> Array.map (fun a -> gw_local.(a)) paths.(i)) conns in
    let l_rates = Array.map (fun i -> rates.(i)) conns in
    let sim = Sim.create ~events_per_time:block_weight.(b) () in
    let pool = Packet.Pool.create ~initial:(max 1 (Array.length conns)) () in
    let trc = Ffc_obs.Ctx.tracing () in
    (* Per-block local tally (Histogram.Local): zero-sync observes in
       the event loop, one bulk flush into the shared histogram at the
       main-domain merge, in block order. *)
    let local_delays = Option.map Ffc_obs.Metrics.Histogram.Local.create delay_hist in
    (* Per-component delivery trace buffers — flushed in component
       order at the end so the trace stream is independent of how
       components were grouped. *)
    let trace_buf = Array.make (c1 - c0) [] in
    let trace_ord = Array.make (c1 - c0) 0 in
    let on_deliver i_l delay =
      (match local_delays with
      | Some l -> Ffc_obs.Metrics.Histogram.Local.observe l delay
      | None -> ());
      match trc with
      | Some c ->
        (* Stride sampling on the component's own delivery ordinal —
           deterministic and independent of the grouping. *)
        let i = conns.(i_l) in
        let comp = comp_of_conn.(i) - c0 in
        trace_ord.(comp) <- trace_ord.(comp) + 1;
        if Ffc_obs.Ctx.sample c trace_ord.(comp) then
          trace_buf.(comp) <-
            Ffc_obs.Event.desim_delivery ~time:(Sim.now sim) ~conn:i ~delay
            :: trace_buf.(comp)
      | None -> ()
    in
    let klass =
      if discipline <> Fs_priority then None
      else begin
        (* Fair Share thinning tables, one per (connection, hop). *)
        let gw_rates = Array.map (fun a -> Network.rates_at_gateway net ~rates a) gws in
        let tables =
          Array.mapi
            (fun i_l path ->
              Array.map
                (fun a_l -> fs_class_table ~local_rates:gw_rates.(a_l) ~rate:l_rates.(i_l))
                path)
            l_paths
        in
        Some
          (fun i_l hop ->
            let a = gws.(l_paths.(i_l).(hop)) in
            draw_fs_class tables.(i_l).(hop) class_rngs.(a) ~rate:l_rates.(i_l))
      end
    in
    let fabric =
      Fabric.create ~sim ~pool ~paths:l_paths
        ~gateways:(Array.map (fun a -> (Network.gateway net a, server_rngs.(a))) gws)
        ~qdisc ?buffer_limit ?klass ~on_deliver ()
    in
    let emit pkt = Fabric.inject fabric pkt 0 in
    Array.iteri
      (fun i_l i ->
        Source.start
          (Source.create ~sim ~rng:source_rngs.(i) ~pool ~conn:i_l ~rate:l_rates.(i_l)
             ~emit ()))
      conns;
    Sim.run ~until:warmup sim;
    Measure.Flat.reset (Fabric.flat fabric) ~now:warmup;
    Sim.run ~until:horizon sim;
    (match trc with
    | Some c ->
      Array.iter (fun buf -> List.iter (Ffc_obs.Ctx.emit c) (List.rev buf)) trace_buf
    | None -> ());
    {
      bo_flat = Fabric.flat fabric;
      bo_events = Sim.events sim;
      bo_injections = Fabric.injections fabric;
      bo_hist = local_delays;
    }
  in
  (* A shard — the parallel unit — runs its blocks one after another.
     Its span is sched-gated like the pool.* events: shard membership
     depends on --shards, so it sits outside the trace byte-identity
     contract. *)
  let simulate s =
    let b0 = shard_block.(s) and b1 = shard_block.(s + 1) in
    let run () = Array.init (b1 - b0) (fun k -> run_block (b0 + k)) in
    match Ffc_obs.Ctx.tracing () with
    | Some c when Ffc_obs.Ctx.sched c ->
      let conns = conn_start.(block_comp.(b1)) - conn_start.(block_comp.(b0)) in
      Ffc_obs.Span.with_span ~attrs:[ ("conns", string_of_int conns) ] "desim.shard" run
    | _ -> run ()
  in
  let jobs = Pool.effective_jobs ?jobs () |> min shards in
  let outs =
    Pool.parallel_map ~jobs simulate (Array.init shards Fun.id)
    |> Array.to_list |> Array.concat
  in
  let total_events = Array.fold_left (fun acc o -> acc + o.bo_events) 0 outs in
  let flats = Array.map (fun o -> o.bo_flat) outs in
  (* Deterministic merge of the observability tallies (main domain). *)
  (match Ffc_obs.Ctx.ambient () with
  | Some c ->
    let m = Ffc_obs.Ctx.metrics c in
    let add name v = Ffc_obs.Metrics.Counter.add (Ffc_obs.Metrics.counter m name) v in
    add "desim.injections" (Array.fold_left (fun acc o -> acc + o.bo_injections) 0 outs);
    add "desim.events" total_events;
    let delivered = ref 0 and dropped = ref 0 in
    for i = 0 to n_conns - 1 do
      let f = flats.(conn_block.(i)) in
      delivered := !delivered + Measure.Flat.deliveries f ~conn:conn_local.(i);
      dropped := !dropped + Measure.Flat.drops f ~conn:conn_local.(i)
    done;
    add "desim.deliveries" !delivered;
    add "desim.drops" !dropped;
    (* Flush the per-block tallies in block order (workers are joined;
       the parent histogram takes one RMW per occupied bucket), so the
       float sum is the same at any shard count. *)
    Array.iter
      (fun o -> Option.iter Ffc_obs.Metrics.Histogram.Local.flush o.bo_hist)
      outs
  | None -> ());
  (match Ffc_obs.Ctx.tracing () with
  | Some c ->
    let window = horizon -. warmup in
    for i = 0 to n_conns - 1 do
      let deliveries =
        Measure.Flat.deliveries flats.(conn_block.(i)) ~conn:conn_local.(i)
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
    conn_block;
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
    let f = r.flats.(r.conn_block.(conn)) in
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
  Measure.Flat.delay_mean r.flats.(r.conn_block.(conn)) ~conn:r.conn_local.(conn)

let delay_ci95 r ~conn =
  Measure.Flat.delay_ci95 r.flats.(r.conn_block.(conn)) ~conn:r.conn_local.(conn)

let deliveries r ~conn =
  Measure.Flat.deliveries r.flats.(r.conn_block.(conn)) ~conn:r.conn_local.(conn)

let drops r ~conn =
  Measure.Flat.drops r.flats.(r.conn_block.(conn)) ~conn:r.conn_local.(conn)

let throughput r ~conn = float_of_int (deliveries r ~conn) /. r.window

let window r = r.window

let events r = r.total_events

let components r = r.n_components
