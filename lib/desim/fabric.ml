type t = {
  sim : Sim.t;
  pool : Packet.Pool.t;
  paths : int array array;
  flat : Measure.Flat.t;
  klass : (int -> int -> int) option;
  mutable servers : Server.t array;
  mutable injections : int;
}

let inject t pkt hop =
  let i = Packet.Pool.conn t.pool pkt in
  Packet.Pool.set_hop t.pool pkt hop;
  (match t.klass with
  | Some draw -> Packet.Pool.set_klass t.pool pkt (draw i hop)
  | None -> ());
  t.injections <- t.injections + 1;
  Measure.Flat.incr t.flat
    ~slot:(Measure.Flat.slot t.flat ~conn:i ~hop)
    ~now:(Sim.now t.sim);
  Server.inject t.servers.(t.paths.(i).(hop)) pkt

(* The packet leaves its current gateway's system (departure or drop);
   returns its connection. *)
let leave t pkt =
  let i = Packet.Pool.conn t.pool pkt in
  let hop = Packet.Pool.hop t.pool pkt in
  Measure.Flat.decr t.flat
    ~slot:(Measure.Flat.slot t.flat ~conn:i ~hop)
    ~now:(Sim.now t.sim);
  i

let create ~sim ~pool ~paths ~gateways ~qdisc ?buffer_limit ?klass
    ?(on_deliver = fun _ _ -> ()) () =
  let t =
    {
      sim;
      pool;
      paths;
      flat = Measure.Flat.create ~paths;
      klass;
      servers = [||];
      injections = 0;
    }
  in
  let h_forward = Sim.register sim (fun pkt hop -> inject t pkt hop) in
  let deliver pkt =
    let i = Packet.Pool.conn pool pkt in
    let delay = Sim.now sim -. Packet.Pool.born pool pkt in
    Measure.Flat.record_delay t.flat ~conn:i delay;
    Measure.Flat.count_delivery t.flat ~conn:i;
    on_deliver i delay;
    Packet.Pool.free pool pkt
  in
  let h_deliver = Sim.register sim (fun pkt _ -> deliver pkt) in
  let on_depart latency pkt =
    let i = leave t pkt in
    let hop = Packet.Pool.hop pool pkt in
    if hop < Array.length paths.(i) - 1 then
      Sim.schedule_code_after sim ~delay:latency ~handler:h_forward ~a:pkt ~b:(hop + 1)
    else if latency > 0. then
      Sim.schedule_code_after sim ~delay:latency ~handler:h_deliver ~a:pkt ~b:0
    else deliver pkt
  in
  let on_drop pkt =
    Measure.Flat.count_drop t.flat ~conn:(leave t pkt);
    Packet.Pool.free pool pkt
  in
  t.servers <-
    Array.map
      (fun ((g : Ffc_topology.Network.gateway), rng) ->
        Server.create ~sim ~rng ~pool ~mu:g.mu ~qdisc ?buffer_limit ~on_drop
          ~on_depart:(on_depart g.latency) ())
      gateways;
  t

let flat t = t.flat

let injections t = t.injections
