(** The packet path of a simulated network (paper §2.1), shared by
    {!Netsim} and the closed loops.

    One exponential {!Server} per gateway.  A packet injected at hop [h]
    of its connection's path enters that gateway's system (its
    {!Measure.Flat} occupancy slot goes up), and on departure either
    travels the gateway's outgoing line latency to the next hop or, at
    the last hop, to its destination, where its end-to-end delay is
    recorded and it is freed.  With a [buffer_limit] an arrival finding
    the gateway full is dropped at the door: the occupancy it was
    credited is taken back, the drop is counted and the packet is freed.

    Callers create their own {!Source}s on the same {!Sim} and pool,
    with [emit = fun pkt -> inject t pkt 0]. *)

type t

val create :
  sim:Sim.t ->
  pool:Packet.Pool.t ->
  paths:int array array ->
  gateways:(Ffc_topology.Network.gateway * Ffc_numerics.Rng.t) array ->
  qdisc:Qdisc.t ->
  ?buffer_limit:int ->
  ?klass:(int -> int -> int) ->
  ?on_deliver:(int -> float -> unit) ->
  unit ->
  t
(** [paths.(i)] lists connection [i]'s gateways as indices into
    [gateways], which gives each gateway's [mu] and [latency] and the
    stream its server draws work from.  [klass conn hop], when given,
    picks the priority class of a packet entering hop [hop] (Fair Share
    thinning); without it every packet keeps class 0.  [on_deliver conn
    delay] observes each delivery after it is recorded.  Raises
    [Invalid_argument] when [buffer_limit < 1] or a gateway's [mu] is not
    positive. *)

val inject : t -> Packet.id -> int -> unit
(** [inject t pkt hop]: the packet arrives at hop [hop] of its path. *)

val flat : t -> Measure.Flat.t
(** Occupancy, delay, delivery and drop statistics, one slot per
    (connection, hop). *)

val injections : t -> int
(** Gateway arrivals so far, dropped ones included. *)
