(** Packet-level simulation of a whole network (paper §2.1 made
    concrete).

    Assembles Poisson sources, exponential servers, and line latencies
    from a {!Ffc_topology.Network.t} on the shared packet path
    ({!Fabric}); runs to a horizon; and reports time-average
    per-connection queue lengths at every gateway, end-to-end delays,
    and delivered throughput over the post-warmup window.  Used to
    validate the analytic Q(r) functions (experiment E12), to study
    feedback with real delays (E13), and — on a struct-of-arrays packet
    pool, coded events and a timing-wheel calendar — to reach 10⁵–10⁶
    concurrent connections (E27).

    {b Blocks and shards.}  The network is decomposed into connected
    components (gateway domains no connection crosses between).
    Consecutive components are grouped into {e blocks} of about 32 flows
    (a larger component is a block of its own); the topology alone fixes
    the blocks.  Each block runs alone from time 0 through the warm-up
    to the horizon on its own calendar, packet pool and tallies, so its
    working set stays in cache.  [shards] cuts the blocks into
    contiguous, weight-balanced runs simulated on
    {!Ffc_numerics.Pool} domains, each running its blocks one after
    another.  Every entity (server, class drawer, source) owns a
    SplitMix64 stream pre-split from the seed in fixed global order, so
    a component's sample path — and therefore every reported statistic
    and the [desim.delay] histogram — is bit-identical whatever the
    shard count or [jobs]; trace events are emitted grouped by component
    in canonical component order, which makes traced runs byte-identical
    too.

    The Fair Share discipline is realized exactly as §2.2 defines it:
    each packet is independently thinned into a priority level with
    probability proportional to the level's rate increment, and gateways
    run preemptive-resume priority service. *)

open Ffc_topology

type discipline =
  | Fifo
  | Fs_priority  (** Fair Share: thinning + preemptive priority. *)
  | Fair_queueing  (** Bid-based Demers–Keshav–Shenker fair queueing. *)

val qdisc_of : discipline -> Qdisc.t
(** The gateway queue discipline that realises [discipline]. *)

val fs_class_table : local_rates:float array -> rate:float -> (int * float) array
(** Fair Share thinning table of a connection sending at [rate] through
    a gateway whose connections send at [local_rates]: cumulative
    [(class, rate)] pairs, one per priority level the connection takes
    part in, the level's share proportional to its rate increment.
    Empty when [rate <= 0]. *)

val draw_fs_class : (int * float) array -> Ffc_numerics.Rng.t -> rate:float -> int
(** Draws a packet's class from a {!fs_class_table}: one uniform draw,
    taken even when the table is empty (class 0). *)

type result

val run :
  net:Network.t ->
  rates:float array ->
  discipline:discipline ->
  seed:int ->
  ?warmup:float ->
  ?shards:int ->
  ?jobs:int ->
  ?buffer_limit:int ->
  horizon:float ->
  unit ->
  result
(** Simulates with per-connection Poisson rates [rates]. Statistics cover
    [(warmup, horizon)]; [warmup] defaults to 10% of the horizon.

    [shards] (default 1; clamped to the block count) splits the
    blocks over up to [jobs] domains — results, traces and tallies are
    byte-identical at any [shards]/[jobs].
    [buffer_limit] caps each gateway's system occupancy, arrivals
    beyond it are dropped at the door (counted in {!drops}).

    Raises [Invalid_argument] on negative or non-finite rates, a
    rate-vector length mismatch, [horizon <= warmup], [shards < 1] or
    [buffer_limit < 1], before any simulation starts. *)

val mean_queue : result -> gw:int -> conn:int -> float
(** Time-average number of connection [conn]'s packets at gateway [gw] —
    the simulated Q^a_i. 0 when the connection does not cross the
    gateway. *)

val total_mean_queue : result -> gw:int -> float

val delay_mean : result -> conn:int -> float
val delay_ci95 : result -> conn:int -> float
val throughput : result -> conn:int -> float
(** Delivered packets per unit time over the measurement window. *)

val deliveries : result -> conn:int -> int
val drops : result -> conn:int -> int
(** Packets of [conn] dropped at full gateways ([buffer_limit] runs). *)

val window : result -> float
(** Length of the measurement window. *)

val events : result -> int
(** Simulation events executed (arrivals, completions, forwards,
    deliveries) — the work measure behind events/sec benchmarks.
    Independent of the shard count. *)

val components : result -> int
(** Independent gateway domains found in the topology. *)
