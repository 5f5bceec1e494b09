(** Composable, deterministic fault plans (paper §2.4, §3.4).

    The paper's robustness analysis (Theorem 5) asks what a flow-control
    design guarantees when components misbehave.  This module describes
    {e how} they misbehave: a [plan] is a seeded list of fault [spec]s
    that the {!Injector} applies between controller iterations,
    perturbing the feedback path (stale / lossy / corrupted / quantized
    signals), the population (dead and greedy connections — the §3.4
    adversary), and the plant itself (gateway capacity cut to a fraction
    and later restored).

    Plans are data: building one performs no randomness and installs
    nothing.  All stochastic faults (loss, noise) draw from per-connection
    SplitMix64 streams derived from the plan's seed, so the same plan on
    the same network yields bit-identical trajectories wherever and
    however often it runs. *)

open Ffc_topology

type kind =
  | Stale of { lag : int }
      (** The connection adjusts using the combined signal b_i from [lag]
          steps ago ([lag >= 1]) — a feedback packet stuck in a slow
          queue.  Before step [lag], the earliest available signal (step
          0's) is used.  Delays d_i are not lagged: the model's d is the
          round-trip estimate the source already smooths. *)
  | Lossy of { p : float }
      (** With probability [p] per step, the connection's update is
          skipped entirely — the feedback packet was dropped.  [p] in
          [0, 1]; [p = 1] freezes the connection. *)
  | Noisy of { sigma : float }
      (** Additive Gaussian noise on the signal: b_i ← clamp(b_i + σZ)
          to [0, 1].  [sigma >= 0]. *)
  | Quantized of { threshold : float }
      (** DECbit-style single-bit feedback: b_i ← 0 if b_i < threshold,
          1 otherwise.  [threshold] in (0, 1). *)
  | Dead
      (** The connection never adjusts: its rate is frozen at whatever it
          was when the fault activated (here: for the whole run). *)
  | Greedy of { ramp : float; cap : float }
      (** The §3.4 adversary: ignores congestion entirely and ramps
          r ← min(cap, r + ramp) every step.  [ramp > 0]; [cap] must be
          finite and positive (the queueing layer requires finite rates;
          pick a cap several times the bottleneck capacity to model
          unbounded greed). *)
  | Gateway_cut of { gw : int; fraction : float; from_step : int; until_step : int option }
      (** Gateway [gw]'s service rate is multiplied by [fraction]
          (in (0, 1]) from step [from_step] (inclusive) until
          [until_step] (exclusive); [None] means the degradation is
          permanent — the failure special case.  Connection targets are
          ignored for this kind. *)
  | Flap of { period : int; up : int }
      (** Churn at the fault layer: the connection periodically joins
          and leaves.  In each cycle of [period] steps it is present for
          the first [up] steps (adjusting normally, climbing back from
          wherever the last departure left it) and absent for the rest
          (rate forced to 0 — it consumes nothing and ignores feedback).
          Requires [period >= 2] and [1 <= up < period].  A flapping
          peer counts as misbehaving for Theorem 5: the min-ratio
          guarantee quantifies over the connections that stay. *)

type spec = { kind : kind; conns : int list option }
(** A fault and the connections it applies to; [None] means every
    connection.  [conns] is ignored by [Gateway_cut]. *)

val everywhere : kind -> spec
(** The fault applied to all connections. *)

val on : int list -> kind -> spec
(** The fault applied to the listed connection indices. *)

type plan = { seed : int; specs : spec list }

val plan : ?seed:int -> spec list -> plan
(** Bundle specs with a seed (default 0) for the stochastic faults'
    split RNG streams. *)

val none : plan
(** The empty plan: injecting it is exactly the unfaulted iteration. *)

val is_empty : plan -> bool

val restrict : plan -> keep:int array -> plan
(** The plan as seen by the sub-population [keep] (connection indices,
    ascending): targets renumbered to their positions in [keep], targets
    outside it dropped, and specs left with no target dropped. *)

val validate : plan -> net:Network.t -> unit
(** Raises [Invalid_argument] when a parameter is out of range, a
    connection or gateway index does not exist in [net], a gateway cut
    has [until_step <= from_step], or a connection is targeted by both
    [Dead] and [Greedy] (mutually exclusive misbehaviors). *)

val horizon : plan -> int
(** The first step index from which the plan's iteration map is
    time-invariant: the latest gateway-cut boundary ([until_step], or
    [from_step] for a permanent cut); 0 when no cut is scheduled.
    Supervised runs pass this as [min_steps] to
    {!Ffc_core.Controller.run_map} so a temporary fixed point under a
    transient cut is not mistaken for convergence. *)

val misbehaving : plan -> n:int -> bool array
(** Which of the [n] connections run an adversarial algorithm ([Dead] or
    [Greedy]) under the plan.  Theorem 5's guarantee quantifies over the
    {e complement}: the well-behaved connections. *)

val describe : plan -> string list
(** One human-readable line per spec (empty list for {!none}); used in
    supervisor verdicts and experiment tables. *)
