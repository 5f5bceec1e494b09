(** The online admission-control engine.

    A long-running gateway service over a fixed universe of connection
    slots: [add] activates an idle slot (a flow arrives), [remove]
    deactivates it (the flow's document finished).  Each [add] runs an
    {e admission test} in the spirit of Musacchio–Walrand ingress
    discarding — the flow enters only when the network can absorb it:

    - the candidate fair steady state gives the newcomer at least
      [min_rate] (its minimum useful throughput);
    - the Theorem-5 min-ratio check passes: every active flow keeps at
      least [1 − epsilon] of its reservation baseline
      ({!Ffc_core.Robustness.baselines_masked} against the candidate
      population);
    - the candidate steady state is systemically stable: ρ(DF) < 1.

    Rejected flows are discarded at ingress — engine state is
    untouched.

    {b One pipeline.}  Every request computes the candidate rates with
    {!Ffc_core.Steady_state.update_fair} and the candidate DF with
    {!Ffc_core.Jacobian.update_flow}, patching the committed DF, which
    always exists: {!create} builds it at the idle point and {!restore}
    at the restored rates.  Both patches are bit-for-bit the
    from-scratch solves.  The served tier only decides how ρ(DF) is
    obtained.

    {b The degradation ladder.}  Work is accounted on a logical clock:
    each request carries an arrival time [t] (stamped by the churn
    driver) and each served tier has a logical cost; the {e backlog}
    [vclock − t] measures overload.  As it grows the engine degrades,
    tier by tier, and every response records the tier that served it:

    - {b full}: patched rates and DF, exact spectral radius (idle
      default — the most accurate answer);
    - {b incremental}: patched rates and DF, with the cheap
      [spectral_radius_incremental] estimate (structural diagonal or a
      cross-checked power iteration);
    - {b cached}: patched rates, but ρ(DF) is the cached previous
      value ([rho_fresh = false] in responses) — no Jacobian work at
      all;
    - {b shed}: beyond the last threshold an [add] is rejected at
      ingress without touching the solvers (removals are never shed —
      departures must always be processed).

    When the backlog drains the ladder steps back up; transitions are
    counted and traced ([svc.degrade]/[svc.recover]).

    {b Degrade on [Failure].}  Solves are deterministic, so they are
    never retried.  A DF or ρ solve that raises [Failure] (a
    non-finite adjuster output, QR non-convergence) steps the request
    one rung down — full → incremental → cached — and the cached rung
    cannot fail.  Every solved reply reports [attempts = 1]; a shed one
    reports 0.

    {b Batched admission.}  {!handle_batch} admits a whole bracket of
    adds as one rank-k solve: member rates come from a chain of
    {!Ffc_core.Steady_state.update_fair} patches (bit-identical to the
    serial rates by the incremental-kernel contract) and the expensive
    stability evidence — DF and ρ(DF) — is computed once, on the
    batch-final accepted mask.  Per-member verdicts bit-match serial
    execution whenever ρ stays on one side of 1 across the batch (the
    regular case); if the single check lands at ρ ≥ 1 the candidates
    are replayed serially against committed state, reproducing the
    greedy serial verdicts including which member crosses the line.

    Determinism contract: every response line is a pure function of the
    request stream and the configuration — byte-identical at any
    [--jobs], across restarts from a snapshot, and across cache
    cold/warm runs. *)

open Ffc_topology
open Ffc_core
open Ffc_faults

type tier = Full | Incremental | Cached

val tier_label : tier -> string
(** ["full"], ["incremental"], ["cached"]. *)

type config = {
  signal : Signal.t;
  b_ss : float;  (** Steady signal pinning the fair steady state. *)
  epsilon : float;  (** Theorem-5 slack: admit only if min-ratio ≥ 1−ε. *)
  min_rate : float;  (** Ingress discard: newcomer needs at least this. *)
  backlog_incremental : float;  (** Backlog at which full → incremental. *)
  backlog_cached : float;  (** Backlog at which incremental → cached. *)
  backlog_shed : float;  (** Backlog beyond which adds are shed. *)
  cost_full : float;  (** Logical service cost per tier... *)
  cost_incremental : float;
  cost_cached : float;
  cost_shed : float;  (** ...including the cost of saying no. *)
  cost_query : float;
  plan : Fault.plan;  (** Fault plan for [query]'s supervised verdict. *)
  sup_retries : int;  (** Supervisor damping retries for [query]. *)
  escape : float;  (** Supervisor divergence threshold for [query]. *)
}

val default_config : config
(** linear-fractional signal, b_SS 0.5, ε 1e-6, min_rate 0, ladder at
    backlog 0.5 / 2 / 8 logical seconds with costs 0.05 / 0.01 / 0.002 /
    5e-4 (query 0.05), empty fault plan, 3 supervisor retries. *)

type t

val create : ?config:config -> Controller.t -> net:Network.t -> t
(** A fresh engine over [net]'s slots, all idle, with DF built at the
    idle point.  Raises [Invalid_argument] on a malformed configuration,
    and when that DF raises [Failure] (idle slots sit at rate 0 in every
    DF, so such an engine could never compute one). *)

type reply = { line : string; mutated : bool }
(** One response line (no trailing newline) and whether the request
    committed a join/leave (drives the server's snapshot cadence). *)

val handle : ?sid:int -> t -> Protocol.request -> reply
(** Serve [Add]/[Remove]/[Query]/[Stats].  [Metrics]/[Snapshot]/
    [Shutdown] are the server's business, and [Batch_begin]/[Batch_end]
    are session-level bracket state (use {!handle_batch}); all raise
    [Invalid_argument] here.  [sid] tags the request's span with the
    serving session (attribute only — replies never carry it).

    Read-only verbs are {e never} refused: past the shed threshold a
    [query] is answered from the last committed state (tier ["shed"],
    verdict withheld, [stale=true]) at shed cost, a [query] in the
    cached band skips the verdict machinery and is likewise tagged
    [stale=true], and [stats] is free — no vclock charge — reporting
    tier ["shed"] with [stale=true] when overloaded.

    When an ambient {!Ffc_obs.Ctx} is installed, every request runs
    under a ["svc.request"] span (op at start; served tier and decision
    as end attributes) and its wall-clock latency is observed in the
    per-tier [service.latency.<tier>] histogram (zeroed under
    [--trace-deterministic], like the span timing channel). *)

val handle_batch : ?sid:int -> t -> Protocol.add list -> reply list
(** Admit a bracket of adds as one rank-k solve (see the module
    preamble).  Returns exactly [length adds + 1] replies: one per
    member, in request order, each carrying a ["batch"] field with the
    bracket size, then a trailing batch summary
    ([op = "batch"], member tallies, the batch tier and ρ).  Member
    tiers never leave the full/incremental/cached/shed vocabulary:
    admitted members report the tier that served the batch's stability
    check ("cached" when its evidence is stale), per-member rejections report
    ["cached"] (they only received patch work).  When an ambient
    {!Ffc_obs.Ctx} is installed the whole bracket runs under a single
    ["svc.batch"] span — the observable witness that a batch of K adds
    performs exactly one ρ(DF) check. *)

val next_seq : t -> int
(** Claim the next request sequence number (used by the server for the
    snapshot/shutdown replies it composes itself). *)

(** {2 Introspection} *)

val net : t -> Network.t
val active : t -> bool array
val active_count : t -> int
val rates : t -> float array
val rho : t -> float
val seq : t -> int
val mutations : t -> int
val vclock : t -> float
val config_digest : t -> string
(** Hex fingerprint of everything that must match for a snapshot to be
    restorable: topology, adjusters, signal, thresholds, costs,
    supervisor settings, fault plan. *)

(** {2 Snapshot integration} *)

val state : t -> Snapshot.state
(** The engine's resumable state (digest included). *)

val restore : t -> Snapshot.state -> (unit, string) result
(** Adopt a snapshot taken by an identically-configured engine; refuses
    (with a message) on digest or size mismatch, and when a stored rate
    differs in any bit from the fair steady state of the stored active
    set, which restore re-derives from scratch.  DF is rebuilt at the
    restored rates before the first request, so the resumed engine
    serves — and traces — exactly as the uninterrupted one.  Where that
    DF raises [Failure] the engine keeps its current DF as the patch
    base, and requests degrade to cached as they would have before the
    restart. *)
