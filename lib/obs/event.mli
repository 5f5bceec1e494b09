(** JSONL trace-event constructors.

    Each function renders one self-contained JSON object (no trailing
    newline) whose first field is the ["ev"] discriminator.  Payloads
    are deterministic by construction — step indices, seeds, simulation
    time, model values; never wall-clock time — so traces are
    byte-identical across runs and pool schedules.  The two [pool_*]
    events are the exception (scheduling is inherently nondeterministic)
    and are only emitted when {!Ctx.t}'s [sched] flag is set.

    The full schema is documented in [docs/OBSERVABILITY.md]. *)

val run_start :
  cmd:string -> ?target:string -> ?seed:int -> stride:int -> unit -> string
(** First line of a CLI trace: subcommand, subject (experiment id or
    topology), optional fault seed, sampling stride.  Deliberately free
    of jobs/git/host fields — those live in the provenance manifest —
    so the trace stays byte-identical across [--jobs]. *)

val run_end : cmd:string -> unit -> string

val span_start :
  id:string ->
  name:string ->
  lc:int ->
  attrs:(string * string) list ->
  string
(** A {!Span} opened: hierarchical dotted id (["0.2.1"]), phase name,
    per-scope logical-clock tick, plus caller attributes (values are
    pre-rendered JSON fragments).  Fully deterministic. *)

val span_end :
  id:string ->
  name:string ->
  lc:int ->
  wall_ns:int ->
  alloc_w:int ->
  attrs:(string * string) list ->
  string
(** The matching close.  [wall_ns] (wall-clock duration) and [alloc_w]
    (minor words allocated) form the {e timing channel} — the only
    nondeterministic trace payload; both are 0 when the context's
    [timing] flag is off ([--trace-deterministic]). *)

val ctrl_step : step:int -> residual:float -> rates:float array -> string
(** One controller iteration: relative sup-norm residual and the full
    post-step rate vector.  Sampled at the context stride. *)

val ctrl_outcome : outcome:string -> steps:int -> string
(** [outcome] is ["converged"], ["cycle"], ["diverged"] or
    ["no_convergence"]; [steps] is respectively the convergence step,
    the period, the divergence step, or 0. *)

val sup_attempt : attempt:int -> damping:float -> string
(** Start of supervisor attempt [attempt] (0-based) at gain multiplier
    [damping]. *)

val sup_verdict :
  outcome:string ->
  attempts:int ->
  recovered:bool ->
  total_steps:int ->
  ?min_ratio:float ->
  unit ->
  string

val fault_drop : step:int -> conn:int -> string
(** A lossy fault suppressed connection [conn]'s update at [step].
    Sampled at the context stride. *)

val fault_cut : step:int -> gw:int -> active:bool -> string
(** A gateway-cut crossed a step boundary (activated or restored). *)

val fault_flap : step:int -> conn:int -> present:bool -> string
(** A flapping peer crossed a phase boundary: departed
    ([present = false]) or rejoined ([present = true]).  Sampled at the
    context stride. *)

(** {2 Online gateway service}

    Emitted by [Ffc_service]: one [svc.decision] per processed request,
    plus ladder transitions and snapshot publications.
    All payloads are model values (logical timestamps, never wall-clock
    time), so service traces obey the byte-identity contract. *)

val svc_decision :
  seq:int ->
  op:string ->
  ?conn:string ->
  decision:string ->
  tier:string ->
  ?rho:float ->
  ?min_ratio:float ->
  ?rate:float ->
  backlog:float ->
  unit ->
  string
(** One admission/removal/query decision: request sequence number,
    operation, the slot involved, admit/reject/ok, the degradation-ladder
    tier that served it, and the stability evidence (ρ(DF), Theorem-5
    min-ratio, the newcomer's steady rate) when computed. *)

val svc_degrade : seq:int -> from_tier:string -> to_tier:string -> string
(** The overload ladder stepped down (e.g. full → incremental). *)

val svc_recover : seq:int -> tier:string -> string
(** The ladder stepped back up after the backlog drained. *)

val svc_snapshot : seq:int -> bytes:int -> string
(** A crash-safe state snapshot was atomically published. *)

val desim_delivery : time:float -> conn:int -> delay:float -> string
(** Every [stride]-th packet delivery: simulation time and end-to-end
    delay. *)

val desim_summary : conn:int -> deliveries:int -> throughput:float -> string
(** Per-connection totals over the measurement window, at the end of a
    simulation run. *)

val pool_map : tasks:int -> jobs:int -> chunk:int -> string
(** A parallel fan-out completed (sched-gated: jobs-dependent). *)

val pool_chunk : start:int -> stop:int -> domain:int -> string
(** One self-scheduled chunk [start, stop) ran on worker slot [domain]
    (sched-gated: the attribution is scheduling-dependent). *)

val cache_lookup : tier:string -> key:string -> hit:bool -> string
(** One result-cache probe: memo tier, 32-hex content key, outcome.
    Cached {e values} are jobs-invariant, but on a cold parallel run
    two domains can race to the same key and both record a miss, so
    these events — like the [pool_*] pair — sit outside the trace
    byte-identity contract (see docs/CACHING.md). *)

val cache_store : tier:string -> key:string -> bytes:int -> string
(** A computed result was published to the store ([bytes] of payload). *)
