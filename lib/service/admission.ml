open Ffc_numerics
open Ffc_topology
open Ffc_core
open Ffc_faults

type tier = Full | Incremental | Cached

let tier_label = function
  | Full -> "full"
  | Incremental -> "incremental"
  | Cached -> "cached"

(* Ladder position of a served request, "shed" included; lower is
   healthier.  Transitions between successive requests are the
   degrade/recover events. *)
let rank_of_label = function
  | "full" -> 0
  | "incremental" -> 1
  | "cached" -> 2
  | "shed" -> 3
  | _ -> 3

type config = {
  signal : Signal.t;
  b_ss : float;
  epsilon : float;
  min_rate : float;
  backlog_incremental : float;
  backlog_cached : float;
  backlog_shed : float;
  cost_full : float;
  cost_incremental : float;
  cost_cached : float;
  cost_shed : float;
  cost_query : float;
  plan : Fault.plan;
  sup_retries : int;
  escape : float;
}

let default_config =
  {
    signal = Signal.linear_fractional;
    b_ss = 0.5;
    epsilon = 1e-6;
    min_rate = 0.;
    backlog_incremental = 0.5;
    backlog_cached = 2.;
    backlog_shed = 8.;
    cost_full = 0.05;
    cost_incremental = 0.01;
    cost_cached = 0.002;
    cost_shed = 5e-4;
    cost_query = 0.05;
    plan = Fault.none;
    sup_retries = 3;
    escape = 1e12;
  }

type t = {
  config : config;
  controller : Controller.t;
  net : Network.t;
  n : int;
  names : string array;
  index_of : (string, int) Hashtbl.t;
  b_ss_per_conn : float array;  (* declared adjuster b_SS, config default *)
  digest : string;
  mutable active : bool array;
  mutable ss : Vec.t;
  (* DF and the point it was built at — the base every Jacobian patch
     starts from.  It trails [ss] after a cached-tier commit, which is
     fine: a patch's result does not depend on its base. *)
  mutable df : Mat.Sparse.t;
  mutable df_at : Vec.t;
  mutable rho : float;
  mutable rho_fresh : bool;
  mutable vclock : float;
  mutable last_time : float;
  mutable seq_counter : int;
  mutable mutation_count : int;
  mutable last_tier : string;
  (* Named counters, in the order stats replies and snapshots list
     them.  The served_<rung> ones count decision events only (add and
     remove, not read-only verbs) — what `ffc trace report` cross checks
     against the span stream. *)
  counts : (string * int ref) list;
}

let counters t = List.map (fun (k, v) -> (k, !v)) t.counts

(* Bump a counter; all but the served_<rung> tallies are mirrored in the
   metrics registry as service.<name>. *)
let bump ?(metric = true) t name =
  incr (List.assoc name t.counts);
  if metric then Ffc_obs.Ctx.incr_named ("service." ^ name)

(* Everything a snapshot must have been taken under for restore to be
   sound: the model, the admission thresholds, the ladder geometry and
   the query supervisor's parameters. *)
let compute_digest ~config:c ~controller ~net =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Dsl.to_string net);
  Array.iter
    (fun a ->
      Buffer.add_string buf (Rate_adjust.name a);
      Buffer.add_char buf '\n')
    (Controller.adjusters controller);
  List.iter (fun s -> Buffer.add_string buf (s ^ "\n")) (Fault.describe c.plan);
  Buffer.add_string buf
    (Printf.sprintf "%s|%h|%h|%h|%h|%h|%h|%h|%h|%h|%h|%h|%d|%h"
       (Signal.name c.signal) c.b_ss c.epsilon c.min_rate c.backlog_incremental
       c.backlog_cached c.backlog_shed c.cost_full c.cost_incremental
       c.cost_cached c.cost_shed c.cost_query c.sup_retries c.escape);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let create ?(config = default_config) controller ~net =
  let n = Network.num_connections net in
  if Array.length (Controller.adjusters controller) <> n then
    invalid_arg "Admission.create: adjuster count does not match the network";
  if not (config.b_ss > 0. && config.b_ss < 1.) then
    invalid_arg "Admission.create: b_ss must be in (0,1)";
  if
    not
      (config.backlog_incremental >= 0.
      && config.backlog_cached >= config.backlog_incremental
      && config.backlog_shed >= config.backlog_cached)
  then invalid_arg "Admission.create: ladder thresholds must be nondecreasing";
  Fault.validate config.plan ~net;
  let names =
    Array.init n (fun i -> (Network.connection net i).Network.conn_name)
  in
  let index_of = Hashtbl.create (2 * n) in
  Array.iteri (fun i name -> Hashtbl.replace index_of name i) names;
  let b_ss_per_conn =
    Array.map
      (fun a -> Option.value (Rate_adjust.declared_b_ss a) ~default:config.b_ss)
      (Controller.adjusters controller)
  in
  (* Idle slots sit at rate 0 in every DF the engine will ever build, so
     an adjuster that fails here would fail every later solve too. *)
  let idle = Array.make n 0. in
  let df =
    try Jacobian.of_controller_sparse controller ~net ~at:idle
    with Failure msg ->
      invalid_arg ("Admission.create: DF at the idle point failed: " ^ msg)
  in
  {
    config;
    controller;
    net;
    n;
    names;
    index_of;
    b_ss_per_conn;
    digest = compute_digest ~config ~controller ~net;
    active = Array.make n false;
    ss = idle;
    df;
    df_at = idle;
    rho = 0.;
    rho_fresh = true;
    vclock = 0.;
    last_time = 0.;
    seq_counter = 0;
    mutation_count = 0;
    last_tier = "full";
    counts =
      List.map
        (fun k -> (k, ref 0))
        [
          "admits"; "rejects"; "sheds"; "removes"; "queries"; "degrades";
          "recovers"; "served_full"; "served_incremental"; "served_cached";
          "served_shed";
        ];
  }

let net t = t.net
let active t = Array.copy t.active
let active_count t = Array.fold_left (fun a b -> if b then a + 1 else a) 0 t.active

(* The active slots, ascending. *)
let active_slots t =
  Array.of_seq (Seq.filter (fun i -> t.active.(i)) (Seq.init t.n Fun.id))
let rates t = Array.copy t.ss
let rho t = t.rho
let seq t = t.seq_counter
let mutations t = t.mutation_count
let vclock t = t.vclock
let config_digest t = t.digest

let next_seq t =
  t.seq_counter <- t.seq_counter + 1;
  t.seq_counter

type reply = { line : string; mutated : bool }

(* ------------------------------------------------------------------ *)
(* Outcomes and their rendering                                        *)
(* ------------------------------------------------------------------ *)

(* One served add or remove: everything its reply line, its
   svc.decision event and its request span report. *)
type decision = {
  seq : int;
  op : string;  (* "add" | "remove" *)
  conn : string;
  reason : string option;  (* why an add was rejected *)
  tier : string;  (* the rung that served it, "shed" included *)
  rate : float option;
  rho_v : float option;
  fresh : bool;  (* the engine's [rho_fresh] once the request is served *)
  min_ratio : float option;
  active_n : int;
  attempts : int;  (* 1 when solved, 0 when shed *)
  backlog : float;
  clock : float;
  batch : int option;
}

type outcome =
  | Decided of decision
  | Refused of { seq : int; msg : string }  (* bad slot or connection *)
  | Read of { tier : string; line : string }  (* query / stats *)

let json = Ffc_obs.Jsonf.obj
let jnum = Ffc_obs.Jsonf.float_json
let jstr = Ffc_obs.Jsonf.string
let jint = string_of_int
let jbool = string_of_bool

let verdict_label d =
  if d.op = "remove" then "ok" else if d.reason = None then "admit" else "reject"

(* The one renderer of add- and remove-shaped replies; batch members
   add their bracket size. *)
let render_decision d =
  let opt key f = function None -> [] | Some v -> [ (key, f v) ] in
  json
    ([
       ("ok", "true");
       ("op", jstr d.op);
       ("seq", jint d.seq);
       ("conn", jstr d.conn);
       ("decision", jstr (verdict_label d));
       ("tier", jstr d.tier);
     ]
    @ opt "reason" jstr d.reason
    @ opt "rate" jnum d.rate
    @ opt "rho" jnum d.rho_v
    @ [ ("rho_fresh", jbool d.fresh) ]
    @ opt "min_ratio" jnum d.min_ratio
    @ [
        ("active", jint d.active_n);
        ("attempts", jint d.attempts);
        ("backlog", jnum d.backlog);
        ("vclock", jnum d.clock);
      ]
    @ opt "batch" jint d.batch)

let render = function
  | Decided d -> render_decision d
  | Refused { seq; msg } ->
    json [ ("ok", "false"); ("seq", jint seq); ("error", jstr msg) ]
  | Read { line; _ } -> line

(* What a request span and the latency histogram report: the served
   tier and the decision. *)
let served = function
  | Decided d -> (d.tier, verdict_label d)
  | Refused _ -> ("error", "error")
  | Read { tier; _ } -> (tier, "ok")

(* Admits and removes commit a join/leave; nothing else does. *)
let mutated = function
  | Decided d -> d.op = "remove" || d.reason = None
  | Refused _ | Read _ -> false

(* ------------------------------------------------------------------ *)
(* Ladder mechanics                                                    *)
(* ------------------------------------------------------------------ *)

let backlog_at t ~time = Float.max 0. (t.vclock -. time)

let pick_tier t ~backlog =
  if backlog >= t.config.backlog_cached then Cached
  else if backlog >= t.config.backlog_incremental then Incremental
  else Full

let cost_of t = function
  | Full -> t.config.cost_full
  | Incremental -> t.config.cost_incremental
  | Cached -> t.config.cost_cached

let charge t ~time cost = t.vclock <- Float.max t.vclock time +. cost

let request_time t = function
  | Some time when Float.is_finite time -> Float.max t.last_time time
  | Some _ | None -> t.last_time

(* Stamp an arriving request: its seq, its effective arrival time (never
   before the previous one) and the backlog it finds. *)
let arrive t time =
  let seq = next_seq t in
  let time = request_time t time in
  t.last_time <- time;
  (seq, time, backlog_at t ~time)

(* Record the ladder transition implied by serving this request at
   [label], updating counters and trace. *)
let note_tier t ~seq label =
  let prev = rank_of_label t.last_tier and cur = rank_of_label label in
  if cur <> prev then begin
    let degrade = cur > prev in
    bump t (if degrade then "degrades" else "recovers");
    match Ffc_obs.Ctx.tracing () with
    | Some c ->
      Ffc_obs.Ctx.emit c
        (if degrade then
           Ffc_obs.Event.svc_degrade ~seq ~from_tier:t.last_tier ~to_tier:label
         else Ffc_obs.Event.svc_recover ~seq ~tier:label)
    | None -> ()
  end;
  t.last_tier <- label

(* A decision about [slot] as the engine stands now: the live rho_fresh
   and vclock, and by default the live population. *)
let decision t ?(op = "add") ~seq ~slot ~backlog ~batch ~tier ?reason ?rate
    ?rho_v ?min_ratio ?(active_n = active_count t) ?(attempts = 1) () =
  { seq; op; conn = t.names.(slot); reason; tier; rate; rho_v;
    fresh = t.rho_fresh; min_ratio; active_n; attempts; backlog;
    clock = t.vclock; batch }

(* Publish a decision: its counter, its ladder transition, its served
   tier and its svc.decision event. *)
let decide t d =
  bump t
    (match (verdict_label d, d.tier) with
    | "ok", _ -> "removes"
    | "admit", _ -> "admits"
    | _, "shed" -> "sheds"
    | _ -> "rejects");
  note_tier t ~seq:d.seq d.tier;
  bump ~metric:false t ("served_" ^ d.tier);
  (match Ffc_obs.Ctx.tracing () with
  | Some c ->
    Ffc_obs.Ctx.emit c
      (Ffc_obs.Event.svc_decision ~seq:d.seq ~op:d.op ~conn:d.conn
         ~decision:(verdict_label d) ~tier:d.tier ?rho:d.rho_v
         ?min_ratio:d.min_ratio ?rate:d.rate ~backlog:d.backlog ())
  | None -> ());
  Decided d

(* ------------------------------------------------------------------ *)
(* The pipeline: patched rates, patched DF, one verdict                *)
(* ------------------------------------------------------------------ *)

(* Fair rates of [mask], patched from the rates of [prev_active]:
   bit-for-bit the from-scratch masked solve, at every tier. *)
let rates_of t ~prev ~prev_active mask =
  Steady_state.update_fair ~signal:t.config.signal ~b_ss:t.config.b_ss
    ~net:t.net ~prev ~prev_active ~active:mask

(* Stability evidence for rates [ss] from rung [tier] down: the patched
   DF at [ss] with the exact ρ (full) or the cross-checked estimate
   (incremental), else no DF and the stale committed ρ (cached).  A
   [Failure] (non-finite adjuster output, QR non-convergence) would recur
   on retry, so the request steps one rung down; cached cannot fail. *)
let rec stability t tier ss =
  match tier with
  | Cached -> (Cached, t.rho, None)
  | Full | Incremental -> (
    match
      let df =
        Jacobian.update_flow t.controller ~net:t.net ~prev:t.df ~prev_at:t.df_at
          ~at:ss
      in
      ( df,
        if tier = Full then Jacobian.spectral_radius_sparse df
        else Jacobian.spectral_radius_incremental df )
    with
    | df, rho -> (tier, rho, Some df)
    | exception Failure _ ->
      stability t (if tier = Full then Incremental else Cached) ss)

let min_ratio_of t ~mask ~rates =
  let baselines =
    Robustness.baselines_masked ~signal:t.config.signal ~b_ss:t.b_ss_per_conn
      ~net:t.net ~active:mask
  in
  let best = ref Float.infinity in
  Array.iteri
    (fun i b -> if mask.(i) && b > 0. then best := Float.min !best (rates.(i) /. b))
    baselines;
  if Float.is_finite !best then Some !best else None

(* The admission rule, Musacchio–Walrand ingress discarding over the
   candidate fair state: the newcomer's rate, Theorem 5's min-ratio,
   then ρ(DF) < 1 — the last skipped without [rho] (a bracket's pass 1). *)
let verdict ?rho t ~rate ~min_ratio =
  if rate < t.config.min_rate then Some "min_rate"
  else if
    match min_ratio with Some r -> r < 1. -. t.config.epsilon | None -> false
  then Some "min_ratio"
  else match rho with Some r when r >= 1. -> Some "rho" | _ -> None

let commit ?(mutations = 1) t ~mask ~ss ~rho df =
  t.active <- mask;
  t.ss <- ss;
  Option.iter
    (fun df ->
      t.df <- df;
      t.df_at <- ss)
    df;
  t.rho <- rho;
  t.rho_fresh <- Option.is_some df;
  t.mutation_count <- t.mutation_count + mutations;
  (* Per-window fairness of the committed allocation: Jain's index over
     the rates of the flows active after this mutation.  A pure function
     of the model state, so the gauge is deterministic. *)
  match Ffc_obs.Ctx.ambient () with
  | None -> ()
  | Some c ->
    let rates = Array.map (fun i -> t.ss.(i)) (active_slots t) in
    if Array.length rates > 0 then
      Ffc_obs.Metrics.Gauge.set
        (Ffc_obs.Metrics.gauge (Ffc_obs.Ctx.metrics c) "service.jain_fairness")
        (Stats.jain_index rates)

(* ------------------------------------------------------------------ *)
(* add                                                                 *)
(* ------------------------------------------------------------------ *)

(* Slot lookup against an explicit occupancy mask, so a batch can probe
   its tentative population rather than the committed one. *)
let find_slot_in t mask = function
  | Some name -> (
    match Hashtbl.find_opt t.index_of name with
    | None -> Error (Printf.sprintf "unknown connection %S" name)
    | Some i -> if mask.(i) then Error (Printf.sprintf "slot %S is busy" name) else Ok i)
  | None ->
    Option.to_result ~none:"no idle slot"
      (Seq.find (fun i -> not mask.(i)) (Seq.init t.n Fun.id))

let refuse_add t ~seq ~time msg =
  charge t ~time t.config.cost_shed;
  bump t "rejects";
  Refused { seq; msg }

(* Overload ladder floor: discard at ingress without touching the
   solvers at all. *)
let shed t ~seq ~time ~slot ~backlog ~active_n ~batch =
  charge t ~time t.config.cost_shed;
  decide t
    (decision t ~seq ~slot ~backlog ~batch ~tier:"shed" ~reason:"overload"
       ~active_n ~attempts:0 ())

(* One add against committed state, entering the ladder at [tier] —
   a serial add (charged at its arrival [time]) or a bracket member
   replayed after the bracket's single ρ check crossed 1 (uncharged). *)
let admit_one ?time t ~seq ~slot ~tier ~backlog ~batch =
  let mask = Array.copy t.active in
  mask.(slot) <- true;
  let ss = rates_of t ~prev:t.ss ~prev_active:t.active mask in
  let tier, rho, df = stability t tier ss in
  Option.iter (fun time -> charge t ~time (cost_of t tier)) time;
  let rate = ss.(slot) in
  let min_ratio = min_ratio_of t ~mask ~rates:ss in
  let reason = verdict t ~rate ~min_ratio ~rho in
  if reason = None then commit t ~mask ~ss ~rho df;
  decide t
    (decision t ~seq ~slot ~backlog ~batch ~tier:(tier_label tier) ?reason
       ~rate ~rho_v:rho ?min_ratio ())

(* What every add meets before its rates are solved: a free slot in
   [mask], then the shed threshold.  [Error] carries the settled
   outcome. *)
let arrive_add t ~mask ~active_n ~batch { Protocol.conn; time; size = _ } =
  let seq, time, backlog = arrive t time in
  match find_slot_in t mask conn with
  | Error msg -> Error (refuse_add t ~seq ~time msg)
  | Ok slot when backlog >= t.config.backlog_shed ->
    Error (shed t ~seq ~time ~slot ~backlog ~active_n ~batch)
  | Ok slot -> Ok (seq, time, backlog, slot)

let handle_add t add =
  match arrive_add t ~mask:t.active ~active_n:(active_count t) ~batch:None add with
  | Error o -> o
  | Ok (seq, time, backlog, slot) ->
    admit_one ~time t ~seq ~slot ~tier:(pick_tier t ~backlog) ~backlog
      ~batch:None

(* ------------------------------------------------------------------ *)
(* batch: rank-k admission                                             *)
(* ------------------------------------------------------------------ *)

(* After pass 1 a member is settled, or a candidate that passed every
   per-member check and awaits the bracket's single ρ(DF) verdict, its
   decision drafted against the chain state it saw ([req] is its own
   slot name, for serial replay). *)
type member =
  | Settled of outcome
  | Candidate of { draft : decision; slot : int; req : string option }

(* Rank-k admission (see the interface): member rates chain update_fair
   patches over a tentative population, each bit-identical to the serial
   add's; DF and ρ(DF) are computed once, on the batch-final mask. *)
let handle_batch_requests t (adds : Protocol.add list) =
  let k = List.length adds in
  let batch = Some k in
  let base_active = active_count t in
  let cur_mask = ref t.active in
  let cur_ss = ref t.ss in
  let n_cand = ref 0 in
  let entry = ref None in
  (* ---- pass 1: per-member slot/shed/rate checks on the chain ---- *)
  let members =
    List.map
      (fun (add : Protocol.add) ->
        match
          arrive_add t ~mask:!cur_mask ~active_n:(base_active + !n_cand) ~batch
            add
        with
        | Error o -> Settled o
        | Ok (seq, time, backlog, slot) ->
          let mask = Array.copy !cur_mask in
          mask.(slot) <- true;
          let ss = rates_of t ~prev:!cur_ss ~prev_active:!cur_mask mask in
          if !entry = None then entry := Some (pick_tier t ~backlog);
          charge t ~time t.config.cost_cached;
          let rate = ss.(slot) in
          let min_ratio = min_ratio_of t ~mask ~rates:ss in
          let reason = verdict t ~rate ~min_ratio in
          if reason = None then begin
            cur_mask := mask;
            cur_ss := ss;
            incr n_cand
          end;
          let draft =
            decision t ~seq ~slot ~backlog ~batch ~tier:"cached" ?reason ~rate
              ~rho_v:t.rho ?min_ratio ~active_n:(base_active + !n_cand) ()
          in
          if reason = None then Candidate { draft; slot; req = add.conn }
          else Settled (decide t draft))
      adds
  in
  (* ---- pass 2: one batch-final stability verdict ---- *)
  let summary_seq, sum_time, sum_backlog = arrive t None in
  let any = !n_cand > 0 in
  let entry = Option.value !entry ~default:Cached in
  let tier, rho, df =
    if any then stability t entry !cur_ss else (Cached, t.rho, None)
  in
  charge t ~time:sum_time (if any then cost_of t tier else t.config.cost_shed);
  let attempts = if any && entry <> Cached then 1 else 0 in
  (* On a fresh ρ ≥ 1, ρ crossed 1 somewhere inside the batch: the
     candidates are replayed one by one against committed state at the
     batch's tier — exactly what serial adds would have done.  Otherwise
     one verdict covers the whole bracket: commit every candidate, or
     (ρ ≥ 1 on stale evidence, as serial cached-tier adds would see)
     reject every one without committing. *)
  let replay = Option.is_some df && rho >= 1. in
  if any && not (rho >= 1.) then
    commit ~mutations:!n_cand t ~mask:!cur_mask ~ss:!cur_ss ~rho df;
  let settle = function
    | Settled o -> o
    | Candidate { draft = d; slot; req } when replay ->
      (* Serial adds find their slot against committed state, so an
         anonymous member lands on the slot an earlier rejected one
         freed (re-finding cannot fail: the committed population is a
         subset of the tentative one pass 1 succeeded against). *)
      let slot = Result.value (find_slot_in t t.active req) ~default:slot in
      admit_one t ~seq:d.seq ~slot ~tier ~backlog:d.backlog ~batch
    | Candidate { draft = d; _ } ->
      let reason =
        verdict t ~rate:(Option.get d.rate) ~min_ratio:d.min_ratio ~rho
      in
      decide t
        {
          d with
          reason;
          tier = tier_label tier;
          rho_v = Some t.rho;
          fresh = t.rho_fresh;
          active_n = (if reason = None then d.active_n else base_active);
        }
  in
  let outcomes = List.map settle members in
  let tally p = List.length (List.filter p outcomes) in
  let admits = tally (fun o -> snd (served o) = "admit") in
  let sheds = tally (fun o -> fst (served o) = "shed") in
  let errors = tally (fun o -> fst (served o) = "error") in
  let rejects = k - admits - sheds - errors in
  let summary =
    json
      [
        ("ok", "true");
        ("op", jstr "batch");
        ("seq", jint summary_seq);
        ("adds", jint k);
        ("admits", jint admits);
        ("rejects", jint rejects);
        ("sheds", jint sheds);
        ("errors", jint errors);
        ("tier", jstr (tier_label tier));
        ("rho", jnum t.rho);
        ("rho_fresh", jbool t.rho_fresh);
        ("active", jint (active_count t));
        ("attempts", jint attempts);
        ("backlog", jnum sum_backlog);
        ("vclock", jnum t.vclock);
      ]
  in
  let replies =
    List.map (fun o -> { line = render o; mutated = false }) outcomes
    @ [ { line = summary; mutated = admits > 0 } ]
  in
  ( replies,
    tier_label tier,
    [
      ("admits", jint admits);
      ("rejects", jint (rejects + errors));
      ("sheds", jint sheds);
    ] )

(* ------------------------------------------------------------------ *)
(* remove                                                              *)
(* ------------------------------------------------------------------ *)

let handle_remove t ~conn ~time =
  let seq, time, backlog = arrive t time in
  let refuse fmt =
    charge t ~time t.config.cost_shed;
    Refused { seq; msg = Printf.sprintf fmt conn }
  in
  match Hashtbl.find_opt t.index_of conn with
  | None -> refuse "unknown connection %S"
  | Some slot when not t.active.(slot) -> refuse "slot %S is not active"
  | Some slot ->
    let mask = Array.copy t.active in
    mask.(slot) <- false;
    (* Departures are never shed — the flow is gone whether or not we
       are overloaded; the ladder only decides how much bookkeeping the
       departure gets. *)
    let tier =
      if backlog >= t.config.backlog_shed then Cached else pick_tier t ~backlog
    in
    let ss = rates_of t ~prev:t.ss ~prev_active:t.active mask in
    let tier, rho, df = stability t tier ss in
    charge t ~time (cost_of t tier);
    commit t ~mask ~ss ~rho df;
    decide t
      (decision t ~op:"remove" ~seq ~slot ~backlog ~batch:None
         ~tier:(tier_label tier) ~rho_v:rho ())

(* ------------------------------------------------------------------ *)
(* query                                                               *)
(* ------------------------------------------------------------------ *)

let handle_query t ~time =
  let seq, time, backlog = arrive t time in
  bump t "queries";
  (* Read-only verbs are never refused: past the shed threshold the
     query is answered from the last committed state at shed cost (no
     solver work at all); in the cached band the verdict machinery is
     skipped but the bookkeeping is live.  Either way the reply carries
     [stale=true] so callers know the verdict was withheld. *)
  let shed = backlog >= t.config.backlog_shed in
  let degraded = backlog >= t.config.backlog_cached in
  let health =
    if degraded || active_count t = 0 then "null"
    else
      (* The supervised verdict runs on the active sub-population as a
         standalone network: gateways unchanged, idle slots dropped,
         fault targets remapped onto the surviving indices. *)
      let keep = active_slots t in
      let pick a = Array.map (fun i -> a.(i)) keep in
      let net =
        Network.create
          ~gateways:(Array.init (Network.num_gateways t.net) (Network.gateway t.net))
          ~connections:(Array.map (Network.connection t.net) keep)
      in
      let controller =
        Controller.create ~config:(Controller.config t.controller)
          ~adjusters:(pick (Controller.adjusters t.controller))
      in
      Supervisor.verdict_to_json
        (Supervisor.run ~escape:t.config.escape ~retries:t.config.sup_retries
           ~plan:(Fault.restrict t.config.plan ~keep) controller ~net
           ~r0:(pick t.ss))
  in
  charge t ~time
    (if shed then t.config.cost_shed
     else if degraded then t.config.cost_cached
     else t.config.cost_query);
  let tier =
    if shed then "shed" else if degraded then "cached" else t.last_tier
  in
  let line =
    json
      ([
         ("ok", "true");
         ("op", jstr "query");
         ("seq", jint seq);
         ("active", jint (active_count t));
         ("rho", jnum t.rho);
         ("rho_fresh", jbool t.rho_fresh);
         ("tier", jstr tier);
       ]
      @ (if degraded then [ ("stale", "true") ] else [])
      @ [
          ("backlog", jnum backlog);
          ("vclock", jnum t.vclock);
          ("verdict", health);
        ])
  in
  Read { tier; line }

let handle_stats t ~time =
  let seq, _, backlog = arrive t time in
  (* Counters are always live — a stats probe is how an operator watches
     an overloaded daemon, so it is free (no vclock charge) and never
     shed; past the shed threshold the reply is merely tagged stale. *)
  let overloaded = backlog >= t.config.backlog_shed in
  let tier = if overloaded then "shed" else t.last_tier in
  let line =
    json
      ([
         ("ok", "true");
         ("op", jstr "stats");
         ("seq", jint seq);
         ("active", jint (active_count t));
         ("mutations", jint t.mutation_count);
         ("tier", jstr tier);
       ]
      @ (if overloaded then [ ("stale", "true") ] else [])
      @ [
          ("rho", jnum t.rho);
          ("rho_fresh", jbool t.rho_fresh);
          ("backlog", jnum backlog);
          ("vclock", jnum t.vclock);
        ]
      @ List.map (fun (k, v) -> (k, jint v)) (counters t))
  in
  Read { tier; line }

let dispatch t = function
  | Protocol.Add add -> handle_add t add
  | Protocol.Remove { conn; time } -> handle_remove t ~conn ~time
  | Protocol.Query { time } -> handle_query t ~time
  | Protocol.Stats { time } -> handle_stats t ~time
  | Protocol.Batch_begin | Protocol.Batch_end ->
    invalid_arg
      "Admission.handle: batch brackets are session-level (use handle_batch)"
  | Protocol.Metrics _ | Protocol.Snapshot | Protocol.Shutdown ->
    invalid_arg
      "Admission.handle: metrics/snapshot/shutdown are server-level requests"

(* One root span per request or bracket, ended with the served tier and
   [f]'s attributes, plus the per-tier latency histogram, which shares
   the span's wall clock and, like it, reads zero under
   --trace-deterministic. *)
let instrumented ?sid ~name ~attrs f =
  match Ffc_obs.Ctx.ambient () with
  | None ->
    let r, _, _ = f () in
    r
  | Some c ->
    let timing = Ffc_obs.Ctx.timing c in
    let t0 = if timing then Unix.gettimeofday () else 0. in
    let sid = Option.to_list (Option.map (fun s -> ("sid", jint s)) sid) in
    let span = Ffc_obs.Span.start ~attrs:(attrs @ sid) name in
    Fun.protect
      ~finally:(fun () -> Ffc_obs.Span.finish span)
      (fun () ->
        let r, tier, end_attrs = f () in
        Ffc_obs.Span.finish ~attrs:(("tier", jstr tier) :: end_attrs) span;
        Ffc_obs.Metrics.Histogram.observe
          (Ffc_obs.Metrics.histogram (Ffc_obs.Ctx.metrics c)
             ("service.latency." ^ tier))
          (if timing then Unix.gettimeofday () -. t0 else 0.);
        r)

let handle ?sid t req =
  instrumented ?sid ~name:"svc.request" ~attrs:[ ("op", jstr (Protocol.verb req)) ]
    (fun () ->
      let o = dispatch t req in
      let tier, decision = served o in
      ({ line = render o; mutated = mutated o }, tier, [ ("decision", jstr decision) ]))

let handle_batch ?sid t adds =
  instrumented ?sid ~name:"svc.batch"
    ~attrs:[ ("op", jstr "batch"); ("adds", jint (List.length adds)) ]
    (fun () -> handle_batch_requests t adds)

(* ------------------------------------------------------------------ *)
(* Snapshot integration                                                *)
(* ------------------------------------------------------------------ *)

let state t =
  {
    Snapshot.digest = t.digest;
    seq = t.seq_counter;
    mutations = t.mutation_count;
    vclock = t.vclock;
    last_time = t.last_time;
    active = Array.copy t.active;
    rates = Array.copy t.ss;
    rho = t.rho;
    rho_fresh = t.rho_fresh;
    last_tier = t.last_tier;
    counters = counters t;
  }

(* The committed rates are a pure function of the active mask — the
   fair steady state, bit for bit — so restore re-derives them from
   scratch instead of trusting the file. *)
let rate_mismatch t (s : Snapshot.state) =
  let fair =
    Steady_state.fair_masked ~signal:t.config.signal ~b_ss:t.config.b_ss ~net:t.net
      ~active:s.Snapshot.active
  in
  let differs i =
    Int64.bits_of_float fair.(i) <> Int64.bits_of_float s.Snapshot.rates.(i)
  in
  List.find_opt differs (List.init t.n Fun.id)
  |> Option.map (fun i ->
         Printf.sprintf
           "snapshot rate of %s is %s, but the fair steady state of its active set is %s"
           t.names.(i)
           (Ffc_obs.Jsonf.float_rt s.Snapshot.rates.(i))
           (Ffc_obs.Jsonf.float_rt fair.(i)))

let restore t (s : Snapshot.state) =
  if s.Snapshot.digest <> t.digest then
    Error
      (Printf.sprintf
         "snapshot digest %s does not match this configuration (%s)"
         s.Snapshot.digest t.digest)
  else if Array.length s.Snapshot.active <> t.n then
    Error "snapshot population size does not match the topology"
  else
    match rate_mismatch t s with
    | Some msg -> Error msg
    | None ->
      t.active <- Array.copy s.Snapshot.active;
      t.ss <- Array.copy s.Snapshot.rates;
      (* DF is rebuilt here, outside any request, so the first request
         after a restart patches it as the uninterrupted engine would; if
         it fails the current base stays (any DF and its point will do). *)
      (match Jacobian.of_controller_sparse t.controller ~net:t.net ~at:t.ss with
      | df ->
        t.df <- df;
        t.df_at <- t.ss
      | exception Failure _ -> ());
      t.rho <- s.Snapshot.rho;
      t.rho_fresh <- s.Snapshot.rho_fresh;
      t.vclock <- s.Snapshot.vclock;
      t.last_time <- s.Snapshot.last_time;
      t.seq_counter <- s.Snapshot.seq;
      t.mutation_count <- s.Snapshot.mutations;
      t.last_tier <- s.Snapshot.last_tier;
      List.iter
        (fun (k, v) ->
          v := Option.value (List.assoc_opt k s.Snapshot.counters) ~default:0)
        t.counts;
      Ok ()
