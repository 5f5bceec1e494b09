open Ffc_numerics
open Ffc_topology
open Ffc_core
open Ffc_faults
open Ffc_experiments
open Test_util

let single n = Topologies.single ~mu:1. ~n ()
let additive = Rate_adjust.additive ~eta:0.1 ~beta:0.5

let controller ?(config = Feedback.individual_fair_share) n =
  Controller.homogeneous ~config ~adjuster:additive ~n

(* Drive an injector from r0 for [steps] steps, returning all states. *)
let drive inj ~r0 ~steps =
  let out = Array.make (steps + 1) r0 in
  for k = 1 to steps do
    out.(k) <- Injector.step inj ~step:(k - 1) out.(k - 1)
  done;
  out

let test_plan_validation () =
  let net = single 2 in
  let rejects spec =
    try
      Fault.validate (Fault.plan [ spec ]) ~net;
      false
    with Invalid_argument _ -> true
  in
  check_true "stale lag 0" (rejects (Fault.everywhere (Fault.Stale { lag = 0 })));
  check_true "loss p > 1" (rejects (Fault.everywhere (Fault.Lossy { p = 1.5 })));
  check_true "negative sigma" (rejects (Fault.everywhere (Fault.Noisy { sigma = -1. })));
  check_true "threshold 1" (rejects (Fault.everywhere (Fault.Quantized { threshold = 1. })));
  check_true "conn out of range" (rejects (Fault.on [ 2 ] Fault.Dead));
  check_true "empty conn list" (rejects (Fault.on [] Fault.Dead));
  check_true "greedy infinite cap"
    (rejects (Fault.everywhere (Fault.Greedy { ramp = 0.1; cap = Float.infinity })));
  check_true "gateway out of range"
    (rejects
       (Fault.everywhere
          (Fault.Gateway_cut { gw = 1; fraction = 0.5; from_step = 0; until_step = None })));
  check_true "cut until <= from"
    (rejects
       (Fault.everywhere
          (Fault.Gateway_cut { gw = 0; fraction = 0.5; from_step = 5; until_step = Some 5 })));
  check_true "dead and greedy on same connection"
    (try
       Fault.validate
         (Fault.plan
            [ Fault.on [ 0 ] Fault.Dead;
              Fault.on [ 0 ] (Fault.Greedy { ramp = 0.1; cap = 1. }) ])
         ~net;
       false
     with Invalid_argument _ -> true);
  (* A sane plan passes. *)
  Fault.validate
    (Fault.plan [ Fault.on [ 1 ] (Fault.Stale { lag = 2 }) ])
    ~net

(* The plan as the sub-population {1, 3, 4} of five slots sees it. *)
let test_restrict () =
  let plan =
    Fault.plan ~seed:7
      [
        Fault.on [ 0; 3 ] Fault.Dead;
        Fault.everywhere (Fault.Lossy { p = 0.5 });
        Fault.on [ 2 ] (Fault.Stale { lag = 1 });
        Fault.on [ 4; 1 ] (Fault.Stale { lag = 2 });
      ]
  in
  let r = Fault.restrict plan ~keep:[| 1; 3; 4 |] in
  Alcotest.(check int) "seed kept" 7 r.Fault.seed;
  Alcotest.(check (list (option (list int))))
    "targets renumbered, specs left untargeted dropped"
    [ Some [ 1 ]; None; Some [ 2; 0 ] ]
    (List.map (fun s -> s.Fault.conns) r.Fault.specs)

let test_empty_plan_is_exact () =
  (* The unfaulted path must be bit-identical to Controller.step, not
     merely close. *)
  let net = single 3 in
  let c = controller 3 in
  let inj = Injector.create c ~net in
  let r0 = [| 0.05; 0.2; 0.4 |] in
  let faulted = drive inj ~r0 ~steps:40 in
  let plain = Controller.trajectory c ~net ~r0 ~steps:40 in
  Array.iteri (fun k v -> check_vec ~tol:0. (Printf.sprintf "step %d" k) plain.(k) v) faulted

let test_neutral_severities_are_exact () =
  (* p = 0 loss and sigma = 0 noise compile to the unfaulted update. *)
  let net = single 2 in
  let c = controller 2 in
  let plan =
    Fault.plan
      [ Fault.everywhere (Fault.Lossy { p = 0. });
        Fault.everywhere (Fault.Noisy { sigma = 0. }) ]
  in
  let inj = Injector.create ~plan c ~net in
  let r0 = [| 0.1; 0.3 |] in
  let faulted = drive inj ~r0 ~steps:30 in
  let plain = Controller.trajectory c ~net ~r0 ~steps:30 in
  Array.iteri (fun k v -> check_vec ~tol:0. (Printf.sprintf "step %d" k) plain.(k) v) faulted

let test_lossy_one_freezes () =
  let net = single 2 in
  let c = controller 2 in
  let plan = Fault.plan [ Fault.on [ 0 ] (Fault.Lossy { p = 1. }) ] in
  let inj = Injector.create ~plan c ~net in
  let traj = drive inj ~r0:[| 0.1; 0.3 |] ~steps:20 in
  Array.iter (fun v -> check_float ~tol:0. "dropped every step" 0.1 v.(0)) traj;
  check_true "other connection still adjusts" (traj.(20).(1) <> 0.3)

let test_dead_holds_and_greedy_ramps () =
  let net = single 3 in
  let c = controller 3 in
  let plan =
    Fault.plan
      [ Fault.on [ 0 ] Fault.Dead;
        Fault.on [ 1 ] (Fault.Greedy { ramp = 0.25; cap = 0.6 }) ]
  in
  let inj = Injector.create ~plan c ~net in
  let traj = drive inj ~r0:[| 0.1; 0.1; 0.1 |] ~steps:5 in
  Array.iter (fun v -> check_float ~tol:0. "dead holds its rate" 0.1 v.(0)) traj;
  check_float ~tol:1e-12 "greedy ramps" 0.35 traj.(1).(1);
  check_float ~tol:1e-12 "greedy ramps again" 0.6 traj.(2).(1);
  check_float ~tol:1e-12 "greedy pinned at cap" 0.6 traj.(5).(1)

let test_stale_uses_old_signal () =
  (* With lag 1 the perturbed connection adjusts on the signal from one
     step earlier; verify against a hand-driven replay. *)
  let net = single 2 in
  let c = controller 2 in
  let plan = Fault.plan [ Fault.on [ 0 ] (Fault.Stale { lag = 1 }) ] in
  let inj = Injector.create ~plan c ~net in
  let r0 = [| 0.1; 0.3 |] in
  let traj = drive inj ~r0 ~steps:3 in
  (* Replay: b^k is the true signal at step k; conn 0 at step k >= 1 uses
     b^{k-1}_0, step 0 uses b^0_0 (no older signal exists). *)
  let config = Controller.config c in
  let signal k_rates = fst (Feedback.evaluate config ~net ~rates:k_rates) in
  let delay k_rates = snd (Feedback.evaluate config ~net ~rates:k_rates) in
  let b0 = signal r0 and d0 = delay r0 in
  let step_manual ~b ~d rates =
    Array.mapi
      (fun i r -> Float.max 0. (r +. Rate_adjust.eval additive ~r ~b:b.(i) ~d:d.(i)))
      rates
  in
  let r1_expected = step_manual ~b:b0 ~d:d0 r0 in
  check_vec ~tol:0. "step 0 falls back to the oldest signal" r1_expected traj.(1);
  let b1 = signal traj.(1) and d1 = delay traj.(1) in
  let r2_expected =
    [|
      Float.max 0.
        (traj.(1).(0)
        +. Rate_adjust.eval additive ~r:traj.(1).(0) ~b:b0.(0) ~d:d1.(0));
      Float.max 0.
        (traj.(1).(1)
        +. Rate_adjust.eval additive ~r:traj.(1).(1) ~b:b1.(1) ~d:d1.(1));
    |]
  in
  check_vec ~tol:0. "step 1 uses the lagged signal on conn 0" r2_expected traj.(2)

let test_stochastic_faults_deterministic () =
  (* Same plan, same seed: bit-identical trajectories. Different seed:
     different trajectory. *)
  let net = single 2 in
  let c = controller 2 in
  let mk seed =
    Fault.plan ~seed
      [ Fault.everywhere (Fault.Lossy { p = 0.4 });
        Fault.everywhere (Fault.Noisy { sigma = 0.05 }) ]
  in
  let r0 = [| 0.1; 0.3 |] in
  let run plan = drive (Injector.create ~plan c ~net) ~r0 ~steps:50 in
  let a = run (mk 7) and b = run (mk 7) and other = run (mk 8) in
  Array.iteri (fun k v -> check_vec ~tol:0. (Printf.sprintf "step %d" k) a.(k) v) b;
  check_true "different seed diverges"
    (Array.exists2 (fun x y -> not (Vec.approx_equal ~tol:0. x y)) a other)

let test_gateway_cut_windows () =
  let net = single 2 in
  let c = controller 2 in
  let plan =
    Fault.plan
      [
        Fault.everywhere
          (Fault.Gateway_cut { gw = 0; fraction = 0.25; from_step = 5; until_step = Some 10 });
      ]
  in
  let inj = Injector.create ~plan c ~net in
  let mu_at k = (Network.gateway (Injector.net_at inj k) 0).Network.mu in
  check_float ~tol:0. "before the cut" 1. (mu_at 4);
  check_float ~tol:0. "at from_step" 0.25 (mu_at 5);
  check_float ~tol:0. "last degraded step" 0.25 (mu_at 9);
  check_float ~tol:0. "restored at until_step" 1. (mu_at 10);
  check_true "horizon is the cut end" (Fault.horizon plan = 10);
  (* Permanent cut: horizon is the start, degradation persists. *)
  let permanent =
    Fault.plan
      [ Fault.everywhere (Fault.Gateway_cut { gw = 0; fraction = 0.5; from_step = 3; until_step = None }) ]
  in
  let inj = Injector.create ~plan:permanent c ~net in
  check_float ~tol:0. "permanent cut active" 0.5
    ((Network.gateway (Injector.net_at inj 1000) 0).Network.mu);
  check_true "permanent horizon is the start" (Fault.horizon permanent = 3)

let test_transient_cut_recovers () =
  (* A transient capacity cut must not trap the run at the degraded
     equilibrium: the supervisor suppresses convergence until the cut is
     restored, and the system climbs back to the full fair share. *)
  let net = single 4 in
  let c = controller 4 in
  let plan =
    Fault.plan
      [
        Fault.everywhere
          (Fault.Gateway_cut { gw = 0; fraction = 0.5; from_step = 10; until_step = Some 200 });
      ]
  in
  let v = Supervisor.run ~max_steps:4000 ~plan c ~net ~r0:(Array.make 4 0.3) in
  (match v.Supervisor.outcome with
  | Controller.Converged { steady; _ } ->
    check_vec ~tol:1e-6 "back at the undegraded fair point" (Array.make 4 0.125) steady
  | _ -> Alcotest.fail "transient cut should converge after restoration");
  check_float ~tol:1e-9 "full baseline ratio" 1. (Option.get v.Supervisor.min_ratio)

let test_out_of_order_step_rejected () =
  let net = single 1 in
  let plan = Fault.plan [ Fault.everywhere (Fault.Stale { lag = 2 }) ] in
  let inj = Injector.create ~plan (controller 1) ~net in
  let r1 = Injector.step inj ~step:0 [| 0.1 |] in
  check_true "consecutive step fine" (Array.length (Injector.step inj ~step:1 r1) = 1);
  check_true "skipping a step rejected"
    (try
       ignore (Injector.step inj ~step:5 r1);
       false
     with Invalid_argument _ -> true)

let test_supervisor_unfaulted_matches_run () =
  let net = single 3 in
  let c = controller 3 in
  let r0 = [| 0.05; 0.2; 0.4 |] in
  let v = Supervisor.run c ~net ~r0 in
  (match (v.Supervisor.outcome, Controller.run c ~net ~r0) with
  | ( Controller.Converged { steady = a; steps = ka },
      Controller.Converged { steady = b; steps = kb } ) ->
    check_vec ~tol:0. "same steady state" b a;
    Alcotest.(check int) "same step count" kb ka
  | _ -> Alcotest.fail "both should converge");
  Alcotest.(check int) "one attempt" 1 v.Supervisor.attempts;
  check_float ~tol:0. "undamped" 1. v.Supervisor.damping;
  check_false "nothing to recover" v.Supervisor.recovered;
  check_true "no faults listed" (v.Supervisor.faults = []);
  check_float ~tol:1e-9 "at baseline" 1. (Option.get v.Supervisor.min_ratio)

let test_infinite_adjuster_is_divergence () =
  (* Companion to the NaN-adjuster regression in test_controller: an
     adjuster that jumps to +infinity mid-run must degrade to Diverged
     in both the bare run and under the supervisor — never surface as
     the queueing layer's rate-validation invalid_arg. *)
  let net = single 1 in
  let poison =
    Rate_adjust.make ~name:"inf-after-3" (fun ~r ~b:_ ~d:_ ->
        if r > 0.3 then Float.infinity else 0.2)
  in
  let c =
    Controller.homogeneous ~config:Feedback.individual_fifo ~adjuster:poison ~n:1
  in
  (match Controller.run c ~net ~r0:[| 0. |] with
  | Controller.Diverged { at_step } -> check_true "past the clean steps" (at_step > 0)
  | _ -> Alcotest.fail "+inf adjuster must report Diverged");
  let v = Supervisor.run ~retries:0 c ~net ~r0:[| 0. |] in
  match v.Supervisor.outcome with
  | Controller.Diverged _ -> ()
  | _ -> Alcotest.fail "supervisor must classify +inf as divergence"

let test_supervisor_recovers_divergence () =
  (* Proportional gain over a stale signal overshoots the escape
     threshold; a plain run diverges, the damped retry lands on a
     bounded limit cycle above baseline. *)
  let net = single 4 in
  let c =
    Controller.homogeneous ~config:Feedback.individual_fair_share
      ~adjuster:(Rate_adjust.proportional ~eta:2.5 ~beta:0.7)
      ~n:4
  in
  let plan = Fault.plan [ Fault.everywhere (Fault.Stale { lag = 3 }) ] in
  let r0 = Array.make 4 0.3 in
  let plain = Supervisor.run ~max_steps:4000 ~escape:2. ~retries:0 ~plan c ~net ~r0 in
  (match plain.Supervisor.outcome with
  | Controller.Diverged _ -> ()
  | _ -> Alcotest.fail "plain run must diverge");
  check_false "no retries, no recovery" plain.Supervisor.recovered;
  let sup = Supervisor.run ~max_steps:4000 ~escape:2. ~retries:3 ~plan c ~net ~r0 in
  check_true "recovered" sup.Supervisor.recovered;
  check_true "took a retry" (sup.Supervisor.attempts > 1);
  check_true "gain was damped" (sup.Supervisor.damping < 1.);
  (match sup.Supervisor.outcome with
  | Controller.Converged _ | Controller.Cycle _ -> ()
  | _ -> Alcotest.fail "recovery must end on a bounded attractor");
  check_true "bounded orbit above baseline" (Option.get sup.Supervisor.min_ratio > 1.)

let test_supervisor_wall_budget () =
  (* A zero wall budget forbids retries: the diverging cell reports its
     first attempt. *)
  let net = single 4 in
  let c =
    Controller.homogeneous ~config:Feedback.individual_fair_share
      ~adjuster:(Rate_adjust.proportional ~eta:2.5 ~beta:0.7)
      ~n:4
  in
  let plan = Fault.plan [ Fault.everywhere (Fault.Stale { lag = 3 }) ] in
  let v =
    Supervisor.run ~max_steps:4000 ~escape:2. ~retries:3 ~wall_budget:0. ~plan c ~net
      ~r0:(Array.make 4 0.3)
  in
  Alcotest.(check int) "budget stopped the retries" 1 v.Supervisor.attempts;
  match v.Supervisor.outcome with
  | Controller.Diverged _ -> ()
  | _ -> Alcotest.fail "first attempt diverges"

let test_run_map_min_steps () =
  (* A map that is constant early but changes later: without min_steps
     the loop stops at the temporary fixed point; with it, the final
     regime is reached. *)
  let map k _ = if k < 50 then [| 1. |] else [| 2. |] in
  (match Controller.run_map ~map ~r0:[| 1. |] () with
  | Controller.Converged { steady; steps } ->
    check_float ~tol:0. "trapped at the temporary value" 1. steady.(0);
    check_true "stopped before the change" (steps < 50)
  | _ -> Alcotest.fail "constant map converges immediately");
  match Controller.run_map ~min_steps:50 ~map ~r0:[| 1. |] () with
  | Controller.Converged { steady; steps } ->
    check_float ~tol:0. "reached the final regime" 2. steady.(0);
    check_true "verdict after min_steps" (steps >= 50)
  | _ -> Alcotest.fail "map is constant after step 50"

let test_e25_acceptance () =
  let r = E25_stress.compute ~jobs:1 () in
  check_true "fair share robust in all non-destructive cells" r.E25_stress.fs_all_robust;
  let starved = r.E25_stress.aggregate_starved in
  check_true "aggregate starves under a greedy peer" (List.mem "greedy@3" starved);
  check_true "aggregate starves under stale feedback"
    (List.exists (fun c -> String.length c >= 5 && String.sub c 0 5 = "stale") starved);
  check_true "supervisor recovered the diverging cell" r.E25_stress.recovery.E25_stress.recovered;
  check_true "plain run diverged"
    (String.length r.E25_stress.recovery.E25_stress.plain_outcome >= 8
    && String.sub r.E25_stress.recovery.E25_stress.plain_outcome 0 8 = "diverged")

let test_e25_jobs_invariant () =
  (* The stress matrix must be identical at any pool width. *)
  let a = E25_stress.compute ~jobs:1 () and b = E25_stress.compute ~jobs:4 () in
  Alcotest.(check int) "same row count" (List.length a.E25_stress.rows)
    (List.length b.E25_stress.rows);
  List.iter2
    (fun (x : E25_stress.row) (y : E25_stress.row) ->
      Alcotest.(check string) "fault" x.E25_stress.fault y.E25_stress.fault;
      Alcotest.(check string) "design" x.E25_stress.design y.E25_stress.design;
      Alcotest.(check string) "outcome" x.E25_stress.outcome y.E25_stress.outcome;
      Alcotest.(check int) "attempts" x.E25_stress.attempts y.E25_stress.attempts;
      check_true "min_ratio bit-identical" (x.E25_stress.min_ratio = y.E25_stress.min_ratio);
      check_true "robust agrees" (x.E25_stress.robust = y.E25_stress.robust))
    a.E25_stress.rows b.E25_stress.rows

let test_flap_validation () =
  let net = single 2 in
  let rejects spec =
    try
      Fault.validate (Fault.plan [ spec ]) ~net;
      false
    with Invalid_argument _ -> true
  in
  check_true "period < 2" (rejects (Fault.on [ 0 ] (Fault.Flap { period = 1; up = 1 })));
  check_true "up = 0" (rejects (Fault.on [ 0 ] (Fault.Flap { period = 4; up = 0 })));
  check_true "up >= period" (rejects (Fault.on [ 0 ] (Fault.Flap { period = 4; up = 4 })));
  check_true "flap + dead on the same connection"
    (try
       Fault.validate
         (Fault.plan
            [ Fault.on [ 0 ] (Fault.Flap { period = 4; up = 2 });
              Fault.on [ 0 ] Fault.Dead ])
         ~net;
       false
     with Invalid_argument _ -> true);
  Fault.validate (Fault.plan [ Fault.on [ 1 ] (Fault.Flap { period = 4; up = 2 }) ]) ~net

let test_flap_cycles_presence () =
  (* flap(period=6,up=4)@1: present steps 0-3 of each cycle, absent at
     rate 0 for steps 4-5, then rejoining at its pre-drop rate. *)
  let n = 2 in
  let net = single n in
  let c = controller n in
  let plan = Fault.plan [ Fault.on [ 1 ] (Fault.Flap { period = 6; up = 4 }) ] in
  let inj = Injector.create ~plan c ~net in
  let r0 = [| 0.1; 0.1 |] in
  let states = drive inj ~r0 ~steps:24 in
  for k = 1 to 24 do
    let phase = (k - 1) mod 6 in
    if phase >= 4 then
      check_float ~tol:0. (Printf.sprintf "absent at step %d" k) 0. states.(k).(1)
    else
      check_true
        (Printf.sprintf "present at step %d" k)
        (states.(k).(1) > 0.)
  done;
  (* The well-behaved peer keeps evolving and never dies. *)
  check_true "peer keeps a positive rate" (states.(24).(0) > 0.);
  check_true "flapping conns count as misbehaving"
    (Fault.misbehaving plan ~n = [| false; true |]);
  check_true "describe mentions the flap"
    (List.exists
       (fun s -> s = "flap(period=6,up=4)@1")
       (Fault.describe plan))

let test_verdict_to_json () =
  let n = 2 in
  let net = single n in
  let c = controller n in
  let v = Supervisor.run c ~net ~r0:[| 0.02; 0.02 |] in
  let j = Supervisor.verdict_to_json ~label:"unit" v in
  let has needle =
    let nl = String.length needle and jl = String.length j in
    let rec go i = i + nl <= jl && (String.sub j i nl = needle || go (i + 1)) in
    go 0
  in
  check_true "labelled" (has "\"label\":\"unit\"");
  check_true "outcome present" (has "\"outcome\":\"converged\"");
  check_true "min_ratio present" (has "\"min_ratio\":");
  check_true "wall time excluded (deterministic)" (not (has "wall"));
  (* Deterministic: rendering the same verdict twice is byte-identical,
     and a re-run of the same supervised run renders identically too. *)
  Alcotest.(check string) "stable render" j (Supervisor.verdict_to_json ~label:"unit" v);
  let v' = Supervisor.run c ~net ~r0:[| 0.02; 0.02 |] in
  Alcotest.(check string) "re-run renders identically" j
    (Supervisor.verdict_to_json ~label:"unit" v')

let test_misbehaving_and_describe () =
  let plan =
    Fault.plan
      [
        Fault.on [ 1 ] Fault.Dead;
        Fault.on [ 2 ] (Fault.Greedy { ramp = 0.1; cap = 2. });
        Fault.on [ 0 ] (Fault.Stale { lag = 4 });
      ]
  in
  check_true "dead and greedy are misbehaving; stale is not"
    (Fault.misbehaving plan ~n:4 = [| false; true; true; false |]);
  Alcotest.(check int) "three described specs" 3 (List.length (Fault.describe plan));
  check_true "empty plan describes nothing" (Fault.describe Fault.none = [])

let suites =
  [
    ( "faults.plan",
      [
        case "validation" test_plan_validation;
        case "flap validation" test_flap_validation;
        case "misbehaving and describe" test_misbehaving_and_describe;
        case "restrict to a sub-population" test_restrict;
      ] );
    ( "faults.injector",
      [
        case "empty plan is bit-identical to Controller.step" test_empty_plan_is_exact;
        case "neutral severities are bit-identical" test_neutral_severities_are_exact;
        case "loss p=1 freezes the connection" test_lossy_one_freezes;
        case "dead holds, greedy ramps to cap" test_dead_holds_and_greedy_ramps;
        case "stale reads the lagged signal" test_stale_uses_old_signal;
        case "stochastic faults are seed-deterministic" test_stochastic_faults_deterministic;
        case "gateway cut windows and horizon" test_gateway_cut_windows;
        case "out-of-order step rejected" test_out_of_order_step_rejected;
        case "flap cycles presence deterministically" test_flap_cycles_presence;
      ] );
    ( "faults.supervisor",
      [
        case "unfaulted run matches Controller.run" test_supervisor_unfaulted_matches_run;
        case "transient cut recovers to full capacity" test_transient_cut_recovers;
        case "+inf adjuster degrades to Diverged" test_infinite_adjuster_is_divergence;
        case "damping retries recover a diverging run" test_supervisor_recovers_divergence;
        case "wall budget bounds retries" test_supervisor_wall_budget;
        case "run_map min_steps defers the verdict" test_run_map_min_steps;
        case "verdict_to_json is deterministic" test_verdict_to_json;
      ] );
    ( "faults.e25",
      [
        case "acceptance: Theorem 5 under stress" test_e25_acceptance;
        case "jobs-invariant matrix" test_e25_jobs_invariant;
      ] );
  ]
