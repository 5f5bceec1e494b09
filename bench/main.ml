(* Benchmark harness.

   Part 1 regenerates every table and figure of the paper (experiments
   E1-E27) — the reproduction artifacts themselves.

   Part 2 times the repo's layers, section by section, and writes every
   timing as a row of BENCH.json, which `ffc bench diff` gates: run_all
   and the pooled scans at 1 vs N jobs, the fault and observability hook
   overheads, the result cache, the sparse Jacobian path, batched
   admission, the desim calendar and engine, and Bechamel
   micro-benchmarks of the computational kernels (the Fair Share queue
   recursion, the FIFO baseline, one controller step on a parking-lot
   network, the numeric Jacobian + eigensolve, the water-filling
   construction, the event loop). *)

open Bechamel
open Toolkit
open Ffc_numerics
open Ffc_queueing
open Ffc_topology
open Ffc_core
open Ffc_faults
module Jsonf = Ffc_obs.Jsonf

let fs_rates = Array.init 64 (fun i -> 0.001 *. float_of_int (i + 1))
let fs_mu = Vec.sum fs_rates *. 2.

let bench_fs_queues =
  Test.make ~name:"fair_share.queue_lengths (N=64)"
    (Staged.stage (fun () -> Fair_share.queue_lengths ~mu:fs_mu fs_rates))

let bench_fifo_queues =
  Test.make ~name:"fifo.queue_lengths (N=64)"
    (Staged.stage (fun () -> Fifo.queue_lengths ~mu:fs_mu fs_rates))

let controller_net = Topologies.parking_lot ~hops:4 ()

let controller =
  Controller.homogeneous ~config:Feedback.individual_fair_share
    ~adjuster:Scenario.standard_adjuster
    ~n:(Network.num_connections controller_net)

let controller_rates = Array.make (Network.num_connections controller_net) 0.1

let bench_controller_step =
  Test.make ~name:"controller.step (parking lot, 4 hops)"
    (Staged.stage (fun () ->
         Controller.step controller ~net:controller_net controller_rates))

(* The fault-injection hook on the same network: an empty plan must cost
   one branch over the bare step (the trivial path skips all
   bookkeeping, so the repeated step index is fine), and a full plan
   shows the faulted-path price.  The full-plan injector requires
   consecutive step indices, hence the counter. *)
let empty_injector = Injector.create controller ~net:controller_net

let bench_injector_empty =
  Test.make ~name:"injector.step empty plan (parking lot, 4 hops)"
    (Staged.stage (fun () ->
         Injector.step empty_injector ~step:0 controller_rates))

let full_plan =
  Fault.plan ~seed:17
    [
      Fault.everywhere (Fault.Stale { lag = 4 });
      Fault.everywhere (Fault.Lossy { p = 0.1 });
      Fault.everywhere (Fault.Noisy { sigma = 0.02 });
    ]

let bench_injector_full =
  let inj = Injector.create ~plan:full_plan controller ~net:controller_net in
  let k = ref 0 in
  Test.make ~name:"injector.step stale+lossy+noisy (parking lot, 4 hops)"
    (Staged.stage (fun () ->
         let r = Injector.step inj ~step:!k controller_rates in
         incr k;
         r))

let jac_net = Topologies.single ~n:12 ()

let jac_controller =
  Controller.homogeneous ~config:Feedback.individual_fair_share
    ~adjuster:Scenario.standard_adjuster ~n:12

let jac_point = Array.make 12 (0.5 /. 12.)

let bench_jacobian =
  Test.make ~name:"jacobian + eigenvalues (N=12)"
    (Staged.stage (fun () ->
         let df = Jacobian.of_controller jac_controller ~net:jac_net ~at:jac_point in
         Eigen.spectral_radius df))

let wf_rng = Rng.create 99
let wf_net = Topologies.random ~rng:wf_rng ~gateways:8 ~connections:24 ~max_path:4 ()

let bench_water_filling =
  Test.make ~name:"steady_state.fair (8 gw, 24 conns)"
    (Staged.stage (fun () ->
         Steady_state.fair ~signal:Signal.linear_fractional ~b_ss:0.5 ~net:wf_net))

let desim_net = Topologies.single ~mu:1. ~n:2 ()

let bench_desim =
  Test.make ~name:"desim 1000 time units (FS, rho=0.6)"
    (Staged.stage (fun () ->
         Ffc_desim.Netsim.run ~net:desim_net ~rates:[| 0.3; 0.3 |]
           ~discipline:Ffc_desim.Netsim.Fs_priority ~seed:3 ~horizon:1000. ()))

let bench_eigen_dense =
  let m =
    Mat.init 24 24 (fun i j ->
        sin (float_of_int ((i * 31) + j)) /. (1. +. float_of_int (abs (i - j))))
  in
  Test.make ~name:"eigenvalues dense 24x24" (Staged.stage (fun () -> Eigen.eigenvalues m))

(* Structure-aware stability kernel at scale: a Fair Share population
   with distinct rates (load = mu/2), where DF is exactly triangular in
   rate order, so [Eigen.spectral_radius] takes the Theorem-4 diagonal
   read while [spectral_radius_dense] pays the full QR iteration on the
   same matrix.  The Jacobian cases measure the pooled
   finite-difference fan-out end to end. *)
let big_point n =
  let scale = 0.5 /. (float_of_int n *. float_of_int (n + 1) /. 2.) in
  Array.init n (fun i -> scale *. float_of_int (i + 1))

let big_controller n =
  Controller.homogeneous ~config:Feedback.individual_fair_share
    ~adjuster:Scenario.standard_adjuster ~n

let big_df n =
  Jacobian.of_controller (big_controller n) ~net:(Topologies.single ~mu:1. ~n ())
    ~at:(big_point n)

let bench_jacobian_at n =
  let net = Topologies.single ~mu:1. ~n () in
  let c = big_controller n in
  let at = big_point n in
  Test.make
    ~name:(Printf.sprintf "jacobian pooled + eigenvalues (N=%d)" n)
    (Staged.stage (fun () ->
         let df = Jacobian.of_controller c ~net ~at in
         Eigen.spectral_radius df))

let bench_eigen_fast_at n =
  let df = big_df n in
  Test.make
    ~name:(Printf.sprintf "eigen structure-aware (FS DF, N=%d)" n)
    (Staged.stage (fun () -> Eigen.spectral_radius df))

let bench_eigen_dense_at n =
  let df = big_df n in
  Test.make
    ~name:(Printf.sprintf "eigen dense QR (FS DF, N=%d)" n)
    (Staged.stage (fun () -> Eigen.spectral_radius_dense df))

let window_net = Topologies.parking_lot ~hops:2 ~latency:0.2 ()

let bench_window_fixed_point =
  Test.make ~name:"window fixed point (parking lot)"
    (Staged.stage (fun () ->
         Window.rates_of_windows Feedback.individual_fifo ~net:window_net
           ~windows:[| 0.8; 0.5; 1.2 |]))

let bench_nash =
  let utility = Ffc_game.Utility.linear ~delay_cost:0.01 in
  Test.make ~name:"nash solve (FS, N=3)"
    (Staged.stage (fun () ->
         Ffc_game.Nash.solve Ffc_queueing.Service.fair_share utility ~mu:1. ~n:3
           ~r0:[| 0.1; 0.1; 0.1 |]))

let closed_loop_net = Topologies.single ~mu:1. ~n:2 ()

let bench_closed_loop =
  Test.make ~name:"closed loop, 10 updates x 100 time units"
    (Staged.stage (fun () ->
         Ffc_closedloop.Closed_loop.run ~net:closed_loop_net
           ~discipline:Ffc_closedloop.Closed_loop.Fs_priority
           ~style:Congestion.Individual ~signal:Signal.linear_fractional
           ~adjusters:(Array.make 2 Scenario.standard_adjuster)
           ~r0:[| 0.1; 0.1 |] ~interval:100. ~updates:10 ~seed:5 ()))

let tests =
  Test.make_grouped ~name:"ffc"
    [
      bench_fifo_queues;
      bench_fs_queues;
      bench_controller_step;
      bench_injector_empty;
      bench_injector_full;
      bench_jacobian;
      bench_eigen_dense;
      bench_jacobian_at 64;
      bench_jacobian_at 128;
      bench_eigen_fast_at 64;
      bench_eigen_dense_at 64;
      bench_eigen_fast_at 128;
      bench_eigen_dense_at 128;
      bench_water_filling;
      bench_desim;
      bench_window_fixed_point;
      bench_nash;
      bench_closed_loop;
    ]

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

(* Every BENCH.json section is a list of rows: a name unique across the
   file, the time of one run of the measured operation, extra fields,
   and, where the section checks output identity, that verdict.
   `ffc bench diff` gates every row on ns_per_run and fails on
   "identical": false. *)
type row = {
  name : string;
  ns_per_run : float;
  extra : (string * Jsonf.t) list;
  identical : bool option;
}

let row ?(extra = []) ?identical name ns_per_run = { name; ns_per_run; extra; identical }

let row_json r =
  Jsonf.Object
    ((("name", Jsonf.String r.name) :: ("ns_per_run", Jsonf.float r.ns_per_run) :: r.extra)
    @ match r.identical with None -> [] | Some b -> [ ("identical", Jsonf.Bool b) ])

let print_rows title rows =
  Printf.printf "%s\n%s\n%s\n" (String.make 72 '=') title (String.make 72 '=');
  List.iter
    (fun r ->
      Printf.printf "%-58s %14.0f ns/run%s" r.name r.ns_per_run
        (match r.identical with
        | None -> ""
        | Some true -> "  identical"
        | Some false -> "  NOT IDENTICAL");
      List.iter
        (fun (k, v) ->
          match Jsonf.as_float v with
          | Some x -> Printf.printf "  %s=%.4g" k x
          | None -> Printf.printf "  %s=%s" k (Jsonf.to_string v))
        r.extra;
      print_newline ())
    rows

let speedup a b = ("speedup", Jsonf.float (a /. b))

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ns per call of [f], over [iters] calls. *)
let time_loop ~iters f =
  let _, s =
    time (fun () ->
        for _ = 1 to iters do
          ignore (f ())
        done)
  in
  s *. 1e9 /. float_of_int iters

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.(Array.length s / 2)

(* The overhead of a hook too cheap to see in one timing: [bare] and
   [hooked] each time one short arm (ns per call) and run back to back
   in every round, alternating which goes first so monotonic drift
   (thermal, frequency scaling, heap growth) favours neither.  Host
   interference comes in bursts of tens of milliseconds, so a pair
   inside a quiet window measures the true delta, and the median of the
   per-round deltas only needs a majority of quiet pairs, which short
   arms and many rounds buy.  A hook cannot cost less than nothing, so
   a negative median (noise) reads as 0.  Returns the median bare arm
   and the overhead, in ns per call. *)
let paired_rounds ~rounds ~bare ~hooked =
  ignore (bare ());
  ignore (hooked ());
  Gc.compact ();
  let bares = Array.make rounds 0. and hooks = Array.make rounds 0. in
  for i = 0 to rounds - 1 do
    if i land 1 = 0 then begin
      bares.(i) <- bare ();
      hooks.(i) <- hooked ()
    end
    else begin
      hooks.(i) <- hooked ();
      bares.(i) <- bare ()
    end
  done;
  (median bares, Float.max 0. (median (Array.init rounds (fun i -> hooks.(i) -. bares.(i)))))

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)
(* ------------------------------------------------------------------ *)

let kernel_rows () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock; minor_allocated; major_allocated ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  let raw = Benchmark.all cfg instances tests in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | Some ols_result -> (
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> est
      | Some [] | None -> Float.nan)
    | None -> Float.nan
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let minors = Analyze.all ols Instance.minor_allocated raw in
  let majors = Analyze.all ols Instance.major_allocated raw in
  Hashtbl.fold (fun name _ acc -> name :: acc) times []
  |> List.sort compare
  |> List.map (fun name ->
         row name (estimate times name)
           ~extra:
             [
               ("minor_words_per_run", Jsonf.float (estimate minors name));
               ("major_words_per_run", Jsonf.float (estimate majors name));
             ])

(* Sequential vs parallel [run_all], with the byte-identical-output
   guarantee checked.  Returns the parallel run's output and time too:
   it is the cache section's uncached baseline. *)
let run_all_rows ~jobs =
  let seq, t_seq = time (fun () -> Ffc_experiments.Registry.run_all ~jobs:1 ()) in
  let par, t_par = time (fun () -> Ffc_experiments.Registry.run_all ~jobs ()) in
  ( seq,
    (par, t_par),
    [
      row "run_all jobs=1" (t_seq *. 1e9);
      row "run_all jobs=N" (t_par *. 1e9)
        ~extra:[ ("jobs", Jsonf.int jobs); speedup t_seq t_par ]
        ~identical:(String.equal seq par);
    ] )

(* The pooled experiment scans at jobs = 1 vs jobs = 4; the determinism
   contract says the rows must compare equal whatever the jobs count. *)
let scan_rows () =
  let open Ffc_experiments in
  let scan name f =
    let a, t1 = time (fun () -> f ~jobs:1) in
    let b, t4 = time (fun () -> f ~jobs:4) in
    [
      row (name ^ " jobs=1") (t1 *. 1e9);
      row (name ^ " jobs=4") (t4 *. 1e9) ~extra:[ speedup t1 t4 ] ~identical:(a = b);
    ]
  in
  List.concat
    [
      scan "E5 stability sweep (8 sizes)" (fun ~jobs -> E05_stability.compute ~jobs ());
      scan "E7 Theorem-4 sweep (10 trials)" (fun ~jobs -> E07_triangular.compute ~jobs ());
      scan "E22 gain ablation (18 cells)" (fun ~jobs -> E22_gain.compute ~jobs ());
      scan "E25 stress matrix (33 cells)" (fun ~jobs -> E25_stress.compute ~jobs ());
    ]

(* The empty-plan fault hook must cost < 5% over the bare step: one
   branch and one int store, constant whatever the network, so it is
   measured against a 64-connection step (~15 us) where jitter and
   code-layout luck sit well under 1%. *)
let fault_rows () =
  let n = 64 in
  let net = Topologies.single ~mu:1. ~n () in
  let c =
    Controller.homogeneous ~config:Feedback.individual_fair_share
      ~adjuster:Scenario.standard_adjuster ~n
  in
  let rates = Array.init n (fun i -> 0.001 *. float_of_int (i + 1)) in
  let empty_inj = Injector.create c ~net in
  let full_inj = Injector.create ~plan:full_plan c ~net in
  let k = ref 0 in
  let arm f () = time_loop ~iters:2_000 f in
  let rounds = 21 in
  let bare_f = arm (fun () -> Controller.step c ~net rates) in
  let bare, empty =
    paired_rounds ~rounds ~bare:bare_f
      ~hooked:(arm (fun () -> Injector.step empty_inj ~step:0 rates))
  in
  let bare_full, full =
    paired_rounds ~rounds ~bare:bare_f
      ~hooked:
        (arm (fun () ->
             let r = Injector.step full_inj ~step:!k rates in
             incr k;
             r))
  in
  let rounds_f = ("rounds", Jsonf.int rounds) in
  [
    row "controller.step bare (single gw, N=64)" bare;
    row "injector.step empty plan (single gw, N=64)" (bare +. empty)
      ~extra:[ ("overhead_pct", Jsonf.float (empty /. bare *. 100.)); rounds_f ];
    row "injector.step stale+lossy+noisy (single gw, N=64)" (bare_full +. full)
      ~extra:[ rounds_f ];
  ]

(* An installed context with a null sink must cost < 2% on the
   instrumented hot paths: one atomic load, a branch and an atomic
   increment per tap, no allocation.  Arms of ~5-10 ms keep each pair
   inside one scheduler quantum; 101 rounds give the median a solid
   majority of quiet pairs. *)
let obs_rows () =
  let one ~name ~iters f =
    let ctx = Ffc_obs.Ctx.make () in
    let rounds = 101 in
    let bare, delta =
      paired_rounds ~rounds
        ~bare:(fun () -> time_loop ~iters f)
        ~hooked:(fun () -> Ffc_obs.Ctx.with_ctx ctx (fun () -> time_loop ~iters f))
    in
    row ("null trace ctx: " ^ name) (bare +. delta)
      ~extra:
        [
          ("bare_ns", Jsonf.float bare);
          ("overhead_pct", Jsonf.float (delta /. bare *. 100.));
          ("rounds", Jsonf.int rounds);
        ]
  in
  let n = 64 in
  let net = Topologies.single ~mu:1. ~n () in
  let c =
    Controller.homogeneous ~config:Feedback.individual_fair_share
      ~adjuster:Scenario.standard_adjuster ~n
  in
  let rates = Array.init n (fun i -> 0.001 *. float_of_int (i + 1)) in
  (* The span-instrumented solve pipeline (steady.fair_masked +
     jac.sparse + eigen spans).  The masks alternate so each iteration
     misses the one-slot memos and really solves — measuring the
     per-solve span guard, not a memo hit. *)
  let solve =
    let net = Topologies.parking_lot ~hops:4 () in
    let np = Network.num_connections net in
    let c =
      Controller.homogeneous ~config:Feedback.individual_fair_share
        ~adjuster:Scenario.standard_adjuster ~n:np
    in
    let masks = [| Array.make np true; Array.init np (fun i -> i <> np - 1) |] in
    let k = ref 0 in
    fun () ->
      let mask = masks.(!k land 1) in
      incr k;
      let ss =
        Steady_state.fair_masked ~signal:Signal.linear_fractional ~b_ss:0.5 ~net
          ~active:mask
      in
      let df = Jacobian.of_controller_sparse c ~net ~at:ss in
      ignore (Jacobian.spectral_radius_sparse df : float)
  in
  [
    one ~name:"controller.step (single gw, N=64)" ~iters:200 (fun () ->
        Controller.step c ~net rates);
    one ~name:"desim 1000 time units (FS, rho=0.6)" ~iters:15 (fun () ->
        Ffc_desim.Netsim.run ~net:desim_net ~rates:[| 0.3; 0.3 |]
          ~discipline:Ffc_desim.Netsim.Fs_priority ~seed:3 ~horizon:1000. ());
    one ~name:"solve pipeline (fair+DF+rho, parking lot)" ~iters:50 solve;
  ]

(* Result cache: cold and warm [run_all] against a scratch cache
   directory, next to the uncached run.  The warm run must be a 100%
   hit replay with byte-identical output; the cold run's lookup
   overhead must stay under 1% of the uncached time.  A cold-vs-uncached
   wall-clock diff is noise-dominated at the percent level, so the
   overhead is derived instead: the hot per-lookup cost times the cold
   run's lookup count. *)
let cache_rows ~jobs ~uncached:(uncached, t_un) =
  let open Ffc_cache in
  let dir = Filename.temp_dir "ffc-bench-cache" "" in
  Fun.protect
    ~finally:(fun () ->
      Store.clear (Store.create ~root:dir ());
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () ->
      let c = Cache.create ~dir () in
      let run () =
        Cache.with_cache c (fun () -> Ffc_experiments.Registry.run_all ~jobs ())
      in
      let cold, t_cold = time run in
      let cold_lookups = Cache.lookups (Cache.counters c) in
      Cache.reset c;
      let warm, t_warm = time run in
      let hit_ratio = Cache.hit_ratio (Cache.counters c) in
      let lookup_ns =
        Cache.with_cache c (fun () ->
            let probe () =
              Cache.memo ~tier:"bench"
                ~build:(fun k -> Key.str k "lookup-probe")
                ~encode:(fun v -> Codec.encode (fun b -> Codec.put_floats b v))
                ~decode:Codec.get_floats
                (fun () -> [| 1.; 2. |])
            in
            ignore (probe ());
            time_loop ~iters:5_000 probe)
      in
      let jobs_f = ("jobs", Jsonf.int jobs) in
      [
        row "run_all cold cache, jobs=N" (t_cold *. 1e9)
          ~extra:[ jobs_f; ("lookups", Jsonf.int cold_lookups) ];
        row "run_all warm cache, jobs=N" (t_warm *. 1e9)
          ~extra:[ jobs_f; ("hit_ratio", Jsonf.float hit_ratio); speedup t_un t_warm ]
          ~identical:(String.equal uncached cold && String.equal uncached warm);
        row "cache lookup (hot, small entry)" lookup_ns
          ~extra:
            [
              ( "cold_lookup_overhead_pct",
                Jsonf.float (float_of_int cold_lookups *. lookup_ns /. (t_un *. 1e9) *. 100.)
              );
            ];
      ])

(* Structure-aware Jacobian path: dense probing vs grouped sparse
   probing vs the incremental churn update, on disjoint parking lots
   where the route-incidence pattern is genuinely sparse (nnz grows
   linearly, probe groups stay at hops+1 whatever N).  Identity is part
   of the contract: the CSR build must match the dense build bit for
   bit, and the incremental update after a one-flow change must match a
   from-scratch rebuild. *)
let sparse_rows_one ~lots ~hops ~iters =
  let net = Topologies.multi_parking_lot ~lots ~hops () in
  let n = Network.num_connections net in
  let pattern = Sparsity.of_network net in
  let c = big_controller n in
  let at = big_point n in
  let f r = Controller.step c ~net r in
  let dense_df = Jacobian.numeric f ~at in
  let sp_df = Jacobian.numeric_sparse f ~pattern ~at in
  let bits = Int64.bits_of_float in
  let build_identical =
    let d = Mat.Sparse.to_dense sp_df in
    try
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if bits (Mat.get d i j) <> bits (Mat.get dense_df i j) then raise Exit
        done
      done;
      true
    with Exit -> false
  in
  (* Churn: bump one flow's rate (lot 0's long flow, so the touched
     region is exactly one lot) and patch vs rebuild. *)
  let at' = Array.copy at in
  at'.(0) <- at'.(0) *. 1.5;
  let rebuild () = Jacobian.of_controller_sparse c ~net ~at:at' in
  let update () = Jacobian.update_flow c ~net ~prev:sp_df ~prev_at:at ~at:at' in
  let update_identical = Mat.Sparse.equal (update ()) (rebuild ()) in
  let timed op =
    ignore (op ());
    time_loop ~iters op
  in
  let dense_ns = timed (fun () -> Jacobian.spectral_radius (Jacobian.numeric f ~at)) in
  let sparse_ns =
    timed (fun () -> Jacobian.spectral_radius_sparse (Jacobian.numeric_sparse f ~pattern ~at))
  in
  let rebuild_ns = timed rebuild in
  let update_ns = timed update in
  let at_n what = Printf.sprintf "jacobian %s (N=%d)" what n in
  [
    row (at_n "dense + rho") dense_ns;
    row (at_n "sparse + rho") sparse_ns
      ~extra:
        [
          ("nnz", Jsonf.int (Sparsity.nnz pattern));
          ("groups", Jsonf.int (Array.length (Sparsity.groups pattern)));
          speedup dense_ns sparse_ns;
        ]
      ~identical:build_identical;
    row (at_n "sparse rebuild") rebuild_ns;
    row (at_n "update_flow") update_ns ~extra:[ speedup rebuild_ns update_ns ]
      ~identical:update_identical;
  ]

let sparse_rows () =
  List.concat
    [
      sparse_rows_one ~lots:16 ~hops:3 ~iters:30;
      sparse_rows_one ~lots:32 ~hops:3 ~iters:10;
      sparse_rows_one ~lots:128 ~hops:3 ~iters:3;
    ]

(* Gateway admission: serial adds vs one batched bracket, over an
   add-k / remove-k churn cycle.  The service contract says batch
   verdicts bit-match serial execution, so identity (decisions, the
   committed rates, ρ) is checked once outside the timing loops and
   the only legitimate win left for the batched row is amortising the
   ρ(DF) stability check over the bracket.  Arrival stamps advance one
   logical second per request, so the backlog never climbs and every
   request is served at the full tier — the rows compare the expensive
   path, not a degraded one. *)
let service_rows () =
  let open Ffc_service in
  let n = 32 and k = 8 and iters = 60 in
  let fresh_engine () =
    let net = Topologies.single ~n () in
    let controller =
      Controller.homogeneous ~config:Feedback.individual_fair_share
        ~adjuster:Scenario.standard_adjuster ~n
    in
    Admission.create controller ~net
  in
  let clock = ref 0. in
  let tick () =
    clock := !clock +. 1.;
    Some !clock
  in
  let add engine =
    (Admission.handle engine (Protocol.Add { conn = None; time = tick (); size = None }))
      .Admission.line
  in
  let remove engine i =
    ignore
      (Admission.handle engine
         (Protocol.Remove { conn = "conn" ^ string_of_int i; time = tick () }))
  in
  let batch_adds () =
    List.init k (fun _ -> { Protocol.conn = None; time = tick (); size = None })
  in
  (* Same k adds from the same committed state, serially and as one
     bracket. *)
  let serial_engine = fresh_engine () and batch_engine = fresh_engine () in
  let serial_lines = List.init k (fun _ -> add serial_engine) in
  let batch_lines =
    List.map
      (fun (r : Admission.reply) -> r.Admission.line)
      (Admission.handle_batch batch_engine (batch_adds ()))
  in
  let decision line = Protocol.json_string_field line ~key:"decision" in
  let members = List.filteri (fun i _ -> i < k) batch_lines in
  let bits = Int64.bits_of_float in
  let identical =
    List.for_all2 (fun s b -> decision s = decision b) serial_lines members
    && Array.for_all2
         (fun a b -> Int64.equal (bits a) (bits b))
         (Admission.rates serial_engine)
         (Admission.rates batch_engine)
    && Int64.equal (bits (Admission.rho serial_engine)) (bits (Admission.rho batch_engine))
    && Admission.active_count serial_engine = Admission.active_count batch_engine
  in
  let per_req cycle =
    let engine = fresh_engine () in
    let _, s =
      time (fun () ->
          for _ = 1 to iters do
            cycle engine;
            for i = 0 to k - 1 do
              remove engine i
            done
          done)
    in
    s *. 1e9 /. float_of_int (iters * 2 * k)
  in
  let serial_ns =
    per_req (fun engine ->
        for _ = 1 to k do
          ignore (add engine)
        done)
  in
  let batch_ns =
    per_req (fun engine -> ignore (Admission.handle_batch engine (batch_adds ())))
  in
  let k_f = ("k", Jsonf.int k) in
  [
    row (Printf.sprintf "service.churn serial (single:%d, k=%d)" n k) serial_ns
      ~extra:[ k_f ] ~identical;
    row (Printf.sprintf "service.churn batch=%d (single:%d)" k n) batch_ns
      ~extra:[ k_f; speedup serial_ns batch_ns ]
      ~identical;
  ]

(* Desim core: the timing-wheel calendar against the reference binary
   heap, and whole-engine runs at growing flow counts.  The calendar
   rows use the classic hold model — N pending timers spread uniformly,
   then a pop/reschedule churn with exponential gaps of mean N ticks,
   which keeps the population spread at ~1 event per tick (re-inserting
   at mean gap 1 would collapse all timers into a few ticks and measure
   only the ready heap).  Gaps are drawn outside the timed loop so the
   rows compare calendar cost, not RNG cost.  The netsim rows run the
   E27 topology (disjoint parking lots, Fair Share) and check that
   1-shard and sharded-parallel runs agree bit for bit. *)

(* ns per pop+reschedule pair after seeding [held] timers; [push] and
   [pop] (returning the popped time) wrap one calendar. *)
let hold_churn ~held ~ops ~gaps ~push ~pop =
  let rng = Rng.create 11 in
  for i = 0 to held - 1 do
    push (Rng.uniform rng *. float_of_int held) i
  done;
  let _, s =
    time (fun () ->
        for i = 0 to ops - 1 do
          push (pop () +. gaps.(i)) 0
        done)
  in
  s *. 1e9 /. float_of_int ops

let scheduler_rows ~held =
  let open Ffc_desim in
  let ops = 200_000 in
  let rng = Rng.create 13 in
  let gaps = Array.init ops (fun _ -> Rng.exponential rng ~rate:(1. /. float_of_int held)) in
  let heap = Event_heap.create () in
  let heap_ns =
    hold_churn ~held ~ops ~gaps
      ~push:(fun time i -> Event_heap.push heap ~time (i, i, 0))
      ~pop:(fun () -> match Event_heap.pop_min heap with Some (time, _) -> time | None -> 0.)
  in
  let wheel = Timing_wheel.create ~tick:1.0 () in
  let wheel_ns =
    hold_churn ~held ~ops ~gaps
      ~push:(fun time i -> Timing_wheel.schedule wheel ~time ~handler:i ~a:i ~b:0)
      ~pop:(fun () ->
        ignore (Timing_wheel.pop wheel);
        Timing_wheel.popped_time wheel)
  in
  [
    row (Printf.sprintf "calendar heap hold (held=%d)" held) heap_ns;
    row (Printf.sprintf "calendar wheel hold (held=%d)" held) wheel_ns
      ~extra:[ speedup heap_ns wheel_ns ];
  ]

let netsim_rows ~flows =
  let open Ffc_desim in
  let hops = 3 in
  let lots = Stdlib.max 1 (flows / (hops + 1)) in
  let net = Topologies.multi_parking_lot ~mu:1. ~latency:0.05 ~lots ~hops () in
  let n = Network.num_connections net in
  let rates =
    Array.init n (fun i ->
        if i mod (hops + 1) = 0 then 0.25 else 0.21 +. (0.03 *. float_of_int (i mod 3)))
  in
  let horizon = Float.max 20. (2e5 /. float_of_int flows) in
  let run ~shards ~jobs =
    Netsim.run ~net ~rates ~discipline:Netsim.Fs_priority ~seed:7 ~shards ~jobs ~horizon ()
  in
  let fingerprint r =
    List.init (Stdlib.min n 64) (fun i ->
        (Netsim.delay_mean r ~conn:i, Netsim.deliveries r ~conn:i))
  in
  let jobs = Stdlib.min 8 (Domain.recommended_domain_count ()) in
  let one, t_one = time (fun () -> run ~shards:1 ~jobs:1) in
  let par, t_par = time (fun () -> run ~shards:(4 * jobs) ~jobs) in
  let events = Netsim.events one in
  [
    row (Printf.sprintf "netsim 1 shard (flows=%d)" n) (t_one *. 1e9)
      ~extra:
        [
          ("events", Jsonf.int events);
          ("events_per_sec", Jsonf.float (float_of_int events /. t_one));
        ];
    row (Printf.sprintf "netsim sharded (flows=%d)" n) (t_par *. 1e9)
      ~extra:[ ("jobs", Jsonf.int jobs); ("shards", Jsonf.int (4 * jobs)); speedup t_one t_par ]
      ~identical:(fingerprint one = fingerprint par && events = Netsim.events par);
  ]

(* ------------------------------------------------------------------ *)
(* BENCH.json                                                          *)
(* ------------------------------------------------------------------ *)

(* One row per line, so two recordings diff row by row. *)
let write_bench_json doc =
  let buf = Buffer.create 16_384 in
  let rec layout indent v =
    let nested = function Jsonf.Object _ | Jsonf.Array _ -> true | _ -> false in
    let block opening closing items item =
      Buffer.add_string buf opening;
      List.iteri
        (fun i x ->
          Buffer.add_string buf (if i > 0 then ",\n" else "\n");
          Buffer.add_string buf (String.make (indent + 2) ' ');
          item x)
        items;
      Buffer.add_string buf ("\n" ^ String.make indent ' ' ^ closing)
    in
    match v with
    | Jsonf.Object fields when List.exists (fun (_, v) -> nested v) fields ->
      block "{" "}" fields (fun (k, v) ->
          Jsonf.add_escaped buf k;
          Buffer.add_string buf ": ";
          layout (indent + 2) v)
    | Jsonf.Array (_ :: _ as vs) -> block "[" "]" vs (layout (indent + 2))
    | v -> Buffer.add_string buf (Jsonf.to_string v)
  in
  layout 0 doc;
  Buffer.add_char buf '\n';
  Out_channel.with_open_bin "BENCH.json" (fun oc -> Buffer.output_buffer oc buf)

let () =
  let jobs = Domain.recommended_domain_count () in
  let all, uncached, run_all = run_all_rows ~jobs in
  (* Part 1: every table and figure of the paper. *)
  print_string all;
  print_newline ();
  let section key title rows =
    print_rows title rows;
    (key, Jsonf.Array (List.map row_json rows))
  in
  let run_all = section "run_all" "run_all: sequential vs parallel" run_all in
  let scans = section "scans" "parallel scans: jobs=1 vs jobs=4" (scan_rows ()) in
  let faults = section "faults" "fault-injection hook overhead (< 5%)" (fault_rows ()) in
  let obs = section "obs" "observability overhead, null sink (< 2%)" (obs_rows ()) in
  let cache =
    section "cache" "result cache: cold vs warm run_all (lookups < 1%)"
      (cache_rows ~jobs ~uncached)
  in
  let sparse =
    section "sparse" "sparse Jacobian: dense vs grouped CSR vs incremental" (sparse_rows ())
  in
  let service =
    section "service" "gateway admission: serial vs batched brackets" (service_rows ())
  in
  let scheduler =
    section "scheduler" "desim calendar: timing wheel vs heap"
      (List.concat_map (fun held -> scheduler_rows ~held) [ 1_000; 10_000; 100_000 ])
  in
  let netsim =
    section "netsim" "desim netsim: 1 shard vs sharded"
      (List.concat_map (fun flows -> netsim_rows ~flows) [ 1_000; 10_000; 100_000 ])
  in
  let kernels = section "kernels" "micro-benchmarks (bechamel)" (kernel_rows ()) in
  (* [cpus_available] is the hardware's recommended domain count;
     [jobs_effective] is what the pool fans out to after its clamp.  A
     speedup near 1.0 with jobs_effective = 1 is expected, not a
     regression. *)
  write_bench_json
    (Jsonf.Object
       [
         ("cpus_available", Jsonf.int jobs);
         ("jobs_effective", Jsonf.int (Stdlib.min (Pool.default_jobs ()) jobs));
         run_all;
         scans;
         faults;
         obs;
         cache;
         sparse;
         service;
         ("desim", Jsonf.Object [ scheduler; netsim ]);
         kernels;
       ]);
  print_endline "wrote BENCH.json"
