(* Span tracing: deterministic identity (ids and logical clocks), the
   separate wall-clock timing channel, and the byte-identity contracts
   the spans extend — jobs-invariance, cache cold vs warm, snapshot
   restart — plus the trace report / stats cross-check. *)

open Ffc_obs
open Ffc_topology
open Ffc_core
open Ffc_service
open Test_util

(* Run [f] under a fresh tracing context inside a capture boundary, so
   span ids and the logical clock start from zero — what a fresh
   process (or one pooled task) sees.  Returns (result, trace). *)
let traced ?(timing = false) f =
  let sink = Sink.buffer () in
  let ctx = Ctx.make ~sink ~timing () in
  Ctx.with_ctx ctx (fun () -> Sink.capture f)

let trace_of ?timing f = snd (traced ?timing f)

let lines s =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let span_lines s =
  List.filter
    (fun l ->
      match Jsonf.string_field l ~key:"ev" with
      | Some ("span.start" | "span.end") -> true
      | _ -> false)
    (lines s)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Identity: ids, nesting, logical clock                               *)
(* ------------------------------------------------------------------ *)

let test_nesting_ids_and_clock () =
  let trace =
    trace_of (fun () ->
        Span.with_span "outer" (fun () ->
            Span.with_span "inner_a" (fun () -> ());
            Span.with_span "inner_b" (fun () -> ()));
        Span.with_span ~attrs:[ ("tier", Jsonf.string "full") ] "root2"
          (fun () -> ()))
  in
  Alcotest.(check (list string))
    "exact span stream"
    [
      {|{"ev":"span.start","id":"0","name":"outer","lc":0}|};
      {|{"ev":"span.start","id":"0.0","name":"inner_a","lc":1}|};
      {|{"ev":"span.end","id":"0.0","name":"inner_a","lc":2,"wall_ns":0,"alloc_w":0}|};
      {|{"ev":"span.start","id":"0.1","name":"inner_b","lc":3}|};
      {|{"ev":"span.end","id":"0.1","name":"inner_b","lc":4,"wall_ns":0,"alloc_w":0}|};
      {|{"ev":"span.end","id":"0","name":"outer","lc":5,"wall_ns":0,"alloc_w":0}|};
      {|{"ev":"span.start","id":"1","name":"root2","lc":6,"tier":"full"}|};
      {|{"ev":"span.end","id":"1","name":"root2","lc":7,"wall_ns":0,"alloc_w":0}|};
    ]
    (lines trace)

let test_off_handle_and_no_ctx () =
  (* No ambient context: spans are free no-ops and values flow through. *)
  Ctx.clear ();
  let s = Span.start "anything" in
  check_false "no ctx: start returns off" (Span.on s);
  Span.finish s;
  check_false "off is off" (Span.on Span.off);
  Span.finish Span.off;
  Alcotest.(check int) "with_span passes the result through" 7
    (Span.with_span "x" (fun () -> 7));
  (* Null sink: a context alone does not enable spans either. *)
  let ctx = Ctx.make () in
  Ctx.with_ctx ctx (fun () ->
      check_false "null sink: start returns off" (Span.on (Span.start "y")))

let test_timing_channel () =
  (* timing on: the end event carries real (nonnegative) wall/alloc. *)
  (* Allocate on the minor heap (small boxed values, not one big array
     which goes straight to the major heap and would not show up in the
     minor-words delta). *)
  let churn () =
    let acc = ref [] in
    for i = 1 to 1000 do
      acc := float_of_int i :: !acc
    done;
    ignore (Sys.opaque_identity !acc)
  in
  let trace =
    trace_of ~timing:true (fun () -> Span.with_span "work" churn)
  in
  (match
     List.filter
       (fun l -> Jsonf.string_field l ~key:"ev" = Some "span.end")
       (lines trace)
   with
  | [ e ] ->
    let field k =
      match Jsonf.number_field e ~key:k with
      | Some v -> v
      | None -> Alcotest.failf "no %s in %s" k e
    in
    check_true "wall_ns >= 0" (field "wall_ns" >= 0.);
    check_true "alloc_w counts the churn" (field "alloc_w" > 1000.)
  | l -> Alcotest.failf "expected one span.end, got %d" (List.length l));
  (* timing off: both channels are exactly zero. *)
  let trace0 = trace_of ~timing:false (fun () -> Span.with_span "work" churn) in
  check_true "deterministic timing renders 0"
    (List.exists (fun l -> contains l {|"wall_ns":0,"alloc_w":0|}) (lines trace0))

let test_exception_safety_and_idempotence () =
  let trace =
    trace_of (fun () ->
        (* with_span finishes on unwind. *)
        (try Span.with_span "boom" (fun () -> failwith "x")
         with Failure _ -> ());
        (* A raw start whose finish never runs leaves an unmatched
           start; closing the parent abandons it. *)
        let parent = Span.start "parent" in
        ignore (Span.start "orphan" : Span.t);
        Span.finish parent;
        Span.finish parent (* idempotent: second finish is silent *))
  in
  let acc = Trace_report.of_lines (lines trace) in
  let count name =
    match
      List.find_opt (fun p -> p.Trace_report.ph_name = name)
        (Trace_report.phases acc)
    with
    | Some p -> p.Trace_report.ph_count
    | None -> 0
  in
  Alcotest.(check int) "exception still closed boom" 1 (count "boom");
  Alcotest.(check int) "parent closed once" 1 (count "parent");
  Alcotest.(check int) "orphan start stays unmatched" 1
    (Trace_report.unmatched_starts acc)

(* ------------------------------------------------------------------ *)
(* Determinism: jobs, cache cold/warm, snapshot restart                *)
(* ------------------------------------------------------------------ *)

let with_jobs jobs f =
  let saved = Ffc_numerics.Pool.default_jobs () in
  Ffc_numerics.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Ffc_numerics.Pool.set_default_jobs saved) f

let test_pool_spans_jobs_invariant () =
  let run jobs =
    trace_of (fun () ->
        ignore
          (Ffc_numerics.Pool.parallel_map ~jobs
             (fun i ->
               Span.with_span (Printf.sprintf "task%d" (i mod 3)) (fun () ->
                   Span.with_span "leaf" (fun () -> i)))
             (Array.init 24 Fun.id)))
  in
  let reference = run 1 in
  check_true "tasks actually traced spans"
    (contains reference {|"name":"leaf"|});
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "span stream identical at jobs=%d" jobs)
        reference (run jobs))
    [ 2; 4; 24 ]

(* The real solve pipeline: fair rates + sparse DF + spectral radius.
   A fresh topology per run keeps the process-global sparsity-pattern
   memo cold both times, so the runs are structurally identical. *)
let test_solve_pipeline_spans_jobs_invariant () =
  let run jobs =
    with_jobs jobs (fun () ->
        trace_of (fun () ->
            let net = Topologies.parking_lot ~hops:4 () in
            let n = Network.num_connections net in
            let c =
              Controller.homogeneous ~config:Feedback.individual_fair_share
                ~adjuster:Scenario.standard_adjuster ~n
            in
            let ss =
              Steady_state.fair ~signal:Signal.linear_fractional ~b_ss:0.5 ~net
            in
            let df = Jacobian.of_controller_sparse c ~net ~at:ss in
            ignore (Jacobian.spectral_radius_sparse df : float)))
  in
  let narrow = run 1 in
  List.iter
    (fun name ->
      check_true (name ^ " span present") (contains narrow ("\"" ^ name ^ "\"")))
    [ "steady.fair"; "jac.sparse"; "sparsity.probe" ];
  Alcotest.(check string) "solve span stream identical at jobs 1 vs 4" narrow
    (run 4)

let rm_rf dir =
  let rec go p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> go (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists dir then go dir

let test_cache_cold_warm_spans_identical () =
  let dir = Filename.temp_file "ffc_span_cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cache = Ffc_cache.Cache.create ~dir () in
      let net = Topologies.parking_lot ~hops:3 () in
      let solve () =
        ignore
          (Steady_state.fair ~signal:Signal.linear_fractional ~b_ss:0.5 ~net
            : float array)
      in
      Ffc_cache.Cache.with_cache cache (fun () ->
          let cold = trace_of solve in
          let warm = trace_of solve in
          (* The one store happens on the miss alone... *)
          check_true "cold run stores (cache.put span)"
            (contains cold {|"name":"cache.put"|});
          check_false "warm run does not store"
            (contains warm {|"name":"cache.put"|});
          (* ...and the probe span fires on hit and miss alike: up to
             the put the streams are byte-identical, and the span
             identities (ids and names) match throughout — only the
             logical clock drifts past the put, which the timing
             contract places outside byte identity. *)
          let prefix t =
            List.filter
              (fun l -> not (contains l {|"name":"cache.put"|}))
              (span_lines t)
          in
          let until_put t =
            let rec take = function
              | l :: _ when contains l {|"name":"cache.put"|} -> []
              | l :: rest -> l :: take rest
              | [] -> []
            in
            take (span_lines t)
          in
          let cold_prefix = until_put cold in
          Alcotest.(check (list string))
            "byte-identical up to the cold run's store" cold_prefix
            (List.filteri
               (fun i _ -> i < List.length cold_prefix)
               (span_lines warm));
          let identity l =
            ( Jsonf.string_field l ~key:"ev",
              Jsonf.string_field l ~key:"id",
              Jsonf.string_field l ~key:"name" )
          in
          Alcotest.(check int)
            "same span count modulo cache.put"
            (List.length (prefix cold))
            (List.length (prefix warm));
          List.iter2
            (fun c w ->
              check_true "span identity matches cold vs warm"
                (identity c = identity w))
            (prefix cold) (prefix warm);
          let c = Ffc_cache.Cache.counters cache in
          Alcotest.(check int) "second run hit" 1 c.Ffc_cache.Cache.hits))

(* Snapshot restart: a recovered daemon serves the suffix with the same
   spans, byte for byte, as the incarnation that never crashed.  Both
   engines share one topology value so the process-global sparsity memo
   treats them alike. *)
let restart_resumes_identical_spans ~tier config =
  let path = Filename.temp_file "ffc_span_snap" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let net = Topologies.single ~mu:1. ~n:4 () in
      let adjuster = Rate_adjust.additive ~eta:0.1 ~beta:0.5 in
      let engine () =
        Admission.create ~config
          (Controller.homogeneous ~config:Feedback.individual_fair_share
             ~adjuster ~n:4)
          ~net
      in
      (* A flap storm: rapid joins and leaves, then the suffix. *)
      let prefix =
        [
          "add t=0.05"; "add t=0.1"; "remove conn0 t=0.15"; "add t=0.2";
          "remove conn1 t=0.25"; "add t=0.3";
        ]
      in
      let suffix =
        [ "add t=0.35"; "query t=0.4"; "remove conn2 t=0.45"; "stats" ]
      in
      let engine_a = engine () in
      let server_a = Server.create ~snapshot_path:path engine_a in
      ignore (trace_of (fun () -> Server.run_script server_a prefix) : string);
      ignore (Server.run_script server_a [ "snapshot" ]);
      let engine_b = engine () in
      let server_b = Server.create ~snapshot_path:path engine_b in
      (match Server.recover server_b with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "snapshot not found"
      | Error e -> Alcotest.fail e);
      let replies_a = ref [] and replies_b = ref [] in
      let trace_a =
        trace_of (fun () -> replies_a := Server.run_script server_a suffix)
      in
      let trace_b =
        trace_of (fun () -> replies_b := Server.run_script server_b suffix)
      in
      Alcotest.(check (list string))
        "post-restart replies byte-identical" !replies_a !replies_b;
      Alcotest.(check (option string))
        "the first resumed request is served at the expected tier" (Some tier)
        (Jsonf.string_field (List.hd !replies_b) ~key:"tier");
      check_true "suffix traced svc.request spans"
        (contains trace_a {|"name":"svc.request"|});
      Alcotest.(check string) "post-restart span stream byte-identical" trace_a
        trace_b)

let test_restart_resumes_identical_spans () =
  restart_resumes_identical_spans ~tier:"full" Admission.default_config

(* A restored engine must not build DF inside its first incremental
   request: that would emit a jac.sparse span the uninterrupted engine
   never emits. *)
let test_restart_at_incremental_tier () =
  restart_resumes_identical_spans ~tier:"incremental"
    { Admission.default_config with backlog_incremental = 0. }

(* ------------------------------------------------------------------ *)
(* The cross-check: trace report vs the daemon's own counters          *)
(* ------------------------------------------------------------------ *)

let test_trace_report_agrees_with_stats () =
  let net = Topologies.single ~mu:1. ~n:4 () in
  let adjuster = Rate_adjust.additive ~eta:0.1 ~beta:0.5 in
  let engine =
    Admission.create
      (Controller.homogeneous ~config:Feedback.individual_fair_share ~adjuster
         ~n:4)
      ~net
  in
  let server = Server.create engine in
  let script =
    [
      "add t=0.1"; "add t=0.2"; "add t=0.3"; "remove conn1 t=0.4";
      "query t=0.5"; "add t=0.6"; "stats";
    ]
  in
  let replies = ref [] in
  let trace = trace_of (fun () -> replies := Server.run_script server script) in
  let stats_line =
    match List.rev !replies with
    | last :: _ -> last
    | [] -> Alcotest.fail "no replies"
  in
  let counter name =
    match Protocol.json_number_field stats_line ~key:name with
    | Some v -> int_of_float v
    | None -> Alcotest.failf "no %S in %s" name stats_line
  in
  let acc = Trace_report.of_lines (lines trace) in
  let tier name =
    match List.assoc_opt name (Trace_report.tiers acc) with
    | Some n -> n
    | None -> 0
  in
  (* Every decision event the trace aggregated must match the served_*
     counters the daemon reports — the acceptance cross-check. *)
  Alcotest.(check int) "full tier agrees" (counter "served_full") (tier "full");
  Alcotest.(check int)
    "incremental tier agrees"
    (counter "served_incremental")
    (tier "incremental");
  Alcotest.(check int)
    "cached tier agrees" (counter "served_cached") (tier "cached");
  Alcotest.(check int) "shed tier agrees" (counter "served_shed") (tier "shed");
  check_true "decisions were actually served" (counter "served_full" > 0);
  (* And the report itself balances. *)
  Alcotest.(check int) "no unmatched starts" 0 (Trace_report.unmatched_starts acc);
  let request_spans =
    match
      List.find_opt
        (fun p -> p.Trace_report.ph_name = "svc.request")
        (Trace_report.phases acc)
    with
    | Some p -> p.Trace_report.ph_count
    | None -> 0
  in
  Alcotest.(check int) "one svc.request span per request" (List.length script)
    request_spans

let suites =
  [
    ( "span.core",
      [
        case "nesting, ids and the logical clock" test_nesting_ids_and_clock;
        case "off handle and missing context" test_off_handle_and_no_ctx;
        case "timing channel on/off" test_timing_channel;
        case "exception safety and idempotent finish"
          test_exception_safety_and_idempotence;
      ] );
    ( "span.determinism",
      [
        case "pool spans jobs-invariant" test_pool_spans_jobs_invariant;
        case "solve pipeline spans jobs-invariant"
          test_solve_pipeline_spans_jobs_invariant;
        case "cache cold vs warm spans identical"
          test_cache_cold_warm_spans_identical;
        case "snapshot restart resumes identical spans"
          test_restart_resumes_identical_spans;
        case "snapshot restart at the incremental tier"
          test_restart_at_incremental_tier;
      ] );
    ( "span.report",
      [
        case "trace report agrees with stats counters"
          test_trace_report_agrees_with_stats;
      ] );
  ]
