open Ffc_obs
open Test_util

let lines_of s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_semantics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.count" in
  Alcotest.(check int) "fresh counter is 0" 0 (Metrics.Counter.value c);
  Metrics.Counter.incr c;
  Metrics.Counter.add c 5;
  Alcotest.(check int) "incr + add" 6 (Metrics.Counter.value c);
  (* Get-or-create: the same name resolves to the same cell. *)
  let c' = Metrics.counter m "a.count" in
  Metrics.Counter.incr c';
  Alcotest.(check int) "same cell via name" 7 (Metrics.Counter.value c);
  check_true "negative add rejected"
    (try Metrics.Counter.add c (-1); false with Invalid_argument _ -> true);
  let g = Metrics.gauge m "a.gauge" in
  Metrics.Gauge.set g 2.5;
  check_float "gauge set" 2.5 (Metrics.Gauge.value g);
  check_true "kind mismatch rejected"
    (try ignore (Metrics.gauge m "a.count"); false with Invalid_argument _ -> true)

let test_histogram_semantics () =
  let m = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.; 10.; 100. |] m "h" in
  check_true "empty quantile is nan" (Float.is_nan (Metrics.Histogram.quantile h 0.5));
  List.iter (Metrics.Histogram.observe h) [ 0.5; 0.7; 5.; 50.; 5000.; Float.nan ];
  Alcotest.(check int) "count includes overflow" 6 (Metrics.Histogram.count h);
  check_float "median bucket bound" 10. (Metrics.Histogram.quantile h 0.5);
  check_float "q=0 lands in first bucket" 1. (Metrics.Histogram.quantile h 0.);
  check_true "q=1 is overflow"
    (Metrics.Histogram.quantile h 1. = Float.infinity);
  check_true "re-registering with other buckets rejected"
    (try ignore (Metrics.histogram ~buckets:[| 2. |] m "h"); false
     with Invalid_argument _ -> true);
  (* Same buckets: get-or-create. *)
  ignore (Metrics.histogram ~buckets:[| 1.; 10.; 100. |] m "h");
  (* The default decade buckets take an exponent-based fast path in
     [bucket_index]; it must agree with the definitional linear scan
     everywhere, in particular at exact powers of ten. *)
  let hd = Metrics.histogram m "hd" in
  let reference x =
    let b = Metrics.default_buckets in
    let n = Array.length b in
    let i = ref 0 in
    while !i < n && not (x <= b.(!i)) do incr i done;
    !i
  in
  List.iter
    (fun x ->
      Alcotest.(check int)
        (Printf.sprintf "bucket_index %.17g" x)
        (reference x)
        (Metrics.Histogram.bucket_index hd x))
    (List.concat_map
       (fun d ->
         let p = 10. ** float_of_int d in
         [ p; p *. (1. +. epsilon_float); p *. 0.999999; p *. 3.16 ])
       [ -13; -12; -7; -1; 0; 1; 3; 4; 5 ]
    @ [ 0.; -1.; Float.nan; Float.infinity; Float.min_float; Float.max_float ])

let test_snapshot_reset_render () =
  let m = Metrics.create () in
  Metrics.Counter.add (Metrics.counter m "z") 3;
  Metrics.Gauge.set (Metrics.gauge m "a") 1.5;
  Metrics.Histogram.observe (Metrics.histogram m "mid") 0.5;
  let snap = Metrics.snapshot m in
  Alcotest.(check (list string))
    "sorted by name" [ "a"; "mid"; "z" ] (List.map fst snap);
  (match List.assoc "z" snap with
  | Metrics.Counter_v 3 -> ()
  | _ -> Alcotest.fail "counter snapshot value");
  (match List.assoc "mid" snap with
  | Metrics.Histogram_v { total = 1; counts; bounds; sum } ->
    Alcotest.(check (float 1e-12)) "sum tracks the observation" 0.5 sum;
    Alcotest.(check int) "overflow bucket added" (Array.length bounds + 1)
      (Array.length counts)
  | _ -> Alcotest.fail "histogram snapshot value");
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check_true "text render mentions every name"
    (let t = Metrics.render_text snap in
     List.for_all (fun (n, _) -> contains t n) snap);
  (* The JSON render must itself be well-formed. *)
  (match json (Metrics.render_json snap) with
  | Jsonf.Array items -> Alcotest.(check int) "one object per instrument" 3 (List.length items)
  | _ -> Alcotest.fail "render_json is not an array");
  Metrics.reset m;
  Alcotest.(check int) "reset counter" 0 (Metrics.Counter.value (Metrics.counter m "z"));
  Alcotest.(check int) "reset histogram" 0
    (Metrics.Histogram.count (Metrics.histogram m "mid"))

let test_histogram_local_merge () =
  (* The Local merge path must be indistinguishable from observing the
     parent directly: same bucket counts, same sum, same quantiles. *)
  let m = Metrics.create () in
  let direct = Metrics.histogram ~buckets:[| 1.; 10.; 100. |] m "direct" in
  let merged = Metrics.histogram ~buckets:[| 1.; 10.; 100. |] m "merged" in
  let values = [ 0.5; 0.7; 5.; 50.; 5000.; 50.; 0.1 ] in
  List.iter (Metrics.Histogram.observe direct) values;
  let l = Metrics.Histogram.Local.create merged in
  List.iter (Metrics.Histogram.Local.observe l) values;
  Alcotest.(check int) "nothing visible before flush" 0
    (Metrics.Histogram.count merged);
  Metrics.Histogram.Local.flush l;
  Alcotest.(check int) "counts merge" (Metrics.Histogram.count direct)
    (Metrics.Histogram.count merged);
  check_float "sum merges too" (Metrics.Histogram.sum direct)
    (Metrics.Histogram.sum merged);
  List.iter
    (fun q ->
      check_float
        (Printf.sprintf "quantile %g agrees" q)
        (Metrics.Histogram.quantile direct q)
        (Metrics.Histogram.quantile merged q))
    [ 0.; 0.25; 0.5; 0.9 ];
  (* flush is idempotent until the next observe... *)
  Metrics.Histogram.Local.flush l;
  Alcotest.(check int) "second flush adds nothing"
    (Metrics.Histogram.count direct)
    (Metrics.Histogram.count merged);
  (* ...and the tally is reusable afterwards. *)
  Metrics.Histogram.Local.observe l 5.;
  Metrics.Histogram.Local.flush l;
  Alcotest.(check int) "reused local merges the new tally"
    (Metrics.Histogram.count direct + 1)
    (Metrics.Histogram.count merged)

let test_prometheus_and_json_line_render () =
  let m = Metrics.create () in
  Metrics.Counter.add (Metrics.counter m "service.requests") 7;
  Metrics.Gauge.set (Metrics.gauge m "service.jain_fairness") 0.75;
  let h = Metrics.histogram ~buckets:[| 0.001; 0.1 |] m "service.latency.full" in
  List.iter (Metrics.Histogram.observe h) [ 0.0005; 0.05; 2. ];
  let snap = Metrics.snapshot m in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let prom = Metrics.render_prometheus snap in
  List.iter
    (fun frag ->
      check_true (Printf.sprintf "prometheus text has %S" frag)
        (contains prom frag))
    [
      "# TYPE ffc_service_requests counter";
      "ffc_service_requests 7";
      "# TYPE ffc_service_jain_fairness gauge";
      "ffc_service_jain_fairness 0.75";
      "# TYPE ffc_service_latency_full histogram";
      "ffc_service_latency_full_bucket{le=\"0.001\"} 1";
      (* cumulative: the 0.1 bucket includes the 0.001 one *)
      "ffc_service_latency_full_bucket{le=\"0.1\"} 2";
      "ffc_service_latency_full_bucket{le=\"+Inf\"} 3";
      "ffc_service_latency_full_count 3";
      "ffc_service_latency_full_sum";
    ];
  (* The one-line render is the pretty render with whitespace squeezed
     out — a single protocol-friendly line, same JSON value. *)
  let line = Metrics.render_json_line snap in
  check_false "render_json_line has no newline"
    (String.contains line '\n');
  match (json line, json (Metrics.render_json snap)) with
  | Jsonf.Array a, Jsonf.Array b ->
    Alcotest.(check int) "same instrument count" (List.length b)
      (List.length a);
    check_true "same JSON value as render_json" (a = b)
  | _ -> Alcotest.fail "renders are not JSON arrays"

(* ------------------------------------------------------------------ *)
(* Event constructors: every kind parses and carries its fields        *)
(* ------------------------------------------------------------------ *)

let test_event_jsonl_well_formed () =
  let events =
    [
      ("run.start", Event.run_start ~cmd:"exp" ~target:"e9" ~seed:7 ~stride:10 ());
      ("run.end", Event.run_end ~cmd:"exp" ());
      ( "ctrl.step",
        Event.ctrl_step ~step:12 ~residual:1.5e-7 ~rates:[| 0.1; 0.25; 1e-12 |] );
      ("ctrl.outcome", Event.ctrl_outcome ~outcome:"converged" ~steps:187);
      ("sup.attempt", Event.sup_attempt ~attempt:1 ~damping:0.5);
      ( "sup.verdict",
        Event.sup_verdict ~outcome:"diverged" ~attempts:4 ~recovered:false
          ~total_steps:9000 ~min_ratio:0.93 () );
      ("fault.drop", Event.fault_drop ~step:40 ~conn:2);
      ("fault.cut", Event.fault_cut ~step:100 ~gw:1 ~active:true);
      ("desim.delivery", Event.desim_delivery ~time:12.5 ~conn:0 ~delay:0.75);
      ("desim.summary", Event.desim_summary ~conn:3 ~deliveries:250 ~throughput:0.25);
      ("pool.map", Event.pool_map ~tasks:33 ~jobs:4 ~chunk:2);
      ("pool.chunk", Event.pool_chunk ~start:0 ~stop:2 ~domain:1);
    ]
  in
  List.iter
    (fun (kind, line) ->
      check_true (kind ^ " is one line") (not (String.contains line '\n'));
      match json_str line "ev" with
      | Some k -> Alcotest.(check string) (kind ^ " discriminator") kind k
      | _ -> Alcotest.failf "%s: no ev field in %s" kind line)
    events;
  (* Spot-check payload fields and float round-tripping. *)
  (match json_field (Event.ctrl_step ~step:3 ~residual:0.1 ~rates:[| 0.30000000000000004 |]) "rates" with
  | Some (Jsonf.Array [ x ]) ->
    Alcotest.(check (option (float 0.))) "rate round-trips" (Some 0.30000000000000004)
      (Jsonf.as_float x)
  | _ -> Alcotest.fail "ctrl.step rates field");
  (* Non-finite floats must degrade to null, not break the line. *)
  match json_field (Event.ctrl_step ~step:0 ~residual:Float.nan ~rates:[||]) "residual" with
  | Some Jsonf.Null -> ()
  | _ -> Alcotest.fail "nan residual must render as null"

let test_jsonf_escaping () =
  let nasty = "a\"b\\c\nd\te\r\x01f" in
  match json (Jsonf.string nasty) with
  | Jsonf.String s ->
    Alcotest.(check string) "escape round-trip" "a\"b\\c\nd\te\r\x01f" s
  | _ -> Alcotest.fail "Jsonf.string must produce a JSON string"

(* ------------------------------------------------------------------ *)
(* Jsonf: the strict parser and the printer                            *)
(* ------------------------------------------------------------------ *)

let test_jsonf_strict () =
  let refused input offset =
    match Jsonf.of_string input with
    | Ok _ -> Alcotest.failf "%S accepted" input
    | Error (at, _) -> Alcotest.(check int) (Printf.sprintf "%S: error offset" input) offset at
  in
  List.iter
    (fun (input, offset) -> refused input offset)
    [
      ("", 0);
      ("  ", 2);
      ("{} x", 3);
      ("[1,]", 3);
      ({|{"a":1,}|}, 7);
      ({|{"a" 1}|}, 5);
      ("[", 1);
      ("\"a\001b\"", 2);
      ({|"\x"|}, 2);
      ({|"\u12"|}, 3);
      ({|"\u12g4"|}, 5);
      ({|"\ud800"|}, 7);
      ({|"\udc00x"|}, 7);
      ("tru", 0);
      ("nul", 0);
      ("True", 0);
      ("'a'", 0);
      ("01", 1);
      ("1.", 2);
      (".5", 0);
      ("+1", 0);
      ("-", 1);
      ("1e", 2);
      ("1e+", 3);
      ("NaN", 0);
      ("-Infinity", 1);
      (String.make 600 '[', 512);
    ];
  let doc = " {\"a\": [1, -2.5E-3, true, null, \"\\u00e9\\ud83d\\ude00\\/\"], \"b\": {}} \n" in
  match Jsonf.of_string doc with
  | Error (at, why) -> Alcotest.failf "valid document refused at %d: %s" at why
  | Ok v ->
    Alcotest.(check string) "compact re-print keeps number text"
      "{\"a\":[1,-2.5E-3,true,null,\"\xc3\xa9\xf0\x9f\x98\x80/\"],\"b\":{}}"
      (Jsonf.to_string v);
    (match Jsonf.member "a" v with
    | Some (Jsonf.Array [ n; m; _; _; Jsonf.String s ]) ->
      Alcotest.(check (option int)) "integer literal" (Some 1) (Jsonf.as_int n);
      Alcotest.(check (option (float 0.))) "exponent literal" (Some (-2.5e-3)) (Jsonf.as_float m);
      Alcotest.(check (option int)) "not an integer literal" None (Jsonf.as_int m);
      Alcotest.(check string) "escapes decode to UTF-8" "\xc3\xa9\xf0\x9f\x98\x80/" s
    | _ -> Alcotest.fail "array member")

(* Values with every string hazard (quotes, backslashes, control bytes,
   raw bytes >= 0x80) and floats drawn by bit pattern, so -0.0,
   subnormals and the extremes all occur; non-finite floats are null. *)
let gen_json =
  let open QCheck2.Gen in
  let str =
    string_size
      ~gen:
        (frequency
           [
             (4, printable);
             (1, char_range '\000' '\031');
             (1, char_range '\128' '\255');
             (1, oneofl [ '"'; '\\'; '/' ]);
           ])
      (0 -- 10)
  in
  let leaf =
    frequency
      [
        (1, return Jsonf.Null);
        (1, map (fun b -> Jsonf.Bool b) bool);
        (3, map (fun bits -> Jsonf.float (Int64.float_of_bits bits)) int64);
        ( 1,
          map Jsonf.float
            (oneofl [ -0.; 5e-324; 2.2250738585072009e-308; Float.max_float; 1e21; 0.1 ]) );
        (1, map Jsonf.int int);
        (3, map (fun s -> Jsonf.String s) str);
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Jsonf.Array l) (list_size (0 -- 4) (self (n / 3))));
               ( 1,
                 map (fun l -> Jsonf.Object l) (list_size (0 -- 4) (pair str (self (n / 3)))) );
             ])

let prop_jsonf_round_trip =
  prop "jsonf: of_string (to_string v) = Ok v" ~count:500 gen_json (fun v ->
      Jsonf.of_string (Jsonf.to_string v) = Ok v)

let prop_jsonf_prefixes_refused =
  let container =
    QCheck2.Gen.(
      map2
        (fun v wrap -> if wrap then Jsonf.Array [ v ] else Jsonf.Object [ ("k", v) ])
        gen_json bool)
  in
  prop "jsonf: every proper prefix of a container is refused" ~count:200 container
    (fun v ->
      let s = Jsonf.to_string v in
      List.for_all
        (fun k ->
          match Jsonf.of_string (String.sub s 0 k) with
          | Ok _ -> false
          | Error (at, _) -> at <= k)
        (List.init (String.length s) Fun.id))

let test_jsonf_prints_todays_bytes () =
  Alcotest.(check string) "value printer = fragment printers"
    (Jsonf.obj
       [
         ("a", Jsonf.float_json 0.1);
         ("b", Jsonf.string "x\n\001");
         ("c", Jsonf.float_json Float.nan);
         ("d", "[1,true,null]");
       ])
    (Jsonf.to_string
       (Jsonf.Object
          [
            ("a", Jsonf.float 0.1);
            ("b", Jsonf.String "x\n\001");
            ("c", Jsonf.float Float.nan);
            ("d", Jsonf.Array [ Jsonf.int 1; Jsonf.Bool true; Jsonf.Null ]);
          ]))

(* ------------------------------------------------------------------ *)
(* Sinks and capture                                                   *)
(* ------------------------------------------------------------------ *)

let test_sink_buffer_and_capture () =
  let s = Sink.buffer () in
  Sink.emit s "one";
  let (), captured =
    Sink.capture (fun () ->
        Sink.emit s "inner-a";
        Sink.emit s "inner-b")
  in
  Sink.emit s "two";
  Sink.emit_raw s captured;
  Alcotest.(check string) "capture diverts, flush appends" "one\ntwo\ninner-a\ninner-b\n"
    (Sink.contents s);
  check_false "null sink disabled" (Sink.enabled Sink.null);
  Sink.emit Sink.null "dropped";
  check_true "contents of non-buffer rejected"
    (try ignore (Sink.contents Sink.null); false with Invalid_argument _ -> true)

let test_sink_file_roundtrip () =
  let path = Filename.temp_file "ffc_obs" ".jsonl" in
  let s = Sink.file path in
  Sink.emit s "{\"ev\":\"x\"}";
  Sink.close s;
  Sink.close s;
  (* idempotent *)
  let read = In_channel.with_open_text path In_channel.input_all in
  Alcotest.(check string) "file sink writes lines" "{\"ev\":\"x\"}\n" read;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Context: ambient install, hot taps, null-sink allocation            *)
(* ------------------------------------------------------------------ *)

let test_ctx_ambient_and_counters () =
  check_true "no ambient context by default" (Ctx.ambient () = None);
  Ffc_obs.Ctx.incr_controller_steps ();
  (* no-op without a context *)
  let ctx = Ctx.make () in
  Ctx.with_ctx ctx (fun () ->
      Ffc_obs.Ctx.incr_controller_steps ();
      Ffc_obs.Ctx.incr_controller_steps ();
      Ffc_obs.Ctx.add_pool_tasks 5;
      Ffc_obs.Ctx.incr_named "custom.thing");
  check_true "context restored" (Ctx.ambient () = None);
  let m = Ctx.metrics ctx in
  Alcotest.(check int) "hot tap counted" 2
    (Metrics.Counter.value (Metrics.counter m "controller.steps"));
  Alcotest.(check int) "pool tasks counted" 5
    (Metrics.Counter.value (Metrics.counter m "pool.tasks"));
  Alcotest.(check int) "named tap counted" 1
    (Metrics.Counter.value (Metrics.counter m "custom.thing"));
  check_true "tracing off with null sink" (Ctx.with_ctx ctx Ctx.tracing = None);
  check_true "stride must be positive"
    (try ignore (Ctx.make ~stride:0 ()); false with Invalid_argument _ -> true)

let test_null_sink_taps_do_not_allocate () =
  let ctx = Ctx.make () in
  Ctx.with_ctx ctx (fun () ->
      (* Warm up (possible lazy init), then measure. *)
      for _ = 1 to 100 do
        Ffc_obs.Ctx.incr_controller_steps ()
      done;
      let before = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Ffc_obs.Ctx.incr_controller_steps ();
        Ffc_obs.Ctx.incr_injector_steps ();
        Ffc_obs.Ctx.incr_desim_deliveries ()
      done;
      let allocated = Gc.minor_words () -. before in
      (* 30k taps; budget covers the Gc.minor_words probes themselves. *)
      check_true
        (Printf.sprintf "null-sink taps allocate nothing (got %.0f words)" allocated)
        (allocated < 100.))

(* ------------------------------------------------------------------ *)
(* Pool: captured task traces flush in task order at any jobs          *)
(* ------------------------------------------------------------------ *)

let test_pool_trace_order () =
  let expected =
    String.concat "" (List.init 40 (fun i -> Printf.sprintf "task %d\n" i))
  in
  List.iter
    (fun jobs ->
      let sink = Sink.buffer () in
      let ctx = Ctx.make ~sink () in
      Ctx.with_ctx ctx (fun () ->
          ignore
            (Ffc_numerics.Pool.parallel_map ~jobs
               (fun i ->
                 (match Ctx.tracing () with
                 | Some c -> Ctx.emit c (Printf.sprintf "task %d" i)
                 | None -> ());
                 i)
               (Array.init 40 Fun.id)));
      Alcotest.(check string)
        (Printf.sprintf "trace in task order at jobs=%d" jobs)
        expected (Sink.contents sink))
    [ 1; 2; 4; 40 ]

let test_pool_sched_events_gated () =
  (* sched off (the default): no pool.* events in the trace. *)
  let sink = Sink.buffer () in
  let ctx = Ctx.make ~sink () in
  Ctx.with_ctx ctx (fun () ->
      ignore (Ffc_numerics.Pool.parallel_map ~jobs:4 (fun i -> i) (Array.init 16 Fun.id)));
  check_false "no pool events without sched"
    (List.exists
       (fun l ->
         match json_str l "ev" with
         | Some ("pool.map" | "pool.chunk") -> true
         | _ -> false)
       (lines_of (Sink.contents sink)))

(* ------------------------------------------------------------------ *)
(* End-to-end: controller, supervisor, simulator produce valid traces  *)
(* ------------------------------------------------------------------ *)

let run_traced ?(stride = 1) f =
  let sink = Sink.buffer () in
  let ctx = Ctx.make ~sink ~stride () in
  let r = Ctx.with_ctx ctx f in
  (r, lines_of (Sink.contents sink), Ctx.metrics ctx)

let event_kinds lines =
  List.filter_map
    (fun l -> json_str l "ev")
    lines

let test_controller_trace () =
  let open Ffc_topology in
  let open Ffc_core in
  let net = Topologies.single ~n:3 () in
  let c =
    Controller.homogeneous ~config:Feedback.individual_fair_share
      ~adjuster:Scenario.standard_adjuster ~n:3
  in
  let outcome, lines, m =
    run_traced ~stride:10 (fun () -> Controller.run c ~net ~r0:(Array.make 3 0.02))
  in
  check_true "run converged"
    (match outcome with Controller.Converged _ -> true | _ -> false);
  List.iter (fun l -> ignore (json l)) lines;
  let kinds = event_kinds lines in
  check_true "ctrl.step events present" (List.mem "ctrl.step" kinds);
  check_true "ctrl.outcome present" (List.mem "ctrl.outcome" kinds);
  check_true "steps counted"
    (Metrics.Counter.value (Metrics.counter m "controller.steps") > 0);
  Alcotest.(check int) "one run recorded" 1
    (Metrics.Counter.value (Metrics.counter m "controller.runs"))

let test_supervisor_fault_trace () =
  let open Ffc_topology in
  let open Ffc_core in
  let open Ffc_faults in
  let net = Topologies.single ~n:3 () in
  let c =
    Controller.homogeneous ~config:Feedback.individual_fair_share
      ~adjuster:Scenario.standard_adjuster ~n:3
  in
  let plan = Fault.plan ~seed:5 [ Fault.everywhere (Fault.Lossy { p = 0.5 }) ] in
  let v, lines, m =
    run_traced (fun () -> Supervisor.run ~plan c ~net ~r0:(Array.make 3 0.02))
  in
  List.iter (fun l -> ignore (json l)) lines;
  let kinds = event_kinds lines in
  check_true "sup.attempt present" (List.mem "sup.attempt" kinds);
  check_true "sup.verdict present" (List.mem "sup.verdict" kinds);
  check_true "fault.drop present" (List.mem "fault.drop" kinds);
  check_true "injector drops counted"
    (Metrics.Counter.value (Metrics.counter m "injector.drops") > 0);
  check_true "verdict has an outcome" (v.Supervisor.attempts >= 1);
  (* wall-clock must never enter the trace *)
  check_false "no wall_seconds in events"
    (List.exists
       (fun l -> json_field l "wall_seconds" <> None)
       lines)

let test_netsim_trace () =
  let open Ffc_topology in
  let net = Topologies.single ~mu:1. ~n:2 () in
  let _, lines, m =
    run_traced ~stride:100 (fun () ->
        Ffc_desim.Netsim.run ~net ~rates:[| 0.3; 0.3 |]
          ~discipline:Ffc_desim.Netsim.Fs_priority ~seed:3 ~horizon:500. ())
  in
  List.iter (fun l -> ignore (json l)) lines;
  let kinds = event_kinds lines in
  check_true "desim.delivery present" (List.mem "desim.delivery" kinds);
  Alcotest.(check int) "one summary per connection" 2
    (List.length (List.filter (String.equal "desim.summary") kinds));
  check_true "deliveries counted"
    (Metrics.Counter.value (Metrics.counter m "desim.deliveries") > 0);
  check_true "delay histogram populated"
    (Metrics.Histogram.count (Metrics.histogram m "desim.delay") > 0)

(* ------------------------------------------------------------------ *)
(* Determinism: E9 and E25 traces are byte-identical at any --jobs     *)
(* ------------------------------------------------------------------ *)

let trace_of ~jobs f =
  let sink = Sink.buffer () in
  let ctx = Ctx.make ~sink ~stride:50 () in
  let saved = Ffc_numerics.Pool.default_jobs () in
  Ffc_numerics.Pool.set_default_jobs jobs;
  Fun.protect
    ~finally:(fun () -> Ffc_numerics.Pool.set_default_jobs saved)
    (fun () -> ignore (Ctx.with_ctx ctx f));
  Sink.contents sink

let test_e9_trace_deterministic () =
  let f () = Ffc_experiments.E09_robustness.compute ~trials:5 () in
  let a = trace_of ~jobs:1 f and b = trace_of ~jobs:4 f in
  check_true "E9 trace non-empty" (String.length a > 0);
  Alcotest.(check string) "E9 trace identical at jobs 1 and 4" a b

let test_e25_trace_deterministic () =
  let f () = Ffc_experiments.E25_stress.compute ~jobs:(Ffc_numerics.Pool.default_jobs ()) () in
  let a = trace_of ~jobs:1 f and b = trace_of ~jobs:4 f in
  check_true "E25 trace non-empty" (String.length a > 0);
  Alcotest.(check string) "E25 trace identical at jobs 1 and 4" a b

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let test_provenance_manifest () =
  let m = Metrics.create () in
  Metrics.Counter.add (Metrics.counter m "controller.steps") 42;
  let prov =
    Provenance.collect ~command:"exp" ~subject:"e9"
      ~adjusters:[ "additive:0.1:0.5" ]
      ~seeds:[ ("fault", 7) ] ~faults:[ "lossy(p=0.2)@all" ] ~jobs:4 ~stride:10 ()
  in
  let doc = Provenance.to_json prov ~metrics:(Some (Metrics.snapshot m)) in
  match json doc with
  | Jsonf.Object fields ->
    (match List.assoc_opt "command" fields with
    | Some (Jsonf.String "exp") -> ()
    | _ -> Alcotest.fail "command field");
    (match Jsonf.get Jsonf.as_int "jobs" (Jsonf.Object fields) with
    | Some 4 -> ()
    | _ -> Alcotest.fail "jobs field");
    (match List.assoc_opt "seeds" fields with
    | Some (Jsonf.Object [ ("fault", n) ]) when Jsonf.as_int n = Some 7 -> ()
    | _ -> Alcotest.fail "seeds field");
    (match List.assoc_opt "metrics" fields with
    | Some (Jsonf.Array (_ :: _)) -> ()
    | _ -> Alcotest.fail "metrics field")
  | _ -> Alcotest.fail "manifest is not a JSON object"

let suites =
  [
    ( "obs",
      [
        case "metrics: counter and gauge semantics" test_counter_semantics;
        case "metrics: histogram semantics" test_histogram_semantics;
        case "metrics: snapshot, reset, render" test_snapshot_reset_render;
        case "metrics: histogram local merge path" test_histogram_local_merge;
        case "metrics: prometheus and one-line JSON renders"
          test_prometheus_and_json_line_render;
        case "events: every kind is valid JSONL" test_event_jsonl_well_formed;
        case "events: JSON string escaping" test_jsonf_escaping;
        case "jsonf: strict parse refusals and offsets" test_jsonf_strict;
        case "jsonf: value printer keeps the fragment bytes" test_jsonf_prints_todays_bytes;
        prop_jsonf_round_trip;
        prop_jsonf_prefixes_refused;
        case "sink: buffer and capture" test_sink_buffer_and_capture;
        case "sink: file round-trip" test_sink_file_roundtrip;
        case "ctx: ambient install and hot taps" test_ctx_ambient_and_counters;
        case "ctx: null-sink taps allocate nothing" test_null_sink_taps_do_not_allocate;
        case "pool: trace flushes in task order" test_pool_trace_order;
        case "pool: sched events are opt-in" test_pool_sched_events_gated;
        case "controller: traced run" test_controller_trace;
        case "supervisor: traced faulted run" test_supervisor_fault_trace;
        case "netsim: traced simulation" test_netsim_trace;
        case "determinism: E9 trace vs jobs" test_e9_trace_deterministic;
        case "determinism: E25 trace vs jobs" test_e25_trace_deterministic;
        case "provenance: manifest is valid JSON" test_provenance_manifest;
      ] );
  ]
