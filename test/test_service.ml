(* The online gateway service: protocol, admission, degradation ladder,
   snapshots, churn — and the determinism contract that ties them
   together (byte-identical decision logs at any --jobs and across
   snapshot restarts). *)

open Ffc_numerics
open Ffc_topology
open Ffc_core
open Ffc_faults
open Ffc_service
open Test_util

let additive = Rate_adjust.additive ~eta:0.1 ~beta:0.5

let make_engine ?(config = Admission.default_config) ?(adjuster = additive)
    ?(n = 3) ?(net = Topologies.single ~mu:1. ~n ()) () =
  let controller =
    Controller.homogeneous ~config:Feedback.individual_fair_share ~adjuster
      ~n:(Network.num_connections net)
  in
  (Admission.create ~config controller ~net, net)

let scrape_str line key =
  match Protocol.json_string_field line ~key with
  | Some v -> v
  | None -> Alcotest.failf "no %S in %s" key line

let scrape_num line key =
  match Protocol.json_number_field line ~key with
  | Some v -> v
  | None -> Alcotest.failf "no %S in %s" key line

let handle_line engine s =
  match Protocol.parse s with
  | Ok req -> (Admission.handle engine req).Admission.line
  | Error e -> Alcotest.failf "bad request %S: %s" s e

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)
(* ------------------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let reqs =
    [
      Protocol.Add { conn = None; time = None; size = None };
      Protocol.Add { conn = Some "conn7"; time = Some 1.25; size = Some 0.125 };
      Protocol.Add { conn = None; time = Some 3.5e-3; size = None };
      Protocol.Remove { conn = "c"; time = Some 2. };
      Protocol.Remove { conn = "c"; time = None };
      Protocol.Query { time = Some 9. };
      Protocol.Query { time = None };
      Protocol.Stats { time = None };
      Protocol.Stats { time = Some 4.5 };
      Protocol.Metrics { prom = false };
      Protocol.Metrics { prom = true };
      Protocol.Snapshot;
      Protocol.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      let line = Protocol.render r in
      (match Protocol.parse line with
      | Ok r' -> check_true line (r = r')
      | Error e -> Alcotest.failf "%s: %s" line e);
      Alcotest.(check string)
        (line ^ ": verb") (List.hd (String.split_on_char ' ' line))
        (Protocol.verb r))
    reqs;
  let rejects line =
    match Protocol.parse line with Ok _ -> false | Error _ -> true
  in
  check_true "unknown verb" (rejects "frobnicate");
  check_true "empty" (rejects "");
  check_true "bad number" (rejects "add t=abc");
  check_true "unknown field" (rejects "add bw=3");
  check_true "duplicate field" (rejects "add t=1 t=2");
  check_true "remove needs a name" (rejects "remove t=1");
  check_true "stats takes nothing" (rejects "stats now");
  check_true "non-finite time" (rejects "query t=nan")

(* Requests as [ffc drive] and hand-typed sessions produce them: names
   are single words without '=', numbers any finite double (rendered
   with round-trip precision). *)
let gen_request =
  let open QCheck2.Gen in
  let name = string_size ~gen:(oneofl [ 'a'; 'z'; '0'; '9'; '_'; '.'; '-'; ':' ]) (1 -- 8) in
  let num = map Int64.float_of_bits int64 >|= fun x -> if Float.is_finite x then Some x else None in
  oneof
    [
      map3 (fun conn time size -> Protocol.Add { conn; time; size }) (option name) num num;
      return Protocol.Batch_begin;
      return Protocol.Batch_end;
      map2 (fun conn time -> Protocol.Remove { conn; time }) name num;
      map (fun time -> Protocol.Query { time }) num;
      map (fun time -> Protocol.Stats { time }) num;
      map (fun prom -> Protocol.Metrics { prom }) bool;
      return Protocol.Snapshot;
      return Protocol.Shutdown;
    ]

let prop_protocol_render_parse =
  prop "parse (render r) = Ok r" ~count:500 gen_request (fun r ->
      Protocol.parse (Protocol.render r) = Ok r)

(* Random bytes, and lines that start with a real verb followed by
   random words: [parse] answers Ok or Error and never raises. *)
let prop_protocol_parse_total =
  let open QCheck2.Gen in
  let line =
    oneof
      [
        string;
        map2 (fun verb rest -> verb ^ " " ^ String.concat " " rest)
          (oneofl [ "add"; "remove"; "query"; "stats"; "metrics"; "batch"; "end"; "snapshot" ])
          (list_size (0 -- 4) (string_size ~gen:char (0 -- 6)));
      ]
  in
  prop "parse never raises" ~count:1000 line (fun l ->
      match Protocol.parse l with Ok _ | Error _ -> true)

(* The positional-name fallback: [add] may lead with a bare connection
   name, and an error in the key=value tail must be reported as the
   tail's error — not as the name failing to parse as a field. *)
let test_protocol_positional_edge_cases () =
  let ok s =
    match Protocol.parse s with
    | Ok r -> r
    | Error e -> Alcotest.failf "%s: %s" s e
  in
  let err s =
    match Protocol.parse s with
    | Ok _ -> Alcotest.failf "%s: expected a parse error" s
    | Error e -> e
  in
  (match ok "add conn1 t=1 size=2" with
  | Protocol.Add { conn = Some "conn1"; time = Some 1.; size = Some 2. } -> ()
  | _ -> Alcotest.fail "positional name with fields");
  (match ok "add t=1" with
  | Protocol.Add { conn = None; time = Some 1.; size = None } -> ()
  | _ -> Alcotest.fail "name absent");
  (* The tail's error is the error — the name is never blamed. *)
  let e = err "add conn1 bogus" in
  check_true "tail error names the bad word" (contains e "bogus");
  check_true "the name is not blamed" (not (contains e "conn1"));
  check_true "duplicate after a name" (contains (err "add conn1 t=1 t=2") "duplicate");
  check_true "unknown after a name" (contains (err "add conn1 bw=3") "unknown");
  check_true "bad number after a name"
    (contains (err "add conn1 t=abc") "bad number");
  (* Batch brackets are bare verbs. *)
  (match ok "batch" with
  | Protocol.Batch_begin -> ()
  | _ -> Alcotest.fail "batch parses");
  (match ok "end" with
  | Protocol.Batch_end -> ()
  | _ -> Alcotest.fail "end parses");
  check_true "batch takes nothing" (contains (err "batch now") "no arguments");
  check_true "end takes nothing" (contains (err "end now") "no arguments")

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let test_admission_matches_fair_masked () =
  let engine, net = make_engine ~n:3 () in
  let r1 = handle_line engine "add t=0.1" in
  Alcotest.(check string) "admitted" "admit" (scrape_str r1 "decision");
  let r2 = handle_line engine "add t=0.2" in
  let r3 = handle_line engine "add t=0.3" in
  Alcotest.(check string) "admitted" "admit" (scrape_str r2 "decision");
  Alcotest.(check string) "admitted" "admit" (scrape_str r3 "decision");
  Alcotest.(check int) "all three active" 3 (Admission.active_count engine);
  (* The committed rates are bit-for-bit the masked fair steady state. *)
  let expected =
    Steady_state.fair_masked ~signal:Signal.linear_fractional ~b_ss:0.5 ~net
      ~active:[| true; true; true |]
  in
  check_true "rates exactly fair_masked" (Admission.rates engine = expected);
  check_true "admit keeps the Theorem-5 floor"
    (scrape_num r3 "min_ratio" >= 1. -. 1e-6);
  check_true "stable" (scrape_num r3 "rho" < 1.);
  (* A full universe rejects the next arrival without state change. *)
  let r4 = handle_line engine "add t=0.4" in
  check_true "no slot is an error" (contains r4 "no idle slot");
  Alcotest.(check int) "population unchanged" 3 (Admission.active_count engine);
  (* Departure frees the slot and the population resolves again. *)
  let r5 = handle_line engine "remove conn1 t=0.5" in
  Alcotest.(check string) "removed" "ok" (scrape_str r5 "decision");
  let expected' =
    Steady_state.fair_masked ~signal:Signal.linear_fractional ~b_ss:0.5 ~net
      ~active:[| true; false; true |]
  in
  check_true "rates re-resolved exactly" (Admission.rates engine = expected');
  let r6 = handle_line engine "remove conn1 t=0.6" in
  check_true "double remove is an error" (contains r6 "not active")

let test_admission_min_rate_reject () =
  let config = { Admission.default_config with min_rate = 0.3 } in
  let engine, _ = make_engine ~config ~n:3 () in
  let r1 = handle_line engine "add t=0" in
  Alcotest.(check string) "first flow fits" "admit" (scrape_str r1 "decision");
  (* A second flow would halve both rates to 0.25 < 0.3: discard at
     ingress, population untouched. *)
  let r2 = handle_line engine "add t=0" in
  Alcotest.(check string) "rejected" "reject" (scrape_str r2 "decision");
  Alcotest.(check string) "because of min_rate" "min_rate" (scrape_str r2 "reason");
  Alcotest.(check int) "still one active" 1 (Admission.active_count engine)

let test_snapshot_shutdown_are_server_level () =
  let engine, _ = make_engine () in
  let refused =
    Invalid_argument
      "Admission.handle: metrics/snapshot/shutdown are server-level requests"
  in
  Alcotest.check_raises "snapshot refused" refused (fun () ->
      ignore (Admission.handle engine Protocol.Snapshot));
  Alcotest.check_raises "metrics refused" refused (fun () ->
      ignore (Admission.handle engine (Protocol.Metrics { prom = false })))

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

let ladder_config =
  {
    Admission.default_config with
    backlog_incremental = 0.25;
    backlog_cached = 0.5;
    backlog_shed = 0.75;
    cost_full = 0.3;
    cost_incremental = 0.2;
    cost_cached = 0.15;
  }

let test_ladder_degrades_and_recovers () =
  let engine, net = make_engine ~config:ladder_config ~n:8 () in
  (* A burst all stamped t=0: each service charge raises the backlog the
     next request sees, so the tiers step down deterministically. *)
  let tiers =
    List.map
      (fun _ -> scrape_str (handle_line engine "add t=0") "tier")
      [ (); (); (); (); () ]
  in
  Alcotest.(check (list string))
    "full > incremental > cached > cached > shed"
    [ "full"; "incremental"; "cached"; "cached"; "shed" ]
    tiers;
  (* The shed add was rejected at ingress: only 4 flows entered. *)
  Alcotest.(check int) "shed not admitted" 4 (Admission.active_count engine);
  (* Degraded tiers still commit exact rates: bit-for-bit the masked
     fair steady state of the population they admitted. *)
  let expected =
    Steady_state.fair_masked ~signal:Signal.linear_fractional ~b_ss:0.5 ~net
      ~active:(Array.init 8 (fun i -> i < 4))
  in
  check_true "cached-tier rates still exact" (Admission.rates engine = expected);
  (* Once the logical clock drains, service steps back up to full. *)
  let late = handle_line engine "add t=100" in
  Alcotest.(check string) "recovered to full" "full" (scrape_str late "tier");
  Alcotest.(check string) "admitted" "admit" (scrape_str late "decision");
  let stats = handle_line engine "stats" in
  check_true "degrades counted" (scrape_num stats "degrades" >= 2.);
  check_true "recovery counted" (scrape_num stats "recovers" >= 1.);
  check_true "shed counted" (scrape_num stats "sheds" >= 1.)

let test_cached_tier_flags_stale_rho () =
  let engine, _ = make_engine ~config:ladder_config ~n:8 () in
  ignore (handle_line engine "add t=0");
  ignore (handle_line engine "add t=0");
  let cached = handle_line engine "add t=0" in
  Alcotest.(check string) "third lands on cached" "cached" (scrape_str cached "tier");
  Alcotest.(check (option bool))
    "stale rho flagged" (Some false)
    (Protocol.json_bool_field cached ~key:"rho_fresh");
  let fresh = handle_line engine "add t=100" in
  Alcotest.(check (option bool))
    "full tier is fresh again" (Some true)
    (Protocol.json_bool_field fresh ~key:"rho_fresh")

let test_read_only_verbs_stale_under_load () =
  let engine, _ = make_engine ~config:ladder_config ~n:8 () in
  (* Same burst as the degrade test: five adds at t=0 leave the backlog
     past the shed threshold. *)
  List.iter (fun _ -> ignore (handle_line engine "add t=0")) [ (); (); (); (); () ];
  (* Shed band: the query is still answered — from the last committed
     state, at shed cost, with the verdict withheld and stale flagged. *)
  let shed = handle_line engine "query t=0" in
  check_true "query succeeds under shed" (contains shed "\"ok\":true");
  Alcotest.(check string) "tier shed" "shed" (scrape_str shed "tier");
  check_true "stale flagged" (contains shed "\"stale\":true");
  check_true "verdict withheld" (contains shed "\"verdict\":null");
  check_float ~tol:0. "state still served" 4. (scrape_num shed "active");
  (* Cached band (backlog decayed below shed): still stale, still no
     verdict, but served as cached. *)
  let cached = handle_line engine "query t=0.2" in
  Alcotest.(check string) "tier cached" "cached" (scrape_str cached "tier");
  check_true "cached band is stale too" (contains cached "\"stale\":true");
  check_true "verdict still withheld" (contains cached "\"verdict\":null");
  (* Drained: fresh replies drop the flag and run the verdict. *)
  let fresh = handle_line engine "query t=100" in
  check_false "fresh reply is not stale" (contains fresh "\"stale\"");
  check_false "verdict restored" (contains fresh "\"verdict\":null");
  check_true "verdict present" (contains fresh "\"verdict\":{")

let test_stats_free_and_never_shed () =
  let engine, _ = make_engine ~config:ladder_config ~n:8 () in
  List.iter (fun _ -> ignore (handle_line engine "add t=0")) [ (); (); (); (); () ];
  let s1 = handle_line engine "stats t=0" in
  check_true "stats succeeds under shed" (contains s1 "\"ok\":true");
  Alcotest.(check string) "tagged shed" "shed" (scrape_str s1 "tier");
  check_true "tagged stale" (contains s1 "\"stale\":true");
  check_true "backlog reported" (scrape_num s1 "backlog" > 0.);
  (* A stats probe is free: a second probe at the same time sees the
     identical vclock and backlog (only the seq advanced). *)
  let s2 = handle_line engine "stats t=0" in
  check_float ~tol:0. "no vclock charge" (scrape_num s1 "vclock")
    (scrape_num s2 "vclock");
  check_float ~tol:0. "backlog unchanged" (scrape_num s1 "backlog")
    (scrape_num s2 "backlog");
  check_float ~tol:0. "seq still advances"
    (scrape_num s1 "seq" +. 1.)
    (scrape_num s2 "seq");
  (* served_* counters only count decision events, so the probes did
     not inflate them. *)
  check_float ~tol:0. "stats probes are not decisions" 4.
    (scrape_num s2 "served_full" +. scrape_num s2 "served_incremental"
    +. scrape_num s2 "served_cached")

(* ------------------------------------------------------------------ *)
(* Solver failure: one attempt per rung, degrade to cached             *)
(* ------------------------------------------------------------------ *)

(* Finite at rate 0 (so DF at the idle point exists) but not above 0.3:
   any DF at a population where some flow runs faster raises
   [Failure], exactly as it would on every retry. *)
let cliff =
  Rate_adjust.make ~name:"cliff" (fun ~r ~b ~d:_ ->
      if r > 0.3 then Float.nan else 0.1 *. (0.5 -. b))

let test_solver_failure_degrades_to_cached () =
  let engine, net = make_engine ~adjuster:cliff ~n:4 () in
  (* Alone on the unit link the newcomer runs at 0.5: full and
     incremental both fail on DF, the cached rung serves it. *)
  let r1 = handle_line engine "add t=0.1" in
  Alcotest.(check string) "served from the cached rung" "cached" (scrape_str r1 "tier");
  Alcotest.(check string) "admitted on the committed rho" "admit"
    (scrape_str r1 "decision");
  check_float ~tol:0. "one attempt" 1. (scrape_num r1 "attempts");
  Alcotest.(check (option bool))
    "rho flagged stale" (Some false)
    (Protocol.json_bool_field r1 ~key:"rho_fresh");
  check_true "state intact: exact rates"
    (Admission.rates engine
    = Steady_state.fair_masked ~signal:Signal.linear_fractional ~b_ss:0.5 ~net
        ~active:[| true; false; false; false |]);
  (* Two flows at 0.25 each: DF is finite again and the full tier is
     back, patching from the DF the engine kept. *)
  let r2 = handle_line engine "add t=0.2" in
  Alcotest.(check string) "full tier again" "full" (scrape_str r2 "tier");
  Alcotest.(check string) "admitted" "admit" (scrape_str r2 "decision");
  let stats = handle_line engine "stats" in
  check_float ~tol:0. "the failure counted as a degrade" 1.
    (scrape_num stats "degrades");
  check_float ~tol:0. "and the next request as a recovery" 1.
    (scrape_num stats "recovers");
  (* A bracket's single stability check degrades the same way. *)
  let engine, _ = make_engine ~adjuster:cliff ~n:4 () in
  let replies =
    List.map
      (fun r -> r.Admission.line)
      (Admission.handle_batch engine
         [ { Protocol.conn = None; time = Some 0.1; size = None } ])
  in
  let member = List.nth replies 0 and summary = List.nth replies 1 in
  Alcotest.(check string) "bracket check cached" "cached" (scrape_str summary "tier");
  check_float ~tol:0. "bracket check attempted once" 1.
    (scrape_num summary "attempts");
  Alcotest.(check string) "member admitted" "admit" (scrape_str member "decision");
  Alcotest.(check string) "member cached" "cached" (scrape_str member "tier");
  Alcotest.(check int) "committed" 1 (Admission.active_count engine);
  check_float ~tol:0. "degrade counted" 1.
    (scrape_num (handle_line engine "stats") "degrades")

let test_create_refuses_failing_idle_df () =
  let nowhere =
    Rate_adjust.make ~name:"nowhere" (fun ~r:_ ~b:_ ~d:_ -> Float.infinity)
  in
  match make_engine ~adjuster:nowhere ~n:2 () with
  | _ -> Alcotest.fail "an adjuster failing at the idle point must be refused"
  | exception Invalid_argument msg ->
    check_true "says why" (contains msg "idle point")

(* ------------------------------------------------------------------ *)
(* Determinism across --jobs                                           *)
(* ------------------------------------------------------------------ *)

let determinism_script =
  [
    "# comment lines are silent";
    "add t=0.05 size=2";
    "add t=0.1 size=1";
    "add t=0.18";
    "query t=0.2";
    "remove conn1 t=0.3";
    "add t=0.32 size=0.5";
    "add t=0.4";
    "stats";
    "query t=0.5";
    "remove conn0 t=0.6";
    "add t=0.61";
    "stats";
  ]

let run_script_fresh () =
  let engine, _ = make_engine ~n:4 () in
  let server = Server.create engine in
  Server.run_script server determinism_script

let test_jobs_invariant_decision_log () =
  let saved = Pool.default_jobs () in
  Fun.protect
    ~finally:(fun () -> Pool.set_default_jobs saved)
    (fun () ->
      Pool.set_default_jobs 1;
      let narrow = run_script_fresh () in
      Pool.set_default_jobs 4;
      let wide = run_script_fresh () in
      Alcotest.(check (list string))
        "decision log byte-identical at jobs 1 vs 4" narrow wide)

(* ------------------------------------------------------------------ *)
(* Snapshot / restart                                                  *)
(* ------------------------------------------------------------------ *)

let test_snapshot_state_roundtrip () =
  let path = Filename.temp_file "ffc_snap" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let engine, _ = make_engine ~n:4 () in
      ignore (handle_line engine "add t=0.1");
      ignore (handle_line engine "add t=0.2");
      ignore (handle_line engine "remove conn0 t=0.3");
      let state = Admission.state engine in
      let bytes = Snapshot.write ~path state in
      Alcotest.(check int) "write returns the size" bytes
        (String.length (Snapshot.render state));
      match Snapshot.load ~path with
      | Error e -> Alcotest.fail e
      | Ok loaded ->
        check_true "round-trip is exact" (loaded = state);
        Alcotest.(check string)
          "re-render is byte-identical"
          (Snapshot.render state) (Snapshot.render loaded))

let test_snapshot_corruption_detected () =
  let path = Filename.temp_file "ffc_snap" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let engine, _ = make_engine ~n:2 () in
      ignore (handle_line engine "add t=0.1");
      let text = Snapshot.render (Admission.state engine) in
      let write s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s) in
      let fails s =
        write s;
        match Snapshot.load ~path with Ok _ -> false | Error _ -> true
      in
      check_true "bad magic" (fails ("junk\n" ^ text));
      check_true "truncated (no end marker)"
        (fails (String.sub text 0 (String.length text - 5)));
      check_true "garbage" (fails "not a snapshot at all\n");
      (* A snapshot from a differently-configured engine is refused. *)
      write text;
      let other_config = { Admission.default_config with b_ss = 0.25 } in
      let other, _ = make_engine ~config:other_config ~n:2 () in
      (match Snapshot.load ~path with
      | Error e -> Alcotest.fail e
      | Ok s -> (
        match Admission.restore other s with
        | Ok () -> Alcotest.fail "digest mismatch must be refused"
        | Error e -> check_true "mentions the digest" (contains e "digest"))))

let test_restart_resumes_bit_identically () =
  let path = Filename.temp_file "ffc_snap" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let prefix =
        [ "add t=0.05 size=2"; "add t=0.1"; "add t=0.15"; "remove conn1 t=0.2" ]
      in
      let suffix =
        [ "add t=0.25"; "query t=0.3"; "remove conn0 t=0.35"; "add t=0.4"; "stats" ]
      in
      let engine_a, _ = make_engine ~n:4 () in
      let server_a = Server.create ~snapshot_path:path engine_a in
      ignore (Server.run_script server_a prefix);
      ignore (Server.run_script server_a [ "snapshot" ]);
      let pre_kill = Snapshot.render (Admission.state engine_a) in
      (* "Crash": a brand-new engine recovers from the file the first
         incarnation left behind. *)
      let engine_b, _ = make_engine ~n:4 () in
      let server_b = Server.create ~snapshot_path:path engine_b in
      (match Server.recover server_b with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "snapshot not found"
      | Error e -> Alcotest.fail e);
      (* Recovered state is bit-identical to the pre-kill snapshot... *)
      Alcotest.(check string)
        "re-snapshot reproduces the file byte-for-byte" pre_kill
        (Snapshot.render (Admission.state engine_b));
      (* ...and the two incarnations serve the suffix identically. *)
      let replies_a = Server.run_script server_a suffix in
      let replies_b = Server.run_script server_b suffix in
      Alcotest.(check (list string))
        "post-restart decision log byte-identical" replies_a replies_b)

(* The committed rates are re-derived on restore, never trusted.  The
   regression: a single:8 snapshot whose first rate was edited from
   0.1666… to 0.2666… used to be adopted, and the next query ran its
   supervisor from the corrupted rates. *)
let test_snapshot_edited_rates_refused () =
  let path = Filename.temp_file "ffc_snap" ".snap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let engine_a, _ = make_engine ~n:8 () in
      let server_a = Server.create ~snapshot_path:path engine_a in
      ignore (Server.run_script server_a [ "add t=0.1"; "add t=0.2"; "add t=0.3"; "snapshot" ]);
      let text = In_channel.with_open_bin path In_channel.input_all in
      let stored = "rates 0.16666666666666666 " in
      let edited =
        String.split_on_char '\n' text
        |> List.map (fun l ->
               if String.starts_with ~prefix:stored l then
                 "rates 0.26666666666666666 "
                 ^ String.sub l (String.length stored) (String.length l - String.length stored)
               else l)
        |> String.concat "\n"
      in
      check_true "first rate edited" (edited <> text);
      let write s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s) in
      let recover () = Server.recover (Server.create ~snapshot_path:path (fst (make_engine ~n:8 ()))) in
      write edited;
      (match recover () with
      | Ok _ -> Alcotest.fail "edited rates must be refused"
      | Error e -> check_true "names the connection" (contains e "conn0"));
      write text;
      match recover () with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "snapshot not found"
      | Error e -> Alcotest.fail e)

(* ------------------------------------------------------------------ *)
(* Server dispatch                                                     *)
(* ------------------------------------------------------------------ *)

(* The single reply to [line] on session [s]. *)
let reply_to server s line =
  match Server.handle_session_line server s line with
  | `Replies [ r ] | `Quit [ r ] -> r
  | _ -> Alcotest.failf "%s: expected exactly one reply" line

let test_server_dispatch () =
  let engine, _ = make_engine ~n:2 () in
  let server = Server.create engine in
  let s = Server.new_session () in
  (match Server.handle_session_line server s "   " with
  | `Silent -> ()
  | _ -> Alcotest.fail "blank lines are silent");
  (match Server.handle_session_line server s "# hello" with
  | `Silent -> ()
  | _ -> Alcotest.fail "comments are silent");
  (* Parse errors still consume a sequence number, keeping replayed
     logs aligned. *)
  let r = reply_to server s "bogus" in
  check_true "error reply" (contains r "\"ok\":false");
  check_float ~tol:0. "seq consumed" 1. (scrape_num r "seq");
  check_true "snapshot off"
    (contains (reply_to server s "snapshot") "snapshotting is off");
  let replies =
    Server.run_script server [ "add t=1"; "shutdown"; "add t=2"; "stats" ]
  in
  Alcotest.(check int) "script stops at shutdown" 2 (List.length replies);
  check_true "shutdown acknowledged"
    (contains (List.nth replies 1) "\"op\":\"shutdown\"")

let test_metrics_verb () =
  let engine, _ = make_engine ~n:2 () in
  let server = Server.create engine in
  let s = Server.new_session () in
  (* A bare daemon with no ambient registry refuses cleanly. *)
  let r = reply_to server s "metrics" in
  check_true "refused without a registry" (contains r "\"ok\":false");
  check_true "says why" (contains r "no metrics registry");
  let ctx = Ffc_obs.Ctx.make ~metrics:(Ffc_obs.Metrics.create ()) () in
  Ffc_obs.Ctx.with_ctx ctx (fun () ->
      ignore (Server.run_script server [ "add t=1"; "query t=2" ]);
      let r = reply_to server s "metrics" in
      check_true "ok" (contains r "\"ok\":true");
      Alcotest.(check string) "json format" "json" (scrape_str r "format");
      check_true "latency histogram exposed" (contains r "service.latency.full");
      check_true "jain gauge exposed" (contains r "service.jain_fairness");
      let r = reply_to server s "metrics prom" in
      Alcotest.(check string) "prometheus format" "prometheus"
        (scrape_str r "format");
      check_true "prometheus names" (contains r "ffc_service_latency_full_bucket"))

(* ------------------------------------------------------------------ *)
(* Churn                                                               *)
(* ------------------------------------------------------------------ *)

let test_size_dist_parse () =
  List.iter
    (fun spec ->
      match Churn.parse_size_dist spec with
      | Ok d -> Alcotest.(check string) spec spec (Churn.describe_size_dist d)
      | Error e -> Alcotest.failf "%s: %s" spec e)
    [ "const:2"; "exp:1.5"; "uniform:0.5:2"; "pareto:1.5:0.25" ];
  let rejects s =
    match Churn.parse_size_dist s with Ok _ -> false | Error _ -> true
  in
  check_true "negative mean" (rejects "exp:-1");
  check_true "inverted bounds" (rejects "uniform:2:1");
  check_true "unknown" (rejects "zipf:2")

let storm_config =
  {
    Admission.default_config with
    backlog_incremental = 0.05;
    backlog_cached = 0.1;
    backlog_shed = 0.2;
    (* Every tier's logical cost exceeds the mean interarrival (1/40),
       so sustained arrivals must walk the whole ladder down to shed. *)
    cost_full = 0.08;
    cost_incremental = 0.05;
    cost_cached = 0.03;
    plan = Fault.plan [ Fault.everywhere (Fault.Flap { period = 6; up = 4 }) ];
  }

(* Drive a Poisson churn stream through [server] over [clients]
   rotating sessions, as [ffc drive --clients] does: the churn stats, a
   [send] for follow-up requests, and the full reply log. *)
let drive ?(clients = 1) ?(batch = 1) ?(query_every = 0) ?(after = ignore) server
    ~seed ~rate ~arrivals ~size_dist =
  let sessions =
    Array.init clients (fun i -> Server.new_session ~sid:(i + 1) ())
  in
  let next = ref 0 in
  let log = Buffer.create 4096 in
  let serve s line =
    match Server.handle_session_line server s line with
    | `Silent -> []
    | `Replies rs | `Quit rs ->
      List.iter (fun r -> Buffer.add_string log (r ^ "\n")) rs;
      rs
  in
  let pick () =
    let s = sessions.(!next) in
    next := (!next + 1) mod clients;
    s
  in
  let send line =
    let r = String.concat "\n" (serve (pick ()) line) in
    after ();
    r
  in
  let send_batch lines =
    let rs = List.concat_map (serve (pick ())) lines in
    after ();
    rs
  in
  let stats =
    Churn.run ~query_every ~batch ~send_batch ~seed ~rate ~arrivals ~size_dist
      ~send ()
  in
  (stats, send, Buffer.contents log)

let run_storm () =
  let engine, _ = make_engine ~config:storm_config ~n:12 () in
  let stats, send, log =
    drive (Server.create engine) ~query_every:16 ~seed:11 ~rate:40.
      ~arrivals:120 ~size_dist:(Churn.Exp 0.5)
  in
  (stats, engine, send, log)

let test_churn_storm_acceptance () =
  let stats, engine, send, log = run_storm () in
  Alcotest.(check int) "all arrivals sent" 120 stats.Churn.arrivals;
  check_true "some flows admitted" (stats.Churn.admits > 10);
  check_true "overload shed or errored"
    (stats.Churn.sheds + stats.Churn.errors > 0);
  (* Every admitted flow satisfied the Theorem-5 min-ratio floor. *)
  (match stats.Churn.min_min_ratio with
  | None -> Alcotest.fail "no admissions recorded a min-ratio"
  | Some r -> check_true "min-ratio floor held under storm" (r >= 1. -. 1e-6));
  (* Every admitted document eventually departed: the churn driver
     flushed its pending removals, so the universe drains to empty. *)
  Alcotest.(check int) "population drains" 0 (Admission.active_count engine);
  (* The overload really exercised the ladder. *)
  let stats_line = send "stats" in
  check_true "ladder degraded under storm" (scrape_num stats_line "degrades" >= 1.);
  check_true "ladder recovered as backlog drained"
    (scrape_num stats_line "recovers" >= 1.);
  (* Degraded answers are flagged with their tier. *)
  check_true "cached-tier answers flagged" (contains log "\"tier\":\"cached\"");
  (* A calm-time query gets a full supervised verdict (the flap plan
     remaps onto the active sub-population). *)
  ignore (send "add t=1000" : string);
  ignore (send "add t=1000.1" : string);
  let q = send "query t=1001" in
  check_true "supervised verdict present" (contains q "\"outcome\":");
  check_true "verdict carries baselines" (contains q "\"baselines\":")

let test_churn_storm_deterministic () =
  let _, _, _, log_a = run_storm () in
  let _, _, _, log_b = run_storm () in
  Alcotest.(check string) "storm decision log byte-identical" log_a log_b

(* Restore re-derives the committed rates, so it must accept every state
   the engine can commit: after each request of the flap storm (which
   walks the whole ladder, shed included) and of a batched surge. *)
let test_restore_accepts_every_committed_state () =
  let follow ~config ~net =
    let engine, _ = make_engine ~config ~net () in
    let after () =
      match Admission.restore (fst (make_engine ~config ~net ())) (Admission.state engine) with
      | Ok () -> ()
      | Error e -> Alcotest.fail e
    in
    (Server.create engine, after)
  in
  let server, after =
    follow ~config:storm_config ~net:(Topologies.single ~mu:1. ~n:12 ())
  in
  ignore
    (drive server ~after ~query_every:16 ~seed:11 ~rate:40. ~arrivals:120
       ~size_dist:(Churn.Exp 0.5));
  let server, after =
    follow
      ~config:{ Admission.default_config with sup_retries = 0 }
      ~net:(Topologies.multi_parking_lot ~lots:8 ~hops:3 ())
  in
  ignore
    (drive server ~after ~clients:2 ~batch:8 ~query_every:50 ~seed:1 ~rate:100.
       ~arrivals:300 ~size_dist:(Churn.Exp 0.25))

(* Golden reply logs: MD5 digests of full reply streams, captured before
   the admission pipeline moved every tier onto the patch kernels.  The
   rebuild promised to keep every verdict, rate, ρ, tier label and
   vclock byte-identical; these pin it. *)
let golden_engine () =
  fst
    (make_engine
       ~config:{ Admission.default_config with sup_retries = 0 }
       ~net:(Topologies.multi_parking_lot ~lots:8 ~hops:3 ())
       ())

let test_golden_reply_logs () =
  let digest log = Digest.to_hex (Digest.string log) in
  let _, _, _, storm = run_storm () in
  Alcotest.(check string) "120-arrival flap storm"
    "ae8151e5267cc732691610df53cbbb24" (digest storm);
  let _, _, surge =
    drive (Server.create (golden_engine ())) ~clients:2 ~batch:8 ~query_every:50
      ~seed:1 ~rate:100. ~arrivals:300 ~size_dist:(Churn.Exp 0.25)
  in
  Alcotest.(check string) "surge: batches of 8, two sessions"
    "d8392b471c1b2eade0acfbacdbe54602" (digest surge);
  let _, _, calm =
    drive (Server.create (golden_engine ())) ~seed:1 ~rate:2. ~arrivals:100
      ~size_dist:(Churn.Exp 1.)
  in
  Alcotest.(check string) "calm: every request at the full tier"
    "60a0016d3f11dbe419a914a8feffb727" (digest calm)

(* The reply-field wrappers read one top-level field through the strict
   parser.  Before they did, they were first-occurrence substring
   scrapers; these digests were taken with those scrapers over the
   three golden streams, so every field the churn driver, perfbench and
   these tests read keeps its value.  [min_ratio] and [attempts] also
   occur inside a [query] reply's nested verdict, which a top-level read
   does not see; they are compared on the other replies only (the churn
   driver reads [min_ratio] on add replies only). *)
let wrapper_view line =
  let s k = Option.value ~default:"-" (Protocol.json_string_field line ~key:k) in
  let n k =
    match Protocol.json_number_field line ~key:k with
    | None -> "-"
    | Some v -> Ffc_obs.Jsonf.float_rt v
  in
  let b k =
    match Protocol.json_bool_field line ~key:k with
    | None -> "-"
    | Some v -> string_of_bool v
  in
  let op = s "op" in
  String.concat " "
    ([ b "ok"; op; s "tier"; s "decision"; s "conn"; s "reason"; n "seq"; n "rate";
       n "rho"; b "rho_fresh"; n "active"; n "backlog"; n "vclock"; n "batch";
       n "adds"; n "admits"; n "rejects"; n "sheds"; n "errors" ]
    @ if op = "query" then [] else [ n "min_ratio"; n "attempts" ])

let test_reply_fields_match_scrapers () =
  let digest log =
    String.split_on_char '\n' log
    |> List.filter (fun l -> l <> "")
    |> List.map wrapper_view |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  let _, _, _, storm = run_storm () in
  Alcotest.(check string) "flap storm" "94eef4db21a2dd6c4fa807448924734a" (digest storm);
  let _, _, surge =
    drive (Server.create (golden_engine ())) ~clients:2 ~batch:8 ~query_every:50
      ~seed:1 ~rate:100. ~arrivals:300 ~size_dist:(Churn.Exp 0.25)
  in
  Alcotest.(check string) "surge" "cb78b12660f194b8574ac378899dec2e" (digest surge);
  let _, _, calm =
    drive (Server.create (golden_engine ())) ~seed:1 ~rate:2. ~arrivals:100
      ~size_dist:(Churn.Exp 1.)
  in
  Alcotest.(check string) "calm" "5e4be9200fa0f3f0352c4efc4938ed10" (digest calm)

(* ------------------------------------------------------------------ *)
(* Batched admission                                                   *)
(* ------------------------------------------------------------------ *)

let add_at t = { Protocol.conn = None; time = Some t; size = None }

(* The verdict-bearing fields of an add reply — everything the batch
   contract promises bit-matches serial execution.  (Seqs, tiers and
   the vclock legitimately differ: the batch summary consumes a seq of
   its own, and batch members are labelled with the batch's tier.) *)
let verdict line =
  let s k = Option.value ~default:"-" (Protocol.json_string_field line ~key:k) in
  let n k =
    match Protocol.json_number_field line ~key:k with
    | None -> "-"
    | Some v -> Ffc_obs.Jsonf.float_rt v
  in
  String.concat " " [ s "conn"; s "decision"; s "reason"; n "rate"; n "min_ratio" ]

(* Run the same k adds serially through one engine and as a single
   bracket through an identically-configured second engine; return
   (serial replies, batch member replies, batch summary, both engines). *)
let batch_vs_serial ?config ?adjuster ~n k =
  let adds = List.init k (fun i -> add_at (0.25 *. float_of_int (i + 1))) in
  let serial_engine, _ = make_engine ?config ?adjuster ~n () in
  let serial =
    List.map
      (fun a -> (Admission.handle serial_engine (Protocol.Add a)).Admission.line)
      adds
  in
  let batch_engine, _ = make_engine ?config ?adjuster ~n () in
  let lines =
    List.map
      (fun r -> r.Admission.line)
      (Admission.handle_batch batch_engine adds)
  in
  Alcotest.(check int) "k members + summary" (k + 1) (List.length lines);
  let members = List.filteri (fun i _ -> i < k) lines in
  (serial, members, List.nth lines k, serial_engine, batch_engine)

let check_batch_matches_serial ?config ?adjuster ~n k =
  let serial, members, summary, serial_engine, batch_engine =
    batch_vs_serial ?config ?adjuster ~n k
  in
  Alcotest.(check (list string))
    "per-member verdicts bit-match serial" (List.map verdict serial)
    (List.map verdict members);
  (* The committed state is the same state serial execution reaches. *)
  check_true "rates bit-identical"
    (Admission.rates serial_engine = Admission.rates batch_engine);
  Alcotest.(check int) "same population"
    (Admission.active_count serial_engine)
    (Admission.active_count batch_engine);
  check_true "same rho"
    (Admission.rho serial_engine = Admission.rho batch_engine);
  List.iter
    (fun m ->
      check_float ~tol:0. "members carry the bracket size" (float_of_int k)
        (scrape_num m "batch"))
    members;
  summary

let test_batch_admit_matches_serial () =
  let summary = check_batch_matches_serial ~n:6 4 in
  Alcotest.(check string) "summary op" "batch" (scrape_str summary "op");
  check_float ~tol:0. "summary adds" 4. (scrape_num summary "adds");
  check_float ~tol:0. "summary admits" 4. (scrape_num summary "admits");
  check_float ~tol:0. "summary rejects" 0. (scrape_num summary "rejects");
  Alcotest.(check string) "one full-tier solve" "full" (scrape_str summary "tier")

let test_batch_min_rate_matches_serial () =
  (* Four flows share a unit link (fair rates 0.5, 0.25, 1/6, 0.125):
     the fourth's rate falls below the floor, so serial execution
     admits three and rejects the fourth — the batch must reproduce
     exactly that. *)
  let config = { Admission.default_config with min_rate = 0.15 } in
  let summary = check_batch_matches_serial ~config ~n:6 4 in
  check_float ~tol:0. "three admitted" 3. (scrape_num summary "admits");
  check_float ~tol:0. "one rejected" 1. (scrape_num summary "rejects")

let test_batch_rho_crossing_matches_serial () =
  (* An aggressive adjuster destabilises the system as the population
     grows: serially the third add lands at rho = 1 and is rejected.
     The batch's single rho check sees the crossing and replays the
     candidates serially, reproducing the greedy serial verdicts —
     including which member crosses the line. *)
  let adjuster = Rate_adjust.additive ~eta:0.5 ~beta:0.5 in
  let serial, members, summary, serial_engine, batch_engine =
    batch_vs_serial ~adjuster ~n:6 4
  in
  Alcotest.(check (list string))
    "verdicts bit-match across the rho crossing" (List.map verdict serial)
    (List.map verdict members);
  Alcotest.(check string) "third member rejected on rho" "rho"
    (scrape_str (List.nth members 2) "reason");
  check_float ~tol:0. "two admitted" 2. (scrape_num summary "admits");
  check_true "rates bit-identical"
    (Admission.rates serial_engine = Admission.rates batch_engine);
  Alcotest.(check int) "two active in both" 2
    (Admission.active_count batch_engine)

let lines_of s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

let test_batch_single_span_single_rho_check () =
  (* The observable witness that a bracket of k adds does one solve:
     exactly one svc.batch span, no per-member svc.request spans, and
     one decision event per member. *)
  let sink = Ffc_obs.Sink.buffer () in
  let ctx = Ffc_obs.Ctx.make ~sink () in
  let engine, _ = make_engine ~n:6 () in
  let _, trace =
    Ffc_obs.Ctx.with_ctx ctx (fun () ->
        Ffc_obs.Sink.capture (fun () ->
            Admission.handle_batch engine
              (List.init 4 (fun i -> add_at (0.25 *. float_of_int (i + 1))))))
  in
  let acc = Ffc_obs.Trace_report.of_lines (lines_of trace) in
  let phase_count name =
    match
      List.find_opt
        (fun p -> p.Ffc_obs.Trace_report.ph_name = name)
        (Ffc_obs.Trace_report.phases acc)
    with
    | Some p -> p.Ffc_obs.Trace_report.ph_count
    | None -> 0
  in
  Alcotest.(check int) "one svc.batch span" 1 (phase_count "svc.batch");
  Alcotest.(check int) "no per-member request spans" 0 (phase_count "svc.request");
  let tiers = Ffc_obs.Trace_report.tiers acc in
  Alcotest.(check int) "one decision event per member" 4
    (List.fold_left (fun acc (_, n) -> acc + n) 0 tiers)

let test_server_batch_brackets () =
  let engine, _ = make_engine ~n:6 () in
  let server = Server.create engine in
  let s = Server.new_session () in
  let silent line =
    match Server.handle_session_line server s line with
    | `Silent -> ()
    | _ -> Alcotest.failf "%s: expected silence" line
  in
  let errors line needle =
    match Server.handle_session_line server s line with
    | `Replies [ r ] ->
      check_true (line ^ ": ok:false") (contains r "\"ok\":false");
      check_true (Printf.sprintf "%s: says %S" line needle) (contains r needle)
    | _ -> Alcotest.failf "%s: expected one error reply" line
  in
  errors "end" "without an open batch bracket";
  silent "batch";
  silent "add t=0.25";
  (* Only adds may ride a bracket; the bracket survives the error. *)
  errors "query t=0.3" "only add";
  errors "batch" "already open";
  silent "add t=0.5";
  (match Server.handle_session_line server s "end" with
  | `Replies rs ->
    Alcotest.(check int) "two members + summary" 3 (List.length rs);
    List.iteri
      (fun i r ->
        if i < 2 then
          check_float ~tol:0. "bracket size" 2. (scrape_num r "batch"))
      rs;
    Alcotest.(check string) "summary closes the bracket" "batch"
      (scrape_str (List.nth rs 2) "op")
  | _ -> Alcotest.fail "end flushes the bracket");
  Alcotest.(check int) "both adds committed" 2 (Admission.active_count engine);
  (* An empty bracket is legal: just the summary, nothing solved. *)
  silent "batch";
  (match Server.handle_session_line server s "end" with
  | `Replies [ r ] ->
    check_float ~tol:0. "no adds" 0. (scrape_num r "adds");
    check_float ~tol:0. "no admits" 0. (scrape_num r "admits")
  | _ -> Alcotest.fail "empty bracket still answers")

let test_bracket_dies_with_session () =
  let engine, _ = make_engine ~n:4 () in
  let server = Server.create engine in
  let s = Server.new_session () in
  (match Server.handle_session_line server s "batch" with
  | `Silent -> ()
  | _ -> Alcotest.fail "bracket opens silently");
  (match Server.handle_session_line server s "add t=0.25" with
  | `Silent -> ()
  | _ -> Alcotest.fail "buffered add is silent");
  (* The session is dropped with the bracket open: nothing may have
     reached the engine — no commit, no sequence number. *)
  Alcotest.(check int) "nothing committed" 0 (Admission.active_count engine);
  Alcotest.(check int) "no seq consumed" 0 (Admission.seq engine)

(* ------------------------------------------------------------------ *)
(* Interleaving invariance                                             *)
(* ------------------------------------------------------------------ *)

let test_interleaving_invariant_decision_log () =
  (* The same global request order distributed over different sessions
     must produce the identical decision log: the engine is serial
     behind its logical clock, sessions are only transport. *)
  let run pick =
    let engine, _ = make_engine ~n:4 () in
    let server = Server.create engine in
    let sessions =
      [| Server.new_session ~sid:1 (); Server.new_session ~sid:2 () |]
    in
    List.concat
      (List.mapi
         (fun i line ->
           match Server.handle_session_line server sessions.(pick i) line with
           | `Silent -> []
           | `Replies rs | `Quit rs -> rs)
         determinism_script)
  in
  let single = run (fun _ -> 0) in
  let alternating = run (fun i -> i mod 2) in
  let split = run (fun i -> if i < 6 then 0 else 1) in
  Alcotest.(check (list string))
    "alternating sessions: byte-identical" single alternating;
  Alcotest.(check (list string)) "split sessions: byte-identical" single split

(* ------------------------------------------------------------------ *)
(* The select event loop over a real socket                            *)
(* ------------------------------------------------------------------ *)

let test_classify_accept_error () =
  let show e =
    match Server.classify_accept_error e with
    | `Retry -> "retry"
    | `Ignore -> "ignore"
    | `Backoff -> "backoff"
    | `Fatal -> "fatal"
  in
  Alcotest.(check string) "EINTR retries" "retry" (show Unix.EINTR);
  Alcotest.(check string) "ECONNABORTED ignored" "ignore" (show Unix.ECONNABORTED);
  Alcotest.(check string) "EAGAIN ignored" "ignore" (show Unix.EAGAIN);
  Alcotest.(check string) "EMFILE backs off" "backoff" (show Unix.EMFILE);
  Alcotest.(check string) "ENFILE backs off" "backoff" (show Unix.ENFILE);
  Alcotest.(check string) "ENOBUFS backs off" "backoff" (show Unix.ENOBUFS);
  Alcotest.(check string) "EBADF is fatal" "fatal" (show Unix.EBADF)

let temp_sock () =
  let path = Filename.temp_file "ffc_daemon" ".sock" in
  Sys.remove path;
  path

let connect_to sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
      Unix.sleepf 0.02;
      go (n - 1)
  in
  go 250;
  (fd, Unix.in_channel_of_descr fd)

let send_raw (fd, _) line =
  let data = line ^ "\n" in
  let rec go pos =
    if pos < String.length data then
      go (pos + Unix.write_substring fd data pos (String.length data - pos))
  in
  go 0

let read_reply (_, ic) = input_line ic

let request c line =
  send_raw c line;
  read_reply c

let close_client (fd, _) = try Unix.close fd with Unix.Unix_error _ -> ()

(* Run [f] against a live daemon in a sibling domain; always shut the
   daemon down afterwards (retrying while the session table is full)
   so the domain can be joined even when [f] fails. *)
let with_daemon ?max_sessions ?idle_timeout ?(n = 6)
    ?(config = Admission.default_config) f =
  let engine, _ = make_engine ~config ~n () in
  let server = Server.create engine in
  let sock = temp_sock () in
  let daemon =
    Domain.spawn (fun () ->
        try
          Server.serve ?max_sessions ?idle_timeout server ~socket:sock;
          None
        with e -> Some (Printexc.to_string e))
  in
  Fun.protect
    ~finally:(fun () ->
      let rec stop tries =
        match
          let c = connect_to sock in
          let r = request c "shutdown" in
          close_client c;
          r
        with
        | r when contains r "shed at accept" && tries > 0 ->
          Unix.sleepf 0.05;
          stop (tries - 1)
        | _ -> ()
        | exception _ -> ()
      in
      stop 20;
      (match Domain.join daemon with
      | None -> ()
      | Some e -> Alcotest.failf "daemon raised: %s" e);
      try Sys.remove sock with Sys_error _ -> ())
    (fun () -> f sock engine)

let test_daemon_concurrent_sessions_and_batch () =
  with_daemon (fun sock _ ->
      let a = connect_to sock in
      let b = connect_to sock in
      (* Interleaved requests across two sessions: seqs advance in the
         global arrival order, whatever session carries each request. *)
      let r1 = request a "add t=0.25" in
      Alcotest.(check string) "a admits" "admit" (scrape_str r1 "decision");
      check_float ~tol:0. "seq 1" 1. (scrape_num r1 "seq");
      let r2 = request b "add t=0.5" in
      Alcotest.(check string) "b admits" "admit" (scrape_str r2 "decision");
      check_float ~tol:0. "seq 2" 2. (scrape_num r2 "seq");
      let r3 = request a "query t=0.75" in
      check_float ~tol:0. "seq 3" 3. (scrape_num r3 "seq");
      (* A pipelined bracket rides session b: write everything, then
         collect two member replies plus the summary. *)
      send_raw b "batch";
      send_raw b "add t=1";
      send_raw b "add t=1.25";
      send_raw b "end";
      let m1 = read_reply b in
      let m2 = read_reply b in
      let summary = read_reply b in
      Alcotest.(check string) "member 1 admitted" "admit" (scrape_str m1 "decision");
      Alcotest.(check string) "member 2 admitted" "admit" (scrape_str m2 "decision");
      check_float ~tol:0. "bracket size tagged" 2. (scrape_num m1 "batch");
      Alcotest.(check string) "summary arrives last" "batch"
        (scrape_str summary "op");
      (* Session a was not disturbed by b's bracket. *)
      let r4 = request a "stats" in
      check_float ~tol:0. "four flows active" 4. (scrape_num r4 "active");
      close_client a;
      close_client b)

let test_daemon_slow_reader_does_not_block () =
  with_daemon (fun sock _ ->
      let slow = connect_to sock in
      (* [slow] sends a request but never reads the reply... *)
      send_raw slow "add t=0.25";
      (* ...yet another session gets served promptly (a blocking write
         to [slow] would wedge the whole loop here). *)
      let other = connect_to sock in
      let r = request other "stats" in
      Alcotest.(check string) "other session served" "stats" (scrape_str r "op");
      check_float ~tol:0. "slow session's add was processed" 1.
        (scrape_num r "active");
      (* The unread reply is still waiting when the reader catches up. *)
      let pending = read_reply slow in
      Alcotest.(check string) "pending reply intact" "admit"
        (scrape_str pending "decision");
      close_client slow;
      close_client other)

let test_daemon_accept_shed_at_capacity () =
  with_daemon ~max_sessions:1 (fun sock _ ->
      let a = connect_to sock in
      ignore (request a "add t=0.25" : string);
      (* The table is full: the next connection gets one shed line and
         is closed — without consuming an engine seq. *)
      let b = connect_to sock in
      let shed = read_reply b in
      check_true "shed line" (contains shed "shed at accept");
      (match read_reply b with
      | exception End_of_file -> ()
      | l -> Alcotest.failf "shed connection must close, got %s" l);
      close_client b;
      (* The established session is unaffected, and no seq was burned:
         the next request is seq 2. *)
      let r = request a "stats" in
      check_float ~tol:0. "no seq consumed by the shed" 2. (scrape_num r "seq");
      close_client a)

let test_daemon_idle_timeout_closes () =
  with_daemon ~idle_timeout:0.1 (fun sock _ ->
      let c = connect_to sock in
      ignore (request c "add t=0.25" : string);
      (* Stay silent past the idle deadline: the daemon closes us. *)
      (match read_reply c with
      | exception End_of_file -> ()
      | l -> Alcotest.failf "idle session must be closed, got %s" l);
      close_client c)

let suites =
  [
    ( "service.protocol",
      [
        case "request round-trip and rejects" test_protocol_roundtrip;
        case "positional-name edge cases" test_protocol_positional_edge_cases;
        prop_protocol_render_parse;
        prop_protocol_parse_total;
        case "size distribution parse" test_size_dist_parse;
      ] );
    ( "service.admission",
      [
        case "admissions match fair_masked bit-for-bit" test_admission_matches_fair_masked;
        case "min_rate ingress discard" test_admission_min_rate_reject;
        case "snapshot/shutdown are server-level" test_snapshot_shutdown_are_server_level;
      ] );
    ( "service.ladder",
      [
        case "degrades and recovers deterministically" test_ladder_degrades_and_recovers;
        case "cached tier flags stale rho" test_cached_tier_flags_stale_rho;
        case "read-only verbs stale under load"
          test_read_only_verbs_stale_under_load;
        case "stats is free and never shed" test_stats_free_and_never_shed;
      ] );
    ( "service.envelope",
      [
        case "solver failure degrades to cached" test_solver_failure_degrades_to_cached;
        case "create refuses a failing idle DF" test_create_refuses_failing_idle_df;
      ] );
    ( "service.batch",
      [
        case "admit regime bit-matches serial" test_batch_admit_matches_serial;
        case "min_rate regime bit-matches serial" test_batch_min_rate_matches_serial;
        case "rho crossing bit-matches serial" test_batch_rho_crossing_matches_serial;
        case "one svc.batch span, one rho check" test_batch_single_span_single_rho_check;
        case "session bracket state machine" test_server_batch_brackets;
        case "bracket dies with the session" test_bracket_dies_with_session;
      ] );
    ( "service.determinism",
      [
        case "decision log jobs-invariant" test_jobs_invariant_decision_log;
        case "decision log interleaving-invariant" test_interleaving_invariant_decision_log;
        case "churn storm byte-identical" test_churn_storm_deterministic;
        case "golden reply logs" test_golden_reply_logs;
        case "reply-field wrappers match the scrapers" test_reply_fields_match_scrapers;
      ] );
    ( "service.snapshot",
      [
        case "state round-trip" test_snapshot_state_roundtrip;
        case "corruption and digest mismatch refused" test_snapshot_corruption_detected;
        case "restart resumes bit-identically" test_restart_resumes_bit_identically;
        case "edited rates refused" test_snapshot_edited_rates_refused;
        case "restore accepts committed states" test_restore_accepts_every_committed_state;
      ] );
    ( "service.server",
      [
        case "dispatch semantics" test_server_dispatch;
        case "metrics verb" test_metrics_verb;
        case "accept-error classification" test_classify_accept_error;
      ] );
    ( "service.daemon",
      [
        case "concurrent sessions and a pipelined batch"
          test_daemon_concurrent_sessions_and_batch;
        case "slow reader does not block the loop"
          test_daemon_slow_reader_does_not_block;
        case "accept-time shedding at capacity"
          test_daemon_accept_shed_at_capacity;
        case "idle timeout closes the session" test_daemon_idle_timeout_closes;
      ] );
    ( "service.churn",
      [ case "storm acceptance" test_churn_storm_acceptance ] );
  ]
