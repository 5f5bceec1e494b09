open Ffc_numerics
open Ffc_topology
open Ffc_core
open Ffc_desim
open Ffc_closedloop
open Test_util

(* ------------------------------------------------------------------ *)
(* Controllable sources                                                *)
(* ------------------------------------------------------------------ *)

let test_set_rate_changes_rate () =
  let sim = Sim.create () in
  let rng = Rng.create 3 in
  let pool = Packet.Pool.create () in
  let count = ref 0 in
  let src =
    Source.create ~sim ~rng ~pool ~conn:0 ~rate:1.
      ~emit:(fun p -> incr count; Packet.Pool.free pool p) ()
  in
  Source.start src;
  Sim.run ~until:1000. sim;
  let at_low_rate = !count in
  Source.set_rate src 10.;
  Sim.run ~until:2000. sim;
  let extra = !count - at_low_rate in
  check_true "rate increase takes effect" (extra > 5 * at_low_rate);
  check_float "rate accessor" 10. (Source.rate src)

let test_set_rate_zero_stops () =
  let sim = Sim.create () in
  let rng = Rng.create 5 in
  let pool = Packet.Pool.create () in
  let count = ref 0 in
  let src =
    Source.create ~sim ~rng ~pool ~conn:0 ~rate:5.
      ~emit:(fun p -> incr count; Packet.Pool.free pool p) ()
  in
  Source.start src;
  Sim.run ~until:100. sim;
  Source.set_rate src 0.;
  Sim.run ~until:101. sim; (* drain the one pending arrival *)
  let frozen = !count in
  Sim.run ~until:1000. sim;
  Alcotest.(check int) "no emissions at rate 0" frozen !count

let test_set_rate_restarts_stopped_source () =
  let sim = Sim.create () in
  let rng = Rng.create 7 in
  let pool = Packet.Pool.create () in
  let count = ref 0 in
  let src =
    Source.create ~sim ~rng ~pool ~conn:0 ~rate:0.
      ~emit:(fun p -> incr count; Packet.Pool.free pool p) ()
  in
  Source.start src;
  Sim.run ~until:100. sim;
  Alcotest.(check int) "zero-rate source silent" 0 !count;
  Source.set_rate src 5.;
  Sim.run ~until:200. sim;
  check_true "restarted source emits" (!count > 100)

let test_set_rate_validation () =
  let sim = Sim.create () in
  let rng = Rng.create 7 in
  let pool = Packet.Pool.create () in
  let src = Source.create ~sim ~rng ~pool ~conn:0 ~rate:1. ~emit:(fun _ -> ()) () in
  Alcotest.check_raises "negative rate rejected"
    (Invalid_argument "Source: rate must be finite and non-negative") (fun () ->
      Source.set_rate src (-1.))

(* ------------------------------------------------------------------ *)
(* Closed loop                                                         *)
(* ------------------------------------------------------------------ *)

let signal = Signal.linear_fractional

let run_homogeneous discipline =
  let n = 2 in
  let net = Topologies.single ~mu:1. ~n () in
  Closed_loop.run ~net ~discipline ~style:Congestion.Individual ~signal
    ~adjusters:(Array.make n Scenario.standard_adjuster)
    ~r0:(Array.make n 0.05) ~interval:300. ~updates:100 ~seed:9 ()

let test_closed_loop_converges_to_fair_point () =
  let r = run_homogeneous Closed_loop.Fs_priority in
  Array.iter
    (fun rate -> check_float ~tol:0.05 "near fair share 0.25" 0.25 rate)
    r.Closed_loop.mean_tail_rates

let test_closed_loop_fifo_also_fair () =
  let r = run_homogeneous Closed_loop.Fifo in
  Array.iter
    (fun rate -> check_float ~tol:0.05 "near fair share 0.25" 0.25 rate)
    r.Closed_loop.mean_tail_rates

let test_closed_loop_result_shapes () =
  let r = run_homogeneous Closed_loop.Fs_priority in
  Alcotest.(check int) "one time per update" 100 (Array.length r.Closed_loop.times);
  Alcotest.(check int) "one rate vector per update" 100 (Array.length r.Closed_loop.rates);
  Alcotest.(check int) "one signal vector per update" 100
    (Array.length r.Closed_loop.signals);
  check_true "times increase"
    (Array.for_all2 ( < )
       (Array.sub r.Closed_loop.times 0 99)
       (Array.sub r.Closed_loop.times 1 99));
  Array.iter
    (fun b -> Array.iter (fun s -> check_true "signal in [0,1]" (s >= 0. && s <= 1.)) b)
    r.Closed_loop.signals

let test_closed_loop_determinism () =
  let a = run_homogeneous Closed_loop.Fs_priority in
  let b = run_homogeneous Closed_loop.Fs_priority in
  check_vec "same seed, same tail rates" a.Closed_loop.mean_tail_rates
    b.Closed_loop.mean_tail_rates

let test_closed_loop_heterogeneous_fs_robust () =
  let net = Topologies.single ~mu:1. ~n:2 () in
  let r =
    Closed_loop.run ~net ~discipline:Closed_loop.Fs_priority
      ~style:Congestion.Individual ~signal
      ~adjusters:[| Scenario.timid_adjuster; Scenario.greedy_adjuster |]
      ~r0:[| 0.2; 0.2 |] ~interval:400. ~updates:120 ~seed:4 ()
  in
  let tail = r.Closed_loop.mean_tail_rates in
  check_true "timid near its baseline 0.15" (tail.(0) > 0.12);
  check_true "greedy above timid" (tail.(1) > tail.(0))

let test_closed_loop_aggregate_starves () =
  let net = Topologies.single ~mu:1. ~n:2 () in
  let r =
    Closed_loop.run ~net ~discipline:Closed_loop.Fifo ~style:Congestion.Aggregate
      ~signal
      ~adjusters:[| Scenario.timid_adjuster; Scenario.greedy_adjuster |]
      ~r0:[| 0.2; 0.2 |] ~interval:400. ~updates:120 ~seed:4 ()
  in
  let tail = r.Closed_loop.mean_tail_rates in
  check_true "timid starved in the live loop" (tail.(0) < 0.02)

let test_closed_loop_validation () =
  let net = Topologies.single ~n:2 () in
  let adjusters = Array.make 2 Scenario.standard_adjuster in
  check_true "bad interval rejected"
    (try
       ignore
         (Closed_loop.run ~net ~discipline:Closed_loop.Fifo
            ~style:Congestion.Individual ~signal ~adjusters ~r0:[| 0.1; 0.1 |]
            ~interval:0. ~updates:10 ~seed:1 ());
       false
     with Invalid_argument _ -> true);
  check_true "r0 length mismatch rejected"
    (try
       ignore
         (Closed_loop.run ~net ~discipline:Closed_loop.Fifo
            ~style:Congestion.Individual ~signal ~adjusters ~r0:[| 0.1 |]
            ~interval:10. ~updates:10 ~seed:1 ());
       false
     with Invalid_argument _ -> true)

let test_closed_loop_multi_gateway () =
  (* Parking lot under the live loop: allocations must track max-min. *)
  let net = Topologies.parking_lot ~hops:2 () in
  let n = Network.num_connections net in
  let predicted = Steady_state.fair ~signal ~b_ss:0.5 ~net in
  let r =
    Closed_loop.run ~net ~discipline:Closed_loop.Fs_priority
      ~style:Congestion.Individual ~signal
      ~adjusters:(Array.make n Scenario.standard_adjuster)
      ~r0:(Array.make n 0.05) ~interval:400. ~updates:120 ~seed:6 ()
  in
  Array.iteri
    (fun i rate ->
      check_true
        (Printf.sprintf "conn %d within 20%% of prediction" i)
        (Float.abs (rate -. predicted.(i)) < 0.2 *. predicted.(i)))
    r.Closed_loop.mean_tail_rates

(* ------------------------------------------------------------------ *)
(* Drop-tail buffers + implicit feedback                               *)
(* ------------------------------------------------------------------ *)

let test_buffer_limit_drops () =
  let sim = Sim.create () in
  let rng = Rng.create 11 in
  let pool = Packet.Pool.create () in
  let drops = ref 0 and delivered = ref 0 in
  let server =
    Server.create ~sim ~rng ~pool ~mu:1. ~qdisc:Qdisc.Fifo ~buffer_limit:5
      ~on_drop:(fun p -> incr drops; Packet.Pool.free pool p)
      ~on_depart:(fun p -> incr delivered; Packet.Pool.free pool p)
      ()
  in
  let src =
    Source.create ~sim ~rng:(Rng.split rng) ~pool ~conn:0 ~rate:3.
      ~emit:(fun pkt -> Server.inject server pkt)
      ()
  in
  Source.start src;
  Sim.run ~until:5_000. sim;
  check_true "overloaded drop-tail drops" (!drops > 100);
  check_true "occupancy bounded by limit" (Server.in_system server <= 5);
  (* Delivered rate is capped near mu. *)
  check_true "goodput near capacity"
    (float_of_int !delivered /. 5_000. > 0.9
    && float_of_int !delivered /. 5_000. < 1.05)

let test_no_buffer_limit_never_drops () =
  let sim = Sim.create () in
  let rng = Rng.create 13 in
  let pool = Packet.Pool.create () in
  let drops = ref 0 in
  let server =
    Server.create ~sim ~rng ~pool ~mu:1. ~qdisc:Qdisc.Fifo
      ~on_drop:(fun _ -> incr drops)
      ~on_depart:(fun p -> Packet.Pool.free pool p)
      ()
  in
  let src =
    Source.create ~sim ~rng:(Rng.split rng) ~pool ~conn:0 ~rate:2.
      ~emit:(fun pkt -> Server.inject server pkt)
      ()
  in
  Source.start src;
  Sim.run ~until:1_000. sim;
  Alcotest.(check int) "infinite buffer never drops" 0 !drops

let test_measure_drops () =
  let m = Measure.Flat.create ~paths:(Array.make 3 [| 0 |]) in
  Measure.Flat.count_drop m ~conn:2;
  Measure.Flat.count_drop m ~conn:2;
  Alcotest.(check int) "two drops" 2 (Measure.Flat.drops m ~conn:2);
  Alcotest.(check int) "conn without drops" 0 (Measure.Flat.drops m ~conn:0);
  Measure.Flat.reset m ~now:1.;
  Alcotest.(check int) "drops cleared by reset" 0 (Measure.Flat.drops m ~conn:2)

let test_drop_tail_loop_controls_congestion () =
  let net = Topologies.single ~mu:1. ~n:2 () in
  let r =
    Ffc_closedloop.Closed_loop.run_drop_tail ~net ~buffer:20
      ~adjusters:(Array.make 2 (Rate_adjust.aimd ~increase:0.02 ~decrease:0.3))
      ~r0:[| 0.1; 0.3 |] ~interval:200. ~updates:150 ~seed:21 ()
  in
  check_true "utilization meaningful"
    (r.Closed_loop.mean_utilization > 0.5 && r.Closed_loop.mean_utilization < 1.0);
  check_true "loss small" (Vec.max r.Closed_loop.drop_fraction < 0.05);
  check_true "roughly fair"
    (Stats.jain_index r.Closed_loop.dr_mean_tail_rates > 0.9)

let test_drop_tail_validation () =
  let net = Topologies.single ~n:1 () in
  check_true "buffer >= 1 enforced"
    (try
       ignore
         (Ffc_closedloop.Closed_loop.run_drop_tail ~net ~buffer:0
            ~adjusters:[| Rate_adjust.aimd ~increase:0.02 ~decrease:0.3 |]
            ~r0:[| 0.1 |] ~interval:10. ~updates:5 ~seed:1 ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Golden sample paths                                                 *)
(* ------------------------------------------------------------------ *)

(* Digests of every logged bit (update times, rate and signal vectors,
   tail means, drop fractions), recorded before both loops were moved
   onto Netsim's packet path.  Any change to a draw or to event order
   moves them. *)
let loop_digest (r : Closed_loop.result) =
  bits_digest
    (List.concat
       [
         Array.to_list r.times;
         List.concat_map Array.to_list (Array.to_list r.rates);
         List.concat_map Array.to_list (Array.to_list r.signals);
         Array.to_list r.final_rates;
         Array.to_list r.mean_tail_rates;
       ])

let test_golden_fs_individual () =
  let net = Topologies.parking_lot ~latency:0.2 ~hops:2 () in
  let n = Network.num_connections net in
  let r =
    Closed_loop.run ~net ~discipline:Closed_loop.Fs_priority
      ~style:Congestion.Individual ~signal
      ~adjusters:(Array.make n Scenario.standard_adjuster)
      ~r0:(Array.make n 0.05) ~interval:100. ~updates:30 ~seed:6 ()
  in
  Alcotest.(check string) "FS/individual digest" "96adeff34a5ce967e292756940ceb0ae" (loop_digest r)

(* Rates that hit 0 leave empty thinning tables while packets are still
   in flight: the class draw must skip them without touching the
   stream. *)
let test_golden_fs_rates_at_zero () =
  let net = Topologies.parking_lot ~latency:0.5 ~hops:3 () in
  let r =
    Closed_loop.run ~net ~discipline:Closed_loop.Fs_priority
      ~style:Congestion.Individual ~signal
      ~adjusters:
        (Array.init 4 (fun i ->
             Rate_adjust.additive ~eta:0.3 ~beta:(if i = 0 then 0.1 else 0.9)))
      ~r0:(Array.make 4 0.3) ~interval:50. ~updates:40 ~seed:3 ()
  in
  check_true "some rate hit zero"
    (Array.exists (Array.exists (fun x -> x = 0.)) r.Closed_loop.rates);
  Alcotest.(check string) "FS rates-at-zero digest" "29ddc7ee0547752569035da369c9964a"
    (loop_digest r)

let test_golden_fifo_aggregate () =
  let net = Topologies.single ~mu:1. ~latency:0.5 ~n:2 () in
  let r =
    Closed_loop.run ~net ~discipline:Closed_loop.Fifo ~style:Congestion.Aggregate
      ~signal
      ~adjusters:[| Scenario.timid_adjuster; Scenario.greedy_adjuster |]
      ~r0:[| 0.2; 0.2 |] ~interval:100. ~updates:30 ~seed:4 ()
  in
  Alcotest.(check string) "FIFO/aggregate digest" "fd49398aa4117310fdc6e4887607b3b2" (loop_digest r)

let test_golden_drop_tail () =
  let net = Topologies.parking_lot ~latency:0.1 ~hops:2 () in
  let n = Network.num_connections net in
  let r =
    Closed_loop.run_drop_tail ~net ~buffer:4
      ~adjusters:(Array.make n (Rate_adjust.aimd ~increase:0.02 ~decrease:0.3))
      ~r0:(Array.make n 0.3) ~interval:100. ~updates:40 ~seed:21 ()
  in
  check_true "drops occurred" (Array.exists (fun f -> f > 0.) r.Closed_loop.drop_fraction);
  Alcotest.(check string) "drop-tail digest" "bf481b5c4b7e99813374f5aa50a5ab5d"
    (bits_digest
       (List.concat
          [
            Array.to_list r.dr_times;
            List.concat_map Array.to_list (Array.to_list r.dr_rates);
            Array.to_list r.dr_mean_tail_rates;
            Array.to_list r.drop_fraction;
            [ r.mean_utilization ];
          ]))

let suites =
  [
    ( "closedloop",
      [
        case "set_rate changes rate" test_set_rate_changes_rate;
        case "set_rate zero stops" test_set_rate_zero_stops;
        case "set_rate restarts" test_set_rate_restarts_stopped_source;
        case "set_rate validation" test_set_rate_validation;
        case "converges to fair point (FS)" test_closed_loop_converges_to_fair_point;
        case "converges to fair point (FIFO)" test_closed_loop_fifo_also_fair;
        case "result shapes" test_closed_loop_result_shapes;
        case "determinism" test_closed_loop_determinism;
        case "heterogeneous FS robust" test_closed_loop_heterogeneous_fs_robust;
        case "aggregate starves live" test_closed_loop_aggregate_starves;
        case "input validation" test_closed_loop_validation;
        case "multi-gateway max-min" test_closed_loop_multi_gateway;
        case "drop-tail buffer drops" test_buffer_limit_drops;
        case "infinite buffer never drops" test_no_buffer_limit_never_drops;
        case "measure drop counters" test_measure_drops;
        case "drop-driven AIMD controls congestion" test_drop_tail_loop_controls_congestion;
        case "drop-tail validation" test_drop_tail_validation;
        case "golden FS/individual" test_golden_fs_individual;
        case "golden FS rates at zero" test_golden_fs_rates_at_zero;
        case "golden FIFO/aggregate" test_golden_fifo_aggregate;
        case "golden drop-tail" test_golden_drop_tail;
      ] );
  ]
