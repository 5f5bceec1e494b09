open Ffc_numerics
open Ffc_queueing
open Ffc_topology
open Ffc_desim
open Test_util

(* ------------------------------------------------------------------ *)
(* Event heap                                                          *)
(* ------------------------------------------------------------------ *)

let test_heap_ordering () =
  let h = Event_heap.create () in
  List.iter (fun (t, v) -> Event_heap.push h ~time:t v) [ (3., "c"); (1., "a"); (2., "b") ];
  let popped = List.init 3 (fun _ -> Event_heap.pop_min h) in
  let values = List.map (function Some (_, v) -> v | None -> "?") popped in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] values;
  check_true "empty at end" (Event_heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Event_heap.create () in
  List.iter (fun v -> Event_heap.push h ~time:1. v) [ 1; 2; 3 ];
  let values = List.init 3 (fun _ -> match Event_heap.pop_min h with Some (_, v) -> v | None -> 0) in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3 ] values

let test_heap_interleaved () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:5. 5;
  Event_heap.push h ~time:1. 1;
  (match Event_heap.pop_min h with
  | Some (t, 1) -> check_float "first pop" 1. t
  | _ -> Alcotest.fail "expected (1., 1)");
  Event_heap.push h ~time:0.5 0;
  (match Event_heap.pop_min h with
  | Some (_, v) -> Alcotest.(check int) "newly pushed smaller" 0 v
  | None -> Alcotest.fail "heap not empty");
  Alcotest.(check int) "size" 1 (Event_heap.size h)

let test_heap_nonfinite_rejected () =
  let h = Event_heap.create () in
  Alcotest.check_raises "nan time" (Invalid_argument "Event_heap.push: non-finite time")
    (fun () -> Event_heap.push h ~time:Float.nan ())

let test_heap_large_random () =
  let h = Event_heap.create () in
  let rng = Rng.create 99 in
  for _ = 1 to 1000 do
    Event_heap.push h ~time:(Rng.uniform rng) ()
  done;
  let last = ref neg_infinity in
  let sorted = ref true in
  for _ = 1 to 1000 do
    match Event_heap.pop_min h with
    | Some (t, ()) ->
      if t < !last then sorted := false;
      last := t
    | None -> sorted := false
  done;
  check_true "1000 random events pop sorted" !sorted

let test_heap_popped_payloads_collectable () =
  (* Popping must clear the vacated slot: a payload that the caller has
     dropped may not stay reachable from the heap's backing array. *)
  let h = Event_heap.create () in
  let n = 64 in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set weak i (Some payload);
    Event_heap.push h ~time:(float_of_int i) payload
  done;
  for _ = 1 to n - 1 do
    ignore (Event_heap.pop_min h)
  done;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check weak i then incr live
  done;
  (* Only the one un-popped payload may survive. *)
  Alcotest.(check int) "popped payloads collected" 1 !live;
  check_true "heap still usable" (Event_heap.size h = 1);
  ignore (Sys.opaque_identity h)

let test_heap_shrinks_when_quarter_full () =
  let h = Event_heap.create () in
  for i = 1 to 1024 do
    Event_heap.push h ~time:(float_of_int i) i
  done;
  let cap_full = Event_heap.capacity h in
  check_true "grew to hold 1024" (cap_full >= 1024);
  for _ = 1 to 1000 do
    ignore (Event_heap.pop_min h)
  done;
  check_true
    (Printf.sprintf "capacity released (%d -> %d)" cap_full (Event_heap.capacity h))
    (Event_heap.capacity h < cap_full / 4);
  (* Shrinking must not disturb ordering of the survivors. *)
  let values =
    List.init 24 (fun _ -> match Event_heap.pop_min h with Some (_, v) -> v | None -> 0)
  in
  Alcotest.(check (list int)) "survivors in order" (List.init 24 (fun i -> 1001 + i)) values;
  check_true "never below minimum capacity" (Event_heap.capacity h >= 16)

(* ------------------------------------------------------------------ *)
(* Sim core                                                            *)
(* ------------------------------------------------------------------ *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  let h = Sim.register sim (fun a _ -> log := a :: !log) in
  Sim.schedule_code sim ~at:2. ~handler:h ~a:2 ~b:0;
  Sim.schedule_code sim ~at:1. ~handler:h ~a:1 ~b:0;
  Sim.run sim;
  Alcotest.(check (list int)) "execution order" [ 1; 2 ] (List.rev !log);
  check_float "clock at last event" 2. (Sim.now sim)

(* A handler that counts its calls and reschedules itself one time unit
   later while [again] holds. *)
let ticker sim ~again =
  let count = ref 0 in
  let h = ref (-1) in
  h :=
    Sim.register sim (fun _ _ ->
        Stdlib.incr count;
        if again !count then
          Sim.schedule_code_after sim ~delay:1. ~handler:!h ~a:0 ~b:0);
  Sim.schedule_code sim ~at:0. ~handler:!h ~a:0 ~b:0;
  count

let test_sim_cascading () =
  let sim = Sim.create () in
  let count = ticker sim ~again:(fun n -> n < 5) in
  Sim.run sim;
  Alcotest.(check int) "cascade count" 5 !count;
  check_float "final clock" 4. (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let count = ticker sim ~again:(fun _ -> true) in
  Sim.run ~until:3.5 sim;
  Alcotest.(check int) "only events <= until" 4 !count;
  check_float "clock advanced to until" 3.5 (Sim.now sim);
  check_true "later events still pending" (Sim.pending sim > 0)

let test_sim_past_rejected () =
  let sim = Sim.create () in
  let h = Sim.register sim (fun _ _ -> ()) in
  Sim.schedule_code sim ~at:5. ~handler:h ~a:0 ~b:0;
  Sim.run sim;
  Alcotest.check_raises "past scheduling"
    (Invalid_argument "Sim.schedule_code: time in the past")
    (fun () -> Sim.schedule_code sim ~at:1. ~handler:h ~a:0 ~b:0)

(* ------------------------------------------------------------------ *)
(* Measure                                                             *)
(* ------------------------------------------------------------------ *)

(* One connection per path length given; [first_slot m c] is its first hop. *)
let flat_measure hops = Measure.Flat.create ~paths:(Array.map (fun h -> Array.make h 0) hops)
let first_slot m conn = Measure.Flat.slot m ~conn ~hop:0

let test_measure_occupancy () =
  let m = flat_measure [| 1 |] in
  let s = first_slot m 0 in
  Measure.Flat.incr m ~slot:s ~now:0.;
  Measure.Flat.incr m ~slot:s ~now:1.;
  Measure.Flat.decr m ~slot:s ~now:3.;
  (* Level 1 on [0,1), 2 on [1,3), 1 on [3,4): mean (1+4+1)/4 = 1.5. *)
  check_float "time-weighted occupancy" 1.5 (Measure.Flat.mean_occupancy m ~slot:s ~now:4.);
  Alcotest.(check int) "instantaneous" 1 (Measure.Flat.occupancy m ~slot:s);
  (* Slots are per (connection, hop), laid out connection by connection. *)
  let m = flat_measure [| 2; 3 |] in
  Alcotest.(check int) "slots" 5 (Measure.Flat.num_slots m);
  Alcotest.(check int) "second conn, last hop" 4 (Measure.Flat.slot m ~conn:1 ~hop:2)

let test_measure_reset () =
  let m = flat_measure [| 1 |] in
  let s = first_slot m 0 in
  Measure.Flat.incr m ~slot:s ~now:0.;
  Measure.Flat.reset m ~now:10.;
  (* Level stays 1 across the reset; mean over the new window is 1. *)
  Alcotest.(check int) "level kept" 1 (Measure.Flat.occupancy m ~slot:s);
  check_float "post-reset mean" 1. (Measure.Flat.mean_occupancy m ~slot:s ~now:12.);
  Measure.Flat.record_delay m ~conn:0 5.;
  Measure.Flat.count_delivery m ~conn:0;
  Measure.Flat.reset m ~now:20.;
  Alcotest.(check int) "delays cleared" 0 (Measure.Flat.delay_count m ~conn:0);
  Alcotest.(check int) "deliveries cleared" 0 (Measure.Flat.deliveries m ~conn:0)

let test_measure_negative_occupancy () =
  let m = flat_measure [| 1 |] in
  Alcotest.check_raises "decr below zero"
    (Invalid_argument "Measure.Flat.decr: occupancy would go negative") (fun () ->
      Measure.Flat.decr m ~slot:(first_slot m 0) ~now:0.)

let test_measure_delays () =
  let m = flat_measure [| 1; 1 |] in
  Measure.Flat.record_delay m ~conn:1 2.;
  Measure.Flat.record_delay m ~conn:1 4.;
  check_float "delay mean" 3. (Measure.Flat.delay_mean m ~conn:1);
  Alcotest.(check int) "delay count" 2 (Measure.Flat.delay_count m ~conn:1);
  check_float "conn without samples" 0. (Measure.Flat.delay_mean m ~conn:0)

let test_measure_deliveries () =
  let m = flat_measure [| 1; 1 |] in
  Measure.Flat.count_delivery m ~conn:0;
  Measure.Flat.count_delivery m ~conn:0;
  Alcotest.(check int) "two deliveries" 2 (Measure.Flat.deliveries m ~conn:0);
  Alcotest.(check int) "conn without deliveries" 0 (Measure.Flat.deliveries m ~conn:1)

(* ------------------------------------------------------------------ *)
(* Source                                                              *)
(* ------------------------------------------------------------------ *)

let test_source_rate () =
  let sim = Sim.create () in
  let rng = Rng.create 7 in
  let pool = Packet.Pool.create () in
  let count = ref 0 in
  let src =
    Source.create ~sim ~rng ~pool ~conn:0 ~rate:5.
      ~emit:(fun p -> Stdlib.incr count; Packet.Pool.free pool p) ()
  in
  Source.start src;
  Sim.run ~until:1000. sim;
  (* ~5000 arrivals expected; Poisson sd ~ 71. *)
  check_true "arrival count near rate*horizon"
    (Float.abs (float_of_int !count -. 5000.) < 300.);
  Alcotest.(check int) "emitted counter" !count (Source.emitted src)

let test_source_zero_rate () =
  let sim = Sim.create () in
  let rng = Rng.create 7 in
  let pool = Packet.Pool.create () in
  let src = Source.create ~sim ~rng ~pool ~conn:0 ~rate:0. ~emit:(fun _ -> ()) () in
  Source.start src;
  Sim.run ~until:10. sim;
  Alcotest.(check int) "no packets" 0 (Source.emitted src)

let test_source_interarrival_exponential () =
  let sim = Sim.create () in
  let rng = Rng.create 21 in
  let pool = Packet.Pool.create () in
  let times = ref [] in
  let src =
    Source.create ~sim ~rng ~pool ~conn:0 ~rate:2.
      ~emit:(fun p -> times := Sim.now sim :: !times; Packet.Pool.free pool p) ()
  in
  Source.start src;
  Sim.run ~until:5000. sim;
  let ts = Array.of_list (List.rev !times) in
  let gaps = Array.init (Array.length ts - 1) (fun i -> ts.(i + 1) -. ts.(i)) in
  check_float ~tol:0.02 "mean gap 1/rate" 0.5 (Stats.mean gaps);
  (* Exponential: sd = mean. *)
  check_float ~tol:0.03 "sd of gaps = mean" 0.5 (Stats.stddev gaps)

(* ------------------------------------------------------------------ *)
(* Server against M/M/1 theory                                         *)
(* ------------------------------------------------------------------ *)

let run_single_gateway ~discipline ~rates ~mu ~seed ~horizon =
  let net = Topologies.single ~mu ~n:(Array.length rates) () in
  Netsim.run ~net ~rates ~discipline ~seed ~horizon ()

let test_mm1_occupancy () =
  (* Single connection, rho = 0.5: E[N] = 1. *)
  let r = run_single_gateway ~discipline:Netsim.Fifo ~rates:[| 0.5 |] ~mu:1. ~seed:42
      ~horizon:200_000. in
  check_float ~tol:0.05 "M/M/1 mean occupancy" 1. (Netsim.mean_queue r ~gw:0 ~conn:0)

let test_mm1_sojourn () =
  let r = run_single_gateway ~discipline:Netsim.Fifo ~rates:[| 0.5 |] ~mu:1. ~seed:43
      ~horizon:200_000. in
  (* E[T] = 1/(mu - lambda) = 2. *)
  check_float ~tol:0.1 "M/M/1 sojourn" 2. (Netsim.delay_mean r ~conn:0)

let test_mm1_throughput () =
  let r = run_single_gateway ~discipline:Netsim.Fifo ~rates:[| 0.5 |] ~mu:1. ~seed:44
      ~horizon:100_000. in
  check_float ~tol:0.02 "delivered = offered" 0.5 (Netsim.throughput r ~conn:0)

let test_fifo_two_connections () =
  let rates = [| 0.25; 0.5 |] and mu = 1. in
  let r = run_single_gateway ~discipline:Netsim.Fifo ~rates ~mu ~seed:45 ~horizon:200_000. in
  let expected = Fifo.queue_lengths ~mu rates in
  check_float ~tol:0.08 "conn0 queue" expected.(0) (Netsim.mean_queue r ~gw:0 ~conn:0);
  check_float ~tol:0.12 "conn1 queue" expected.(1) (Netsim.mean_queue r ~gw:0 ~conn:1)

let test_fs_two_connections () =
  let rates = [| 0.2; 0.6 |] and mu = 1. in
  let r = run_single_gateway ~discipline:Netsim.Fs_priority ~rates ~mu ~seed:46
      ~horizon:200_000. in
  let expected = Fair_share.queue_lengths ~mu rates in
  check_float ~tol:0.05 "slow conn queue (FS)" expected.(0) (Netsim.mean_queue r ~gw:0 ~conn:0);
  check_float ~tol:0.25 "fast conn queue (FS)" expected.(1) (Netsim.mean_queue r ~gw:0 ~conn:1)

let test_fs_isolation_in_simulation () =
  (* The overload isolation of Theorem 5, observed packet-by-packet: the
     slow connection's queue stays near its analytic value even though the
     fast connection saturates the gateway. *)
  let rates = [| 0.1; 1.4 |] and mu = 1. in
  let r = run_single_gateway ~discipline:Netsim.Fs_priority ~rates ~mu ~seed:47
      ~horizon:100_000. in
  let expected_slow = Mm1.g 0.2 /. 2. in
  check_float ~tol:0.05 "slow queue isolated under overload" expected_slow
    (Netsim.mean_queue r ~gw:0 ~conn:0);
  (* Slow connection still delivers its full offered load. *)
  check_float ~tol:0.01 "slow throughput preserved" 0.1 (Netsim.throughput r ~conn:0)

let test_fifo_no_isolation_in_simulation () =
  (* Same overload under FIFO: the slow connection's queue grows without
     bound (far beyond its subcritical value). *)
  let rates = [| 0.1; 1.4 |] and mu = 1. in
  let r = run_single_gateway ~discipline:Netsim.Fifo ~rates ~mu ~seed:48 ~horizon:20_000. in
  check_true "slow queue blows up under FIFO"
    (Netsim.mean_queue r ~gw:0 ~conn:0 > 10.)

let test_fq_fairness () =
  (* Fair queueing approximates FS: under overload by the fast connection
     the slow one still gets its throughput. *)
  let rates = [| 0.1; 1.4 |] and mu = 1. in
  let r = run_single_gateway ~discipline:Netsim.Fair_queueing ~rates ~mu ~seed:49
      ~horizon:50_000. in
  check_float ~tol:0.02 "slow throughput preserved under FQ" 0.1
    (Netsim.throughput r ~conn:0)

let test_two_hop_network () =
  (* Tandem M/M/1 queues: each hop behaves as an independent M/M/1 (Burke:
     Poisson output), so per-hop occupancy matches g(rho) at both. *)
  let net = Topologies.chain ~mu:1. ~hops:2 ~conns:1 () in
  let r = Netsim.run ~net ~rates:[| 0.5 |] ~discipline:Netsim.Fifo ~seed:50
      ~horizon:100_000. () in
  check_float ~tol:0.08 "hop 0 occupancy" 1. (Netsim.mean_queue r ~gw:0 ~conn:0);
  check_float ~tol:0.08 "hop 1 occupancy" 1. (Netsim.mean_queue r ~gw:1 ~conn:0)

let test_latency_adds_to_delay () =
  let net = Topologies.single ~mu:1. ~latency:3. ~n:1 () in
  let r = Netsim.run ~net ~rates:[| 0.5 |] ~discipline:Netsim.Fifo ~seed:51
      ~horizon:100_000. () in
  (* Sojourn 2 plus line latency 3. *)
  check_float ~tol:0.1 "delay includes latency" 5. (Netsim.delay_mean r ~conn:0)

let test_determinism () =
  let run () =
    let r = run_single_gateway ~discipline:Netsim.Fifo ~rates:[| 0.4 |] ~mu:1. ~seed:52
        ~horizon:5_000. in
    Netsim.mean_queue r ~gw:0 ~conn:0
  in
  check_float "same seed, same result" (run ()) (run ())

let test_seed_sensitivity () =
  let run seed =
    let r = run_single_gateway ~discipline:Netsim.Fifo ~rates:[| 0.4 |] ~mu:1. ~seed
        ~horizon:5_000. in
    Netsim.mean_queue r ~gw:0 ~conn:0
  in
  check_false "different seeds differ" (run 1 = run 2)

let test_netsim_validation () =
  let net = Topologies.single ~n:1 () in
  check_true "rate length mismatch rejected"
    (try
       ignore (Netsim.run ~net ~rates:[| 1.; 2. |] ~discipline:Netsim.Fifo ~seed:1
                 ~horizon:10. ());
       false
     with Invalid_argument _ -> true);
  check_true "bad horizon rejected"
    (try
       ignore (Netsim.run ~net ~rates:[| 1. |] ~discipline:Netsim.Fifo ~seed:1
                 ~warmup:10. ~horizon:5. ());
       false
     with Invalid_argument _ -> true)

let test_littles_law_in_simulation () =
  (* L = lambda * W per connection: the time-average queue equals the
     delivered rate times the mean sojourn (single FIFO gateway, so the
     end-to-end delay is exactly the sojourn). *)
  let rates = [| 0.2; 0.4 |] and mu = 1. in
  let r = run_single_gateway ~discipline:Netsim.Fifo ~rates ~mu ~seed:61
      ~horizon:100_000. in
  Array.iteri
    (fun i _ ->
      let l = Netsim.mean_queue r ~gw:0 ~conn:i in
      let lam = Netsim.throughput r ~conn:i in
      let w = Netsim.delay_mean r ~conn:i in
      check_float_rel ~tol:0.03 (Printf.sprintf "L = lambda W (conn %d)" i) (lam *. w) l)
    rates

let prop_work_conservation_sim =
  (* Total occupancy is discipline independent (conservation): FIFO and FS
     agree on the total queue within simulation noise. *)
  prop "simulated total queue is discipline-independent" ~count:5
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let rates = [| 0.2; 0.4 |] and mu = 1. in
      let total d =
        let r = run_single_gateway ~discipline:d ~rates ~mu ~seed ~horizon:50_000. in
        Netsim.total_mean_queue r ~gw:0
      in
      let fifo = total Netsim.Fifo and fs = total Netsim.Fs_priority in
      Float.abs (fifo -. fs) <= 0.25 *. Float.max 1. fifo)

(* ------------------------------------------------------------------ *)
(* Timing wheel vs. reference heap                                     *)
(* ------------------------------------------------------------------ *)

let test_wheel_ties_fifo () =
  let w = Timing_wheel.create ~tick:1. () in
  for i = 1 to 3 do
    Timing_wheel.schedule w ~time:5. ~handler:i ~a:0 ~b:0
  done;
  let order =
    List.init 3 (fun _ ->
        check_true "pop succeeds" (Timing_wheel.pop w);
        Timing_wheel.popped_handler w)
  in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3 ] order

let test_wheel_overflow_far_future () =
  (* With tick = 1 the three levels cover 2^24 ticks; these events span
     nine decades, so most start in the overflow heap and must cascade
     back through every level before popping — still in time order. *)
  let w = Timing_wheel.create ~tick:1. () in
  let times = [ 0.5; 3.; 260.; 70_000.; 2e7; 5e8; 1e9; 1e9 +. 1. ] in
  List.iteri (fun i t -> Timing_wheel.schedule w ~time:t ~handler:i ~a:0 ~b:0) times;
  let popped =
    List.map
      (fun _ ->
        check_true "pop succeeds" (Timing_wheel.pop w);
        Timing_wheel.popped_time w)
      times
  in
  Alcotest.(check (list (float 0.))) "far-future events pop sorted"
    (List.sort compare times) popped;
  Alcotest.(check int) "wheel drained" 0 (Timing_wheel.size w)

let test_wheel_validation () =
  check_true "non-positive tick rejected"
    (try ignore (Timing_wheel.create ~tick:0. ()); false
     with Invalid_argument _ -> true);
  let w = Timing_wheel.create ~tick:1. () in
  Alcotest.check_raises "time beyond range"
    (Invalid_argument "Timing_wheel.schedule: time beyond wheel range for tick width")
    (fun () -> Timing_wheel.schedule w ~time:1.3e18 ~handler:0 ~a:0 ~b:0);
  Alcotest.check_raises "nan time"
    (Invalid_argument "Timing_wheel.schedule: time must be finite and non-negative")
    (fun () -> Timing_wheel.schedule w ~time:Float.nan ~handler:0 ~a:0 ~b:0)

let test_wheel_next_time () =
  let w = Timing_wheel.create ~tick:0.5 () in
  check_float "empty wheel" Float.infinity (Timing_wheel.next_time w);
  Timing_wheel.schedule w ~time:42. ~handler:0 ~a:0 ~b:0;
  Timing_wheel.schedule w ~time:7. ~handler:0 ~a:0 ~b:0;
  check_float "earliest pending" 7. (Timing_wheel.next_time w);
  ignore (Timing_wheel.pop w);
  check_float "after pop" 42. (Timing_wheel.next_time w)

let prop_wheel_matches_heap =
  (* On randomized schedules — ties, cascades, overflow hops,
     interleaved pops — the wheel pops the exact (time, sequence) order
     of the reference heap. *)
  prop "wheel pops identically to reference heap" ~count:60
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 0 2))
    (fun (seed, tick_sel) ->
      let tick = [| 1.0; 0.015625; 37.5 |].(tick_sel) in
      let heap = Event_heap.create () in
      let wheel = Timing_wheel.create ~tick () in
      let rng = Rng.create (seed + 1) in
      let now = ref 0. in
      let ok = ref true in
      let pop_both () =
        let wp = Timing_wheel.pop wheel in
        match Event_heap.pop_min heap with
        | None -> if wp then ok := false
        | Some (time, (handler, a)) ->
          if
            not
              (wp
              && time = Timing_wheel.popped_time wheel
              && handler = Timing_wheel.popped_handler wheel
              && a = Timing_wheel.popped_a wheel)
          then ok := false;
          now := time
      in
      let n = ref 0 in
      for step = 1 to 400 do
        if !ok then
          if Rng.uniform rng < 0.65 then begin
            (* Times at/after the popped clock: a tick-grid draw forces
               ties, the mid range exercises cascades, the far range the
               overflow heap. *)
            let v = Rng.uniform rng in
            let dt =
              if v < 0.3 then float_of_int (Rng.int rng 4) *. tick
              else if v < 0.85 then Rng.uniform rng *. 30. *. tick
              else Rng.uniform rng *. 3e7 *. tick
            in
            let time = !now +. dt in
            incr n;
            Event_heap.push heap ~time (step, !n);
            Timing_wheel.schedule wheel ~time ~handler:step ~a:!n ~b:0
          end
          else pop_both ()
      done;
      while !ok && Event_heap.size heap > 0 do
        pop_both ()
      done;
      !ok && Timing_wheel.size wheel = 0)

(* ------------------------------------------------------------------ *)
(* Packet pool                                                         *)
(* ------------------------------------------------------------------ *)

let test_pool_recycling () =
  let p = Packet.Pool.create ~initial:16 () in
  let a = Packet.Pool.alloc p ~conn:3 ~born:1.5 in
  Alcotest.(check int) "conn stored" 3 (Packet.Pool.conn p a);
  check_float "born stored" 1.5 (Packet.Pool.born p a);
  Packet.Pool.free p a;
  let b = Packet.Pool.alloc p ~conn:4 ~born:2. in
  Alcotest.(check int) "freed slot recycled" a b;
  Alcotest.(check int) "fresh conn" 4 (Packet.Pool.conn p b);
  Alcotest.(check int) "recycled fields reset" 0 (Packet.Pool.klass p b);
  Alcotest.(check int) "one live" 1 (Packet.Pool.live p);
  Alcotest.(check int) "two allocations total" 2 (Packet.Pool.allocated p)

let test_pool_growth () =
  let p = Packet.Pool.create ~initial:16 () in
  let ids = List.init 100 (fun i -> Packet.Pool.alloc p ~conn:i ~born:0.) in
  check_true "capacity grew" (Packet.Pool.capacity p >= 100);
  Alcotest.(check int) "all live" 100 (Packet.Pool.live p);
  let distinct = List.sort_uniq compare ids in
  Alcotest.(check int) "ids distinct" 100 (List.length distinct);
  List.iteri
    (fun i id -> Alcotest.(check int) "payload survives growth" i (Packet.Pool.conn p id))
    ids

let test_pool_exhaustion () =
  let p = Packet.Pool.create ~initial:4 ~max_packets:8 () in
  for i = 0 to 7 do
    ignore (Packet.Pool.alloc p ~conn:i ~born:0.)
  done;
  Alcotest.check_raises "exhaustion names the limit"
    (Failure "Packet.Pool.alloc: pool exhausted (8 packets in flight, max_packets=8)")
    (fun () -> ignore (Packet.Pool.alloc p ~conn:9 ~born:0.))

let test_pool_no_reuse_while_live () =
  let p = Packet.Pool.create ~initial:16 () in
  let module S = Set.Make (Int) in
  let live = ref S.empty in
  let rng = Rng.create 77 in
  for _ = 1 to 2_000 do
    if Rng.uniform rng < 0.6 || S.is_empty !live then begin
      let id = Packet.Pool.alloc p ~conn:0 ~born:0. in
      check_false "allocated id not already in flight" (S.mem id !live);
      live := S.add id !live
    end
    else begin
      let victim = S.choose !live in
      Packet.Pool.free p victim;
      live := S.remove victim !live
    end
  done;
  Alcotest.(check int) "live counter tracks set" (S.cardinal !live) (Packet.Pool.live p)

let test_pool_double_free () =
  let p = Packet.Pool.create ~initial:16 () in
  let a = Packet.Pool.alloc p ~conn:0 ~born:0. in
  Packet.Pool.free p a;
  Alcotest.check_raises "double free detected"
    (Invalid_argument
       (Printf.sprintf "Packet.Pool.free: packet %d is not in flight (double free?)" a))
    (fun () -> Packet.Pool.free p a);
  check_false "never-allocated id is not live" (Packet.Pool.is_live p 9)

(* ------------------------------------------------------------------ *)
(* Sharded simulation: byte-identical at any shards/jobs              *)
(* ------------------------------------------------------------------ *)

let fingerprint net r =
  let n = Network.num_connections net in
  let gws = Network.num_gateways net in
  let f =
    List.concat
      [
        List.concat
          (List.init gws (fun a ->
               List.init n (fun i -> Netsim.mean_queue r ~gw:a ~conn:i)));
        List.init n (fun i -> Netsim.delay_mean r ~conn:i);
        List.init n (fun i -> Netsim.delay_ci95 r ~conn:i);
        List.init n (fun i -> Netsim.throughput r ~conn:i);
        List.init n (fun i -> float_of_int (Netsim.deliveries r ~conn:i));
        List.init n (fun i -> float_of_int (Netsim.drops r ~conn:i));
      ]
  in
  (f, Netsim.events r)

let shard_net () = Topologies.multi_parking_lot ~mu:1. ~latency:0.1 ~lots:6 ~hops:2 ()

let shard_rates net =
  Array.init (Network.num_connections net) (fun i ->
      0.15 +. (0.03 *. float_of_int (i mod 5)))

let test_shard_invariance () =
  let net = shard_net () in
  let rates = shard_rates net in
  let run ~shards ~jobs =
    fingerprint net
      (Netsim.run ~net ~rates ~discipline:Netsim.Fs_priority ~seed:91 ~shards ~jobs
         ~horizon:2_000. ())
  in
  let base = run ~shards:1 ~jobs:1 in
  check_true "baseline delivers" (List.exists (fun x -> x > 0.) (fst base));
  List.iter
    (fun (shards, jobs) ->
      check_true
        (Printf.sprintf "shards=%d jobs=%d bitwise-identical" shards jobs)
        (run ~shards ~jobs = base))
    [ (2, 1); (3, 2); (6, 4); (17, 4) ]

let test_shard_invariance_with_drops () =
  (* Overload + finite buffers: the on-drop path must shard identically
     too. *)
  let net = shard_net () in
  let rates =
    Array.init (Network.num_connections net) (fun i ->
        if i mod 3 = 0 then 1.4 else 0.2)
  in
  let run ~shards ~jobs =
    fingerprint net
      (Netsim.run ~net ~rates ~discipline:Netsim.Fifo ~seed:92 ~shards ~jobs
         ~buffer_limit:8 ~horizon:1_000. ())
  in
  let base = run ~shards:1 ~jobs:1 in
  let _, events = base in
  check_true "events counted" (events > 0);
  check_true "drops occurred"
    (let r =
       Netsim.run ~net ~rates ~discipline:Netsim.Fifo ~seed:92 ~buffer_limit:8
         ~horizon:1_000. ()
     in
     List.exists
       (fun i -> Netsim.drops r ~conn:i > 0)
       (List.init (Network.num_connections net) Fun.id));
  check_true "dropful run bitwise-identical across shards" (run ~shards:6 ~jobs:3 = base)

let test_components_counted () =
  let net = shard_net () in
  let r =
    Netsim.run ~net ~rates:(shard_rates net) ~discipline:Netsim.Fifo ~seed:94
      ~horizon:50. ()
  in
  Alcotest.(check int) "six disjoint lots" 6 (Netsim.components r);
  let single = Topologies.single ~n:3 () in
  let r1 =
    Netsim.run ~net:single ~rates:[| 0.1; 0.1; 0.1 |] ~discipline:Netsim.Fifo ~seed:94
      ~horizon:50. ()
  in
  Alcotest.(check int) "one shared gateway" 1 (Netsim.components r1)

let test_shard_trace_invariance () =
  (* The satellite regression: traced runs are byte-identical whatever
     the shard and jobs counts. *)
  let open Ffc_obs in
  let net = shard_net () in
  let rates = shard_rates net in
  let trace ~shards ~jobs =
    let sink = Sink.buffer () in
    let ctx = Ctx.make ~sink ~stride:20 () in
    ignore
      (Ctx.with_ctx ctx (fun () ->
           Netsim.run ~net ~rates ~discipline:Netsim.Fs_priority ~seed:95 ~shards ~jobs
             ~horizon:500. ()));
    Sink.contents sink
  in
  let a = trace ~shards:1 ~jobs:1 in
  check_true "trace non-empty" (String.length a > 0);
  Alcotest.(check string) "trace identical at shards=4 jobs=3" a (trace ~shards:4 ~jobs:3);
  Alcotest.(check string) "trace identical at shards=6 jobs=1" a (trace ~shards:6 ~jobs:1)

(* ------------------------------------------------------------------ *)
(* Golden sample paths                                                 *)
(* ------------------------------------------------------------------ *)

(* Digests of whole-run fingerprints (every occupancy, delay and
   confidence bit, deliveries, drops, events), recorded before Netsim
   and the closed loops were moved onto one shared packet path.  Any
   change to a draw, to event order or to the warm-up window moves
   them. *)
let netsim_digest net r =
  let floats, events = fingerprint net r in
  bits_digest ~ints:[ events ] floats

let test_golden_fifo_buffer () =
  let net = shard_net () in
  let rates =
    Array.init (Network.num_connections net) (fun i -> if i mod 3 = 0 then 1.4 else 0.2)
  in
  let r =
    Netsim.run ~net ~rates ~discipline:Netsim.Fifo ~seed:92 ~buffer_limit:8
      ~horizon:1_000. ()
  in
  Alcotest.(check string) "FIFO drop-tail digest" "7f5f80df90c138ee1208916caf2ae19a"
    (netsim_digest net r)

let test_golden_fair_share () =
  let net = shard_net () in
  let r =
    Netsim.run ~net ~rates:(shard_rates net) ~discipline:Netsim.Fs_priority ~seed:91
      ~horizon:2_000. ()
  in
  Alcotest.(check string) "FS digest" "f3ff204b9bdfbbb46277012eca1ae6a7"
    (netsim_digest net r)

let test_golden_fair_queueing () =
  let net = shard_net () in
  let r =
    Netsim.run ~net ~rates:(shard_rates net) ~discipline:Netsim.Fair_queueing ~seed:93
      ~shards:3 ~horizon:1_500. ()
  in
  Alcotest.(check string) "FQ digest" "5649c3bcf362538d151214a5c22c79c8"
    (netsim_digest net r)

let test_golden_trace () =
  let open Ffc_obs in
  let net = shard_net () in
  let sink = Sink.buffer () in
  let ctx = Ctx.make ~sink ~stride:20 () in
  ignore
    (Ctx.with_ctx ctx (fun () ->
         Netsim.run ~net ~rates:(shard_rates net) ~discipline:Netsim.Fs_priority ~seed:95
           ~horizon:500. ()));
  Alcotest.(check string) "FS trace digest" "97827344ce08477d0592343f8e2e378d"
    (Digest.to_hex (Digest.string (Sink.contents sink)))

let suites =
  [
    ( "desim.event_heap",
      [
        case "ordering" test_heap_ordering;
        case "fifo on ties" test_heap_fifo_ties;
        case "interleaved" test_heap_interleaved;
        case "non-finite rejected" test_heap_nonfinite_rejected;
        case "large random" test_heap_large_random;
        case "popped payloads collectable" test_heap_popped_payloads_collectable;
        case "shrinks when quarter full" test_heap_shrinks_when_quarter_full;
      ] );
    ( "desim.sim",
      [
        case "ordering" test_sim_ordering;
        case "cascading" test_sim_cascading;
        case "run until" test_sim_until;
        case "past rejected" test_sim_past_rejected;
      ] );
    ( "desim.measure",
      [
        case "occupancy" test_measure_occupancy;
        case "reset" test_measure_reset;
        case "negative occupancy" test_measure_negative_occupancy;
        case "delays" test_measure_delays;
        case "deliveries" test_measure_deliveries;
      ] );
    ( "desim.source",
      [
        case "rate" test_source_rate;
        case "zero rate" test_source_zero_rate;
        case "exponential gaps" test_source_interarrival_exponential;
      ] );
    ( "desim.netsim",
      [
        case "M/M/1 occupancy" test_mm1_occupancy;
        case "M/M/1 sojourn" test_mm1_sojourn;
        case "M/M/1 throughput" test_mm1_throughput;
        case "FIFO two connections" test_fifo_two_connections;
        case "FS two connections" test_fs_two_connections;
        case "FS isolation under overload" test_fs_isolation_in_simulation;
        case "FIFO lacks isolation" test_fifo_no_isolation_in_simulation;
        case "FQ preserves slow throughput" test_fq_fairness;
        case "two-hop tandem" test_two_hop_network;
        case "latency in delay" test_latency_adds_to_delay;
        case "determinism" test_determinism;
        case "seed sensitivity" test_seed_sensitivity;
        case "input validation" test_netsim_validation;
        case "Little law in simulation" test_littles_law_in_simulation;
        prop_work_conservation_sim;
      ] );
    ( "desim.timing_wheel",
      [
        case "ties pop in insertion order" test_wheel_ties_fifo;
        case "overflow far future" test_wheel_overflow_far_future;
        case "validation" test_wheel_validation;
        case "next_time" test_wheel_next_time;
        prop_wheel_matches_heap;
      ] );
    ( "desim.packet_pool",
      [
        case "free-list recycling" test_pool_recycling;
        case "growth" test_pool_growth;
        case "exhaustion" test_pool_exhaustion;
        case "no id reuse while live" test_pool_no_reuse_while_live;
        case "double free" test_pool_double_free;
      ] );
    ( "desim.shards",
      [
        case "stats bitwise-identical across shards/jobs" test_shard_invariance;
        case "drop path shard-invariant" test_shard_invariance_with_drops;
        case "component discovery" test_components_counted;
        case "traces byte-identical across shards" test_shard_trace_invariance;
      ] );
    ( "desim.golden",
      [
        case "FIFO with buffer limit" test_golden_fifo_buffer;
        case "Fair Share" test_golden_fair_share;
        case "fair queueing" test_golden_fair_queueing;
        case "Fair Share trace" test_golden_trace;
      ] );
  ]
