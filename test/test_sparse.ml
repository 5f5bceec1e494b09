(* The sparse structure-aware Jacobian machinery: CSR matrices and the
   zero-dimension contract, the Sherman-Morrison rank-1 solve, the
   route-incidence pattern and its probe groups, grouped finite
   differences against the dense path (bit for bit, at every jobs
   count), incremental churn updates against from-scratch rebuilds, the
   finite-difference domain-guard regression, and warm-cache replay of
   the new tiers. *)

open Ffc_numerics
open Ffc_topology
open Ffc_core
open Test_util

let bits = Int64.bits_of_float

let check_bits_vec msg (a : Vec.t) (b : Vec.t) =
  if Array.length a <> Array.length b then
    Alcotest.failf "%s: dimension mismatch %d vs %d" msg (Array.length a)
      (Array.length b);
  Array.iteri
    (fun i x ->
      if bits x <> bits b.(i) then
        Alcotest.failf "%s: component %d: %h vs %h" msg i x b.(i))
    a

let check_bits_mat msg (a : Mat.t) (b : Mat.t) =
  check_bits_vec msg (Mat.to_flat a) (Mat.to_flat b)

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Mat.Sparse                                                          *)
(* ------------------------------------------------------------------ *)

let sample_csr () =
  (* [[1 0 2]; [0 0 0]; [0 3 0]] *)
  Mat.Sparse.create ~rows:3 ~cols:3 ~row_ptr:[| 0; 2; 2; 3 |]
    ~col_idx:[| 0; 2; 1 |] ~values:[| 1.; 2.; 3. |]

let test_sparse_create_validation () =
  let ok = sample_csr () in
  check_true "valid assembly" (Mat.Sparse.nnz ok = 3);
  check_true "row_ptr length"
    (raises_invalid (fun () ->
         Mat.Sparse.create ~rows:3 ~cols:3 ~row_ptr:[| 0; 2; 3 |]
           ~col_idx:[| 0; 2; 1 |] ~values:[| 1.; 2.; 3. |]));
  check_true "row_ptr decreasing"
    (raises_invalid (fun () ->
         Mat.Sparse.create ~rows:3 ~cols:3 ~row_ptr:[| 0; 2; 1; 3 |]
           ~col_idx:[| 0; 2; 1 |] ~values:[| 1.; 2.; 3. |]));
  check_true "row_ptr end mismatch"
    (raises_invalid (fun () ->
         Mat.Sparse.create ~rows:3 ~cols:3 ~row_ptr:[| 0; 2; 2; 2 |]
           ~col_idx:[| 0; 2; 1 |] ~values:[| 1.; 2.; 3. |]));
  check_true "column out of range"
    (raises_invalid (fun () ->
         Mat.Sparse.create ~rows:3 ~cols:3 ~row_ptr:[| 0; 2; 2; 3 |]
           ~col_idx:[| 0; 3; 1 |] ~values:[| 1.; 2.; 3. |]));
  check_true "columns not strictly increasing in a row"
    (raises_invalid (fun () ->
         Mat.Sparse.create ~rows:3 ~cols:3 ~row_ptr:[| 0; 2; 2; 3 |]
           ~col_idx:[| 2; 2; 1 |] ~values:[| 1.; 2.; 3. |]));
  check_true "negative dimensions"
    (raises_invalid (fun () ->
         Mat.Sparse.create ~rows:(-1) ~cols:3 ~row_ptr:[| 0 |] ~col_idx:[||]
           ~values:[||]))

let test_sparse_accessors () =
  let s = sample_csr () in
  check_float "stored entry" 2. (Mat.Sparse.get s 0 2);
  check_float "off-pattern entry reads 0" 0. (Mat.Sparse.get s 1 1);
  let seen = ref [] in
  Mat.Sparse.iter_row s 0 (fun j v -> seen := (j, v) :: !seen);
  Alcotest.(check (list (pair int (float 0.))))
    "iter_row in column order" [ (0, 1.); (2, 2.) ] (List.rev !seen);
  check_vec "diagonal pads off-pattern with 0" [| 1.; 0.; 0. |]
    (Mat.Sparse.diagonal s);
  let d = Mat.Sparse.to_dense s in
  check_bits_mat "to_dense"
    (Mat.of_arrays [| [| 1.; 0.; 2. |]; [| 0.; 0.; 0. |]; [| 0.; 3.; 0. |] |])
    d;
  check_bits_vec "mul_vec matches dense"
    (Mat.mul_vec d [| 1.; 10.; 100. |])
    (Mat.Sparse.mul_vec s [| 1.; 10.; 100. |]);
  let c = Mat.Sparse.copy s in
  check_true "copy equal" (Mat.Sparse.equal s c);
  Mat.Sparse.set_existing c 2 1 7.;
  check_false "equal is value-sensitive" (Mat.Sparse.equal s c);
  check_float "set_existing wrote through" 7. (Mat.Sparse.get c 2 1);
  check_float "original untouched" 3. (Mat.Sparse.get s 2 1);
  check_true "set_existing outside pattern raises"
    (raises_invalid (fun () -> Mat.Sparse.set_existing c 1 1 5.))

let test_sparse_of_dense_pattern () =
  let d = Mat.of_arrays [| [| 1.; 4. |]; [| 5.; 6. |] |] in
  (* Bare of_dense keeps structural nonzeros only. *)
  let z = Mat.Sparse.of_dense (Mat.of_arrays [| [| 1.; 0. |]; [| 0.; 6. |] |]) in
  check_true "bare of_dense drops zeros" (Mat.Sparse.nnz z = 2);
  (* With a pattern, inside entries are stored even when 0 and outside
     entries are dropped. *)
  let p = Mat.Sparse.of_dense ~pattern:[| [| 0 |]; [| 0; 1 |] |] d in
  check_true "pattern taken verbatim" (Mat.Sparse.nnz p = 3);
  check_float "outside entry dropped" 0. (Mat.Sparse.get p 0 1);
  let q =
    Mat.Sparse.of_dense ~pattern:[| [| 0; 1 |]; [||] |]
      (Mat.of_arrays [| [| 0.; 0. |]; [| 5.; 6. |] |])
  in
  check_true "explicit zeros stored" (Mat.Sparse.nnz q = 2);
  check_float "masked row reads 0" 0. (Mat.Sparse.get q 1 0)

let test_zero_dim_contract () =
  let zero = Mat.of_arrays [||] in
  check_true "of_arrays [||] is 0x0" (Mat.rows zero = 0 && Mat.cols zero = 0);
  check_true "create 0 5" (Mat.cols (Mat.create 0 5) = 5);
  check_true "create 5 0" (Mat.rows (Mat.create 5 0) = 5);
  check_true "of_flat 0 rows"
    (Mat.cols (Mat.of_flat ~rows:0 ~cols:3 [||]) = 3);
  check_true "negative rows raise" (raises_invalid (fun () -> Mat.create (-1) 2));
  let s =
    Mat.Sparse.create ~rows:0 ~cols:0 ~row_ptr:[| 0 |] ~col_idx:[||] ~values:[||]
  in
  check_true "0x0 CSR" (Mat.Sparse.rows s = 0 && Mat.Sparse.nnz s = 0);
  let e = Mat.Sparse.of_dense (Mat.create 0 4) in
  check_true "of_dense on 0x4" (Mat.Sparse.cols e = 4);
  check_true "to_dense round-trips shape"
    (Mat.rows (Mat.Sparse.to_dense e) = 0 && Mat.cols (Mat.Sparse.to_dense e) = 4)

let test_solve_rank1 () =
  let rng = Rng.create 41 in
  for trial = 1 to 10 do
    let n = 2 + Rng.int rng 5 in
    (* Diagonally dominant base keeps both solves well conditioned. *)
    let a =
      Mat.init n n (fun i j ->
          (if i = j then 4. else 0.) +. Rng.range rng (-0.5) 0.5)
    in
    let u = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
    let v = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
    let b = Array.init n (fun _ -> Rng.range rng (-1.) 1.) in
    let perturbed =
      Mat.init n n (fun i j -> Mat.get a i j +. (u.(i) *. v.(j)))
    in
    match (Mat.solve_rank1 a ~u ~v b, Mat.solve perturbed b) with
    | Some x, Some y ->
      check_vec ~tol:1e-8
        (Printf.sprintf "trial %d: Sherman-Morrison = direct solve" trial)
        y x
    | _ -> Alcotest.failf "trial %d: both solves should succeed" trial
  done;
  (* Singular base matrix. *)
  check_true "singular base -> None"
    (Mat.solve_rank1 (Mat.create 2 2) ~u:[| 1.; 0. |] ~v:[| 1.; 0. |]
       [| 1.; 1. |]
    = None);
  (* Update that makes the system singular: 1 + v^T A^-1 u = 0. *)
  let id = Mat.init 2 2 (fun i j -> if i = j then 1. else 0.) in
  check_true "singular update -> None"
    (Mat.solve_rank1 id ~u:[| -1.; 0. |] ~v:[| 1.; 0. |] [| 1.; 1. |] = None)

(* ------------------------------------------------------------------ *)
(* Finite-difference domain guard (the bugfix)                         *)
(* ------------------------------------------------------------------ *)

let test_backward_guard_regression () =
  (* f(x) = sqrt x is defined only for x >= 0.  At x = 0 an unguarded
     Backward probe evaluates f(-h) = nan; the guard must fall back to a
     Forward probe, exactly as Central always has. *)
  let f v = Array.map sqrt v in
  let at = [| 0.; 0.25 |] in
  List.iter
    (fun (name, mode) ->
      let j = Jacobian.numeric ~mode f ~at in
      check_true (name ^ ": all entries finite")
        (Array.for_all Float.is_finite (Mat.to_flat j));
      check_float_rel ~tol:1e-5 (name ^ ": interior derivative intact") 1.
        (Mat.get j 1 1))
    [ ("backward", Jacobian.Backward); ("central", Jacobian.Central) ];
  (* End to end: a controller linearized at a point with a zero rate must
     produce a finite DF in every mode (rates are a non-negative domain;
     the r - h probe used to escape it). *)
  let n = 3 in
  let net = Topologies.single ~n () in
  let c =
    Controller.homogeneous ~config:Feedback.individual_fair_share
      ~adjuster:(Rate_adjust.additive ~eta:0.1 ~beta:0.5)
      ~n
  in
  let at = [| 0.; 0.1; 0.2 |] in
  List.iter
    (fun mode ->
      let df = Jacobian.of_controller ~mode c ~net ~at in
      check_true "controller DF finite at zero rate"
        (Array.for_all Float.is_finite (Mat.to_flat df)))
    [ Jacobian.Backward; Jacobian.Central; Jacobian.Forward ]

(* ------------------------------------------------------------------ *)
(* Route-incidence pattern                                             *)
(* ------------------------------------------------------------------ *)

let test_pattern_multi_parking_lot () =
  let lots = 3 and hops = 2 in
  let net = Topologies.multi_parking_lot ~lots ~hops () in
  let n = Network.num_connections net in
  check_true "connection count" (n = lots * (hops + 1));
  let p = Sparsity.of_network net in
  (* Per lot: the long flow couples to everyone (hops+1 entries); each
     cross flow couples to itself and the long flow (2 entries). *)
  check_true "nnz" (Sparsity.nnz p = lots * (hops + 1 + (2 * hops)));
  check_true "probe groups = hops + 1"
    (Array.length (Sparsity.groups p) = hops + 1);
  (* Grouped columns must have pairwise disjoint supports — the property
     that makes a shared probe alias-free. *)
  let support = Sparsity.supports p in
  Array.iter
    (fun group ->
      let seen = Array.make n false in
      Array.iter
        (fun j ->
          Array.iter
            (fun i ->
              check_false "support overlap inside a probe group" seen.(i);
              seen.(i) <- true)
            support.(j))
        group)
    (Sparsity.groups p);
  (* Every column appears in exactly one group. *)
  let count = Array.make n 0 in
  Array.iter
    (fun g -> Array.iter (fun j -> count.(j) <- count.(j) + 1) g)
    (Sparsity.groups p);
  check_true "groups partition the columns" (Array.for_all (( = ) 1) count)

let test_pattern_dense_fallback () =
  (* Every chain connection crosses every gateway: the pattern is full
     and the coloring must fall back to one column per group. *)
  let net = Topologies.chain ~hops:2 ~conns:6 () in
  let p = Sparsity.of_network net in
  check_true "chain pattern is full" (Sparsity.nnz p = 36);
  check_float "density 1" 1. (Sparsity.density p);
  check_true "fallback: singleton groups"
    (Array.length (Sparsity.groups p) = 6
    && Array.for_all (fun g -> Array.length g = 1) (Sparsity.groups p))

(* ------------------------------------------------------------------ *)
(* Grouped probing == dense probing, bit for bit                       *)
(* ------------------------------------------------------------------ *)

let churn_controller n =
  Controller.homogeneous ~config:Feedback.individual_fair_share
    ~adjuster:(Rate_adjust.additive ~eta:0.1 ~beta:0.5)
    ~n

let distinct_point n =
  let scale = 0.5 /. (float_of_int n *. float_of_int (n + 1) /. 2.) in
  Array.init n (fun i -> scale *. float_of_int (i + 1))

let fd_topologies =
  [
    ("chain", Topologies.chain ~hops:2 ~conns:6 ());
    ("star", Topologies.star ~legs:5 ());
    ("dumbbell", Topologies.dumbbell ~left:3 ~right:4 ());
    ("parking lot", Topologies.parking_lot ~hops:4 ());
    ("multi parking lot", Topologies.multi_parking_lot ~lots:3 ~hops:3 ());
  ]

let test_grouped_fd_bit_identical () =
  List.iter
    (fun (name, net) ->
      let n = Network.num_connections net in
      let c = churn_controller n in
      let at = distinct_point n in
      let pattern = Sparsity.of_network net in
      let f r = Controller.step c ~net r in
      List.iter
        (fun (mname, mode) ->
          List.iter
            (fun jobs ->
              let dense = Jacobian.numeric ~jobs ~mode f ~at in
              let sparse = Jacobian.numeric_sparse ~jobs ~mode f ~pattern ~at in
              check_bits_mat
                (Printf.sprintf "%s, %s, jobs=%d: sparse == dense" name mname
                   jobs)
                dense
                (Mat.Sparse.to_dense sparse))
            [ 1; 8 ])
        [
          ("central", Jacobian.Central);
          ("forward", Jacobian.Forward);
          ("backward", Jacobian.Backward);
        ];
      (* The cached controller entry points agree too (of_controller picks
         the sparse or dense path from the pattern's density). *)
      check_bits_mat
        (name ^ ": of_controller == of_controller_sparse")
        (Jacobian.of_controller c ~net ~at)
        (Mat.Sparse.to_dense (Jacobian.of_controller_sparse c ~net ~at)))
    fd_topologies

(* ------------------------------------------------------------------ *)
(* Incremental updates == from-scratch rebuilds                        *)
(* ------------------------------------------------------------------ *)

let test_update_flow_random_churn () =
  let net = Topologies.multi_parking_lot ~lots:4 ~hops:2 () in
  let n = Network.num_connections net in
  let c = churn_controller n in
  let rng = Rng.create 73 in
  let at = ref (distinct_point n) in
  let prev = ref (Jacobian.of_controller_sparse c ~net ~at:!at) in
  (* No-op churn first: same point, the update must return prev's bits. *)
  check_true "empty churn returns the same matrix"
    (Mat.Sparse.equal !prev
       (Jacobian.update_flow c ~net ~prev:!prev ~prev_at:!at ~at:!at));
  for step = 1 to 12 do
    (* Perturb 1-3 random coordinates, occasionally down to 0 (a leave). *)
    let next = Array.copy !at in
    for _ = 0 to Rng.int rng 3 do
      let j = Rng.int rng n in
      next.(j) <-
        (if Rng.int rng 5 = 0 then 0. else Rng.range rng 0.001 0.05)
    done;
    let upd = Jacobian.update_flow c ~net ~prev:!prev ~prev_at:!at ~at:next in
    let full = Jacobian.of_controller_sparse c ~net ~at:next in
    check_true
      (Printf.sprintf "step %d: update == rebuild, bit for bit" step)
      (Mat.Sparse.equal upd full);
    let upd8 =
      Jacobian.update_flow ~jobs:8 c ~net ~prev:!prev ~prev_at:!at ~at:next
    in
    check_true
      (Printf.sprintf "step %d: jobs=8 bit-identical" step)
      (Mat.Sparse.equal upd upd8);
    at := next;
    prev := upd
  done;
  (* A mismatched prev must be rejected, not silently patched. *)
  let other = Topologies.multi_parking_lot ~lots:2 ~hops:2 () in
  let m = Network.num_connections other in
  let bad = Jacobian.of_controller_sparse (churn_controller m) ~net:other
      ~at:(distinct_point m)
  in
  check_true "wrong-pattern prev raises"
    (raises_invalid (fun () ->
         Jacobian.update_flow c ~net ~prev:bad ~prev_at:(distinct_point m)
           ~at:!at))

let test_update_fair_random_churn () =
  let net = Topologies.multi_parking_lot ~lots:4 ~hops:2 () in
  let n = Network.num_connections net in
  let signal = Signal.linear_fractional and b_ss = 0.5 in
  (* All-true mask is the plain fair solve, bit for bit. *)
  let all = Array.make n true in
  check_bits_vec "all-true mask == fair"
    (Steady_state.fair ~signal ~b_ss ~net)
    (Steady_state.fair_masked ~signal ~b_ss ~net ~active:all);
  let rng = Rng.create 57 in
  let active = ref (Array.copy all) in
  let prev = ref (Steady_state.fair_masked ~signal ~b_ss ~net ~active:!active) in
  for step = 1 to 20 do
    let mask = Array.copy !active in
    let j = Rng.int rng n in
    mask.(j) <- not mask.(j);
    if Array.exists Fun.id mask then begin
      let inc =
        Steady_state.update_fair ~signal ~b_ss ~net ~prev:!prev
          ~prev_active:!active ~active:mask
      in
      let full = Steady_state.fair_masked ~signal ~b_ss ~net ~active:mask in
      check_bits_vec
        (Printf.sprintf "step %d: update_fair == fair_masked" step)
        full inc;
      check_true
        (Printf.sprintf "step %d: inactive rates are 0" step)
        (Array.for_all2 (fun a r -> a || r = 0.) mask inc);
      active := mask;
      prev := inc
    end
  done

(* ------------------------------------------------------------------ *)
(* Partial evaluation (the kernel behind the update's cost model)      *)
(* ------------------------------------------------------------------ *)

let test_map_rows_matches_step () =
  let net = Topologies.multi_parking_lot ~lots:3 ~hops:2 () in
  let n = Network.num_connections net in
  let c = churn_controller n in
  let rates = distinct_point n in
  let whole = Controller.step c ~net rates in
  let everything = Controller.map_rows c ~net ~rows:(Array.init n Fun.id) rates in
  check_bits_vec "all rows == step" whole everything;
  let rows = [| 0; 2; 5 |] in
  let partial = Controller.map_rows c ~net ~rows rates in
  Array.iteri
    (fun i v ->
      if Array.exists (( = ) i) rows then
        check_true
          (Printf.sprintf "row %d matches the full step" i)
          (bits v = bits whole.(i))
      else check_float (Printf.sprintf "row %d untouched" i) 0. v)
    partial

(* ------------------------------------------------------------------ *)
(* Sparse eigensolvers                                                 *)
(* ------------------------------------------------------------------ *)

let test_eigen_sparse () =
  (* A permuted triangular matrix: the CSR structural path must find the
     same order and diagonal as the dense one. *)
  let d =
    Mat.of_arrays
      [| [| 0.3; 0.; 0.9 |]; [| 0.4; 0.2; 0.7 |]; [| 0.; 0.; 0.5 |] |]
  in
  let s = Mat.Sparse.of_dense d in
  check_true "triangular order found" (Eigen.triangular_order_sparse s <> None);
  (match Eigen.structural_eigenvalues_sparse s with
  | None -> Alcotest.fail "structural diagonal expected"
  | Some diag ->
    let sorted = Array.copy diag in
    Array.sort Float.compare sorted;
    check_vec "structural diagonal" [| 0.2; 0.3; 0.5 |] sorted);
  check_float "sparse radius = dense radius" (Eigen.spectral_radius d)
    (Eigen.spectral_radius_sparse s);
  let moduli ev =
    let ms = Array.map Complex.norm ev in
    Array.sort Float.compare ms;
    ms
  in
  check_vec ~tol:1e-9 "sparse spectrum = dense spectrum"
    (moduli (Eigen.eigenvalues d))
    (moduli (Eigen.eigenvalues_sparse s));
  (* Power iteration with deflation: on diag(2, 1), deflating the
     dominant eigenvector must surface the second eigenvalue. *)
  let a = Mat.Sparse.of_dense (Mat.of_arrays [| [| 2.; 0. |]; [| 0.; 1. |] |]) in
  (match Eigen.power_iteration_sparse a with
  | None -> Alcotest.fail "power iteration should converge"
  | Some (lam, v) ->
    check_float ~tol:1e-7 "dominant eigenvalue" 2. lam;
    check_true "dominant eigenvector along e1"
      (Float.abs v.(0) > 0.99 && Float.abs v.(1) < 0.01);
    match Eigen.power_iteration_sparse ~deflate:v a with
    | None -> Alcotest.fail "deflated iteration should converge"
    | Some (lam2, _) ->
      check_float ~tol:1e-6 "deflated second eigenvalue" 1. lam2)

(* ------------------------------------------------------------------ *)
(* Warm-cache replay of the new tiers                                  *)
(* ------------------------------------------------------------------ *)

let test_cache_replay_new_tiers () =
  let open Ffc_cache in
  let dir = Filename.temp_dir "ffc-sparse-cache-test" "" in
  let c = Cache.create ~dir () in
  Fun.protect
    ~finally:(fun () ->
      Store.clear (Cache.store c);
      if Sys.file_exists dir then Sys.rmdir dir)
    (fun () ->
      let net = Topologies.multi_parking_lot ~lots:3 ~hops:2 () in
      let n = Network.num_connections net in
      let ctrl = churn_controller n in
      let signal = Signal.linear_fractional and b_ss = 0.5 in
      let at = distinct_point n in
      let at' = Array.copy at in
      at'.(0) <- at'.(0) *. 1.5;
      let active = Array.make n true in
      let mask = Array.copy active in
      mask.(1) <- false;
      let cold =
        Cache.with_cache c (fun () ->
            let sp = Jacobian.of_controller_sparse ctrl ~net ~at in
            let upd =
              Jacobian.update_flow ctrl ~net ~prev:sp ~prev_at:at ~at:at'
            in
            let ss = Steady_state.fair_masked ~signal ~b_ss ~net ~active in
            let inc =
              Steady_state.update_fair ~signal ~b_ss ~net ~prev:ss
                ~prev_active:active ~active:mask
            in
            let ev = Jacobian.eigenvalues_sparse sp in
            (sp, upd, ss, inc, ev))
      in
      Cache.reset c;
      let warm =
        Cache.with_cache c (fun () ->
            let sp = Jacobian.of_controller_sparse ctrl ~net ~at in
            let upd =
              Jacobian.update_flow ctrl ~net ~prev:sp ~prev_at:at ~at:at'
            in
            let ss = Steady_state.fair_masked ~signal ~b_ss ~net ~active in
            let inc =
              Steady_state.update_fair ~signal ~b_ss ~net ~prev:ss
                ~prev_active:active ~active:mask
            in
            let ev = Jacobian.eigenvalues_sparse sp in
            (sp, upd, ss, inc, ev))
      in
      let k = Cache.counters c in
      check_true "warm replay is all hits" (k.Cache.misses = 0 && k.Cache.hits > 0);
      let csp, cupd, css, cinc, cev = cold in
      let wsp, wupd, wss, winc, wev = warm in
      check_true "jac.sparse replay bit-identical" (Mat.Sparse.equal csp wsp);
      check_true "jac.update replay bit-identical" (Mat.Sparse.equal cupd wupd);
      check_bits_vec "steady.fair_masked replay" css wss;
      check_bits_vec "ss.update replay" cinc winc;
      check_true "eigen.spectrum.sparse replay"
        (Array.for_all2
           (fun a b ->
             bits a.Complex.re = bits b.Complex.re
             && bits a.Complex.im = bits b.Complex.im)
           cev wev))

let suites =
  [
    ( "numerics.sparse",
      [
        case "CSR create validation" test_sparse_create_validation;
        case "CSR accessors" test_sparse_accessors;
        case "of_dense with pattern" test_sparse_of_dense_pattern;
        case "zero-dimension contract" test_zero_dim_contract;
        case "Sherman-Morrison rank-1 solve" test_solve_rank1;
        case "sparse eigensolvers + deflation" test_eigen_sparse;
      ] );
    ( "core.sparse_jacobian",
      [
        case "backward guard regression (bugfix)" test_backward_guard_regression;
        case "multi-parking-lot pattern and groups" test_pattern_multi_parking_lot;
        case "dense-pattern fallback" test_pattern_dense_fallback;
        case "grouped FD == dense, bit for bit" test_grouped_fd_bit_identical;
        case "update_flow == rebuild under churn" test_update_flow_random_churn;
        case "update_fair == fair_masked under churn" test_update_fair_random_churn;
        case "map_rows matches step" test_map_rows_matches_step;
        case "warm-cache replay of new tiers" test_cache_replay_new_tiers;
      ] );
  ]
