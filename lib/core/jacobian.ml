open Ffc_numerics

type mode = Central | Forward | Backward

(* The flow-control map lives on r >= 0: any probe direction that would
   evaluate at a negative rate falls back to a forward difference.
   Central probes minus at [at - h]; an explicit Backward mode probes
   there too, so both need the guard — guarding only Central (as this
   code once did) let Backward requests differentiate through the
   domain boundary at near-zero rates. *)
let domain_mode mode ~at ~h j =
  match mode with
  | (Central | Backward) when at.(j) -. h.(j) < 0. -> Forward
  | m -> m

let step_sizes ~dx at = Array.map (fun x -> dx *. (1. +. Float.abs x)) at

let numeric ?jobs ?(dx = 1e-7) ?(mode = Central) f ~at =
  let n = Array.length at in
  let h = step_sizes ~dx at in
  let col_mode = Array.init n (domain_mode mode ~at ~h) in
  (* The shared base evaluation f(at) is forced once, before the fan-out,
     so the per-column closures only read it — no lazy cell is raced
     between domains. *)
  let base =
    if Array.exists (fun m -> m <> Central) col_mode then Some (f at) else None
  in
  let column j =
    let bump delta =
      let x = Array.copy at in
      x.(j) <- x.(j) +. delta;
      f x
    in
    let h = h.(j) in
    match col_mode.(j) with
    | Central ->
      let plus = bump h and minus = bump (-.h) in
      Array.init n (fun i -> (plus.(i) -. minus.(i)) /. (2. *. h))
    | Forward ->
      let plus = bump h and base = Option.get base in
      Array.init n (fun i -> (plus.(i) -. base.(i)) /. h)
    | Backward ->
      let minus = bump (-.h) and base = Option.get base in
      Array.init n (fun i -> (base.(i) -. minus.(i)) /. h)
  in
  (* Columns are independent and each is a deterministic function of
     (f, at, j), so fanning them out over the pool returns bit-identical
     matrices at every jobs count.  Small systems stay sequential: a
     domain spawn costs more than a handful of map evaluations. *)
  let jobs = Stdlib.min (Pool.effective_jobs ?jobs ()) (Stdlib.max 1 (n / 8)) in
  let cols = Pool.parallel_init ~jobs n column in
  Mat.init n n (fun i j -> cols.(j).(i))

(* Grouped (Curtis-Powell-Reid) probing: every group bundles columns
   with pairwise-disjoint supports, so one plus/minus probe pair serves
   the whole group — each used component f_i sees exactly one bumped
   coordinate, making the extracted differences bit-for-bit the
   lone-column ones.  [rows_of_col j] selects which rows of column j to
   extract (its full support for a fresh build, the churn-affected rows
   for an incremental update).  Groups are independent, so they fan out
   over the pool exactly as dense columns do — same bit-identity
   argument, now clamped on the group count. *)
let grouped_probes ?jobs ~f ~at ~h ~col_mode ~groups ~rows_of_col ~base () =
  let group_values g =
    let need_plus = Array.exists (fun j -> col_mode.(j) <> Backward) g in
    let need_minus = Array.exists (fun j -> col_mode.(j) <> Forward) g in
    let probe up =
      let x = Array.copy at in
      Array.iter
        (fun j ->
          match col_mode.(j) with
          | Central -> x.(j) <- (if up then x.(j) +. h.(j) else x.(j) -. h.(j))
          | Forward -> if up then x.(j) <- x.(j) +. h.(j)
          | Backward -> if not up then x.(j) <- x.(j) -. h.(j))
        g;
      f x
    in
    let plus = if need_plus then probe true else base in
    let minus = if need_minus then probe false else base in
    Array.map
      (fun j ->
        let h = h.(j) in
        match col_mode.(j) with
        | Central ->
          Array.map (fun i -> (plus.(i) -. minus.(i)) /. (2. *. h)) (rows_of_col j)
        | Forward ->
          Array.map (fun i -> (plus.(i) -. base.(i)) /. h) (rows_of_col j)
        | Backward ->
          Array.map (fun i -> (base.(i) -. minus.(i)) /. h) (rows_of_col j))
      g
  in
  let ngroups = Array.length groups in
  let jobs =
    Stdlib.min (Pool.effective_jobs ?jobs ()) (Stdlib.max 1 (ngroups / 8))
  in
  Pool.parallel_init ~jobs ngroups (fun gi -> group_values groups.(gi))

(* CSR skeleton of the symmetric route-incidence pattern: row i stores
   exactly the columns in supports.(i). *)
let csr_skeleton supports =
  let n = Array.length supports in
  let row_ptr = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i) + Array.length supports.(i)
  done;
  let col_idx = Array.make row_ptr.(n) 0 in
  for i = 0 to n - 1 do
    Array.blit supports.(i) 0 col_idx row_ptr.(i) (Array.length supports.(i))
  done;
  (row_ptr, col_idx)

(* Position of stored entry (i, j): binary search of j within row i's
   sorted support. *)
let entry_pos supports row_ptr i j =
  let s = supports.(i) in
  let lo = ref 0 and hi = ref (Array.length s - 1) in
  let p = ref (-1) in
  while !p < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if s.(mid) = j then p := mid else if s.(mid) < j then lo := mid + 1 else hi := mid - 1
  done;
  if !p < 0 then invalid_arg "Jacobian: entry outside the sparsity pattern";
  row_ptr.(i) + !p

let numeric_sparse ?jobs ?(dx = 1e-7) ?(mode = Central) f ~pattern ~at =
  let n = Array.length at in
  if Sparsity.size pattern <> n then
    invalid_arg "Jacobian.numeric_sparse: pattern size mismatch";
  let supports = Sparsity.supports pattern in
  let row_ptr, col_idx = csr_skeleton supports in
  let h = step_sizes ~dx at in
  let col_mode = Array.init n (domain_mode mode ~at ~h) in
  let base = f at in
  let gvals =
    grouped_probes ?jobs ~f ~at ~h ~col_mode ~groups:(Sparsity.groups pattern)
      ~rows_of_col:(fun j -> supports.(j))
      ~base ()
  in
  let values = Array.make row_ptr.(n) 0. in
  Array.iteri
    (fun gi g ->
      Array.iteri
        (fun k j ->
          Array.iteri
            (fun m i -> values.(entry_pos supports row_ptr i j) <- gvals.(gi).(k).(m))
            supports.(j))
        g)
    (Sparsity.groups pattern);
  Mat.Sparse.create ~rows:n ~cols:n ~row_ptr ~col_idx ~values

let mode_name = function Central -> "central" | Forward -> "forward" | Backward -> "backward"

(* Past half density the CSR build stores more bookkeeping than it
   saves and the probe schedule is column-per-column anyway; the dense
   path is the honest one there. *)
let pattern_is_sparse p =
  let n = Sparsity.size p in
  2 * Sparsity.nnz p <= n * n

let controller_map controller ~net r = Controller.map controller ~net r

(* Structure-aware dense build: probe through the route-incidence
   pattern when it is genuinely sparse, densify the CSR result.
   Off-pattern finite differences are exactly +0.0 (the map component
   f_i reads only rates sharing a gateway with i, so uncoupled probes
   subtract to zero), and grouped probes are bit-for-bit lone-column
   ones, so this returns the very matrix the dense path builds —
   which is what lets both paths share one cache tier below. *)
let build_controller_df ?jobs ~dx ~mode controller ~net ~at =
  let p = Sparsity.of_network net in
  if pattern_is_sparse p then begin
    Ffc_obs.Ctx.incr_named "jac.build.sparse";
    Mat.Sparse.to_dense
      (numeric_sparse ?jobs ~dx ~mode (controller_map controller ~net) ~pattern:p ~at)
  end
  else begin
    Ffc_obs.Ctx.incr_named "jac.build.dense";
    numeric ?jobs ~dx ~mode (controller_map controller ~net) ~at
  end

let controller_key ~dx ~mode controller ~net ~at k =
  Ffc_cache.Key.float k dx;
  Ffc_cache.Key.str k (mode_name mode);
  Cache_key.add_config k (Controller.config controller);
  Cache_key.add_adjusters k (Controller.adjusters controller);
  Cache_key.add_network k net;
  Ffc_cache.Key.floats k at

(* Memoized (tier "jac.of_controller"): DF is a pure function of the
   controller design, the topology, the linearization point, the step
   and the mode.  [jobs] only shapes the fan-out — columns are
   bit-identical at every jobs count (see [numeric]) — so it is
   deliberately NOT part of the key: that is what makes cached results
   jobs-invariant.  The grouped sparse build returns the same bits as
   the dense probing path (see [build_controller_df]), so entries
   written by either remain valid for both. *)
let of_controller ?jobs ?(dx = 1e-7) ?(mode = Central) controller ~net ~at =
  Ffc_obs.Span.with_span "jac.of_controller" @@ fun () ->
  Ffc_cache.Cache.memo ~tier:"jac.of_controller"
    ~build:(controller_key ~dx ~mode controller ~net ~at)
    ~encode:(fun m -> Ffc_cache.Codec.(encode (fun b -> put_floats b (Mat.to_flat m))))
    ~decode:(fun r ->
      let flat = Ffc_cache.Codec.get_floats r in
      let n = Array.length at in
      if Array.length flat <> n * n then
        raise (Ffc_cache.Codec.Corrupt "Jacobian: flat size mismatch");
      Mat.of_flat ~rows:n ~cols:n flat)
    (fun () -> build_controller_df ?jobs ~dx ~mode controller ~net ~at)

let encode_sparse s =
  Ffc_cache.Codec.(
    encode (fun b ->
        let row_ptr, col_idx, values = Mat.Sparse.to_csr s in
        put_int b (Mat.Sparse.rows s);
        put_int b (Mat.Sparse.cols s);
        put_int b (Array.length col_idx);
        Array.iter (put_int b) row_ptr;
        Array.iter (put_int b) col_idx;
        put_floats b values))

let decode_sparse r =
  let rows = Ffc_cache.Codec.get_int r in
  let cols = Ffc_cache.Codec.get_int r in
  let nnz = Ffc_cache.Codec.get_int r in
  if rows < 0 || cols < 0 || nnz < 0 then
    raise (Ffc_cache.Codec.Corrupt "Jacobian: bad sparse dimensions");
  let row_ptr = Array.init (rows + 1) (fun _ -> Ffc_cache.Codec.get_int r) in
  let col_idx = Array.init nnz (fun _ -> Ffc_cache.Codec.get_int r) in
  let values = Ffc_cache.Codec.get_floats r in
  if Array.length values <> nnz then
    raise (Ffc_cache.Codec.Corrupt "Jacobian: sparse value count mismatch");
  try Mat.Sparse.create ~rows ~cols ~row_ptr ~col_idx ~values
  with Invalid_argument msg -> raise (Ffc_cache.Codec.Corrupt msg)

(* CSR-valued DF (tier "jac.sparse"), same key fields as the dense
   tier.  On a dense pattern the column-per-column probe runs and the
   result is masked onto the pattern — entries the mask drops are
   exactly +0.0, so nothing is lost. *)
let of_controller_sparse ?jobs ?(dx = 1e-7) ?(mode = Central) controller ~net ~at =
  Ffc_obs.Span.with_span "jac.sparse" @@ fun () ->
  Ffc_cache.Cache.memo ~tier:"jac.sparse"
    ~build:(controller_key ~dx ~mode controller ~net ~at)
    ~encode:encode_sparse ~decode:decode_sparse
    (fun () ->
      let p = Sparsity.of_network net in
      if pattern_is_sparse p then begin
        Ffc_obs.Ctx.incr_named "jac.build.sparse";
        numeric_sparse ?jobs ~dx ~mode (controller_map controller ~net) ~pattern:p ~at
      end
      else begin
        Ffc_obs.Ctx.incr_named "jac.build.dense";
        Mat.Sparse.of_dense ~pattern:(Sparsity.supports p)
          (numeric ?jobs ~dx ~mode (controller_map controller ~net) ~at)
      end)

(* Incremental rebuild after flow churn.  With [prev] = DF at
   [prev_at], only entries (i, j) whose row i is structurally coupled
   to a changed coordinate can differ at [at]: every value f_i reads is
   in support(i), so if no changed coordinate intersects support(i) —
   and column j's own rate and step are unchanged, which holds because
   changed columns are coupled to themselves — the finite difference
   reproduces the previous bits exactly.  Those rows R are re-probed
   through a coloring restricted to conflicts on R, and the probes
   evaluate only the touched sub-network ([Controller.map_rows]), so
   the cost scales with the churn-affected region, not the system.

   The patched matrix is therefore bit-for-bit [of_controller_sparse]
   at [at] — independent of [prev] — which is what makes it safe to
   memoize (tier "jac.update") on the destination point alone. *)
let update_flow ?jobs ?(dx = 1e-7) ?(mode = Central) controller ~net ~prev ~prev_at
    ~at =
  let n = Array.length at in
  if Array.length prev_at <> n then
    invalid_arg "Jacobian.update_flow: point size mismatch";
  if Mat.Sparse.rows prev <> n || Mat.Sparse.cols prev <> n then
    invalid_arg "Jacobian.update_flow: previous Jacobian size mismatch";
  Ffc_obs.Span.with_span "jac.update" @@ fun () ->
  Ffc_cache.Cache.memo ~tier:"jac.update"
    ~build:(controller_key ~dx ~mode controller ~net ~at)
    ~encode:encode_sparse ~decode:decode_sparse
    (fun () ->
      let p = Sparsity.of_network net in
      if Sparsity.nnz p <> Mat.Sparse.nnz prev then
        invalid_arg "Jacobian.update_flow: previous Jacobian pattern mismatch";
      let supports = Sparsity.supports p in
      let bits = Int64.bits_of_float in
      let changed = ref [] in
      for j = n - 1 downto 0 do
        if bits at.(j) <> bits prev_at.(j) then changed := j :: !changed
      done;
      match !changed with
      | [] -> Mat.Sparse.copy prev
      | changed ->
        Ffc_obs.Ctx.incr_named "jac.update.incremental";
        (* R: rows coupled to a changed coordinate. *)
        let rmask = Array.make n false in
        List.iter
          (fun c -> Array.iter (fun i -> rmask.(i) <- true) supports.(c))
          changed;
        let rows =
          Array.of_seq
            (Seq.filter (fun i -> rmask.(i)) (Seq.init n Fun.id))
        in
        (* C: columns with at least one stored entry in R, with the rows
           each column must refresh. *)
        let rows_of = Array.make n [||] in
        let cols = ref [] in
        let cmask = Array.make n false in
        Array.iter
          (fun i ->
            Array.iter
              (fun j -> if not cmask.(j) then begin cmask.(j) <- true; cols := j :: !cols end)
              supports.(i))
          rows;
        let cols = Array.of_list (List.rev !cols) in
        Array.sort compare cols;
        Array.iter
          (fun j ->
            rows_of.(j) <- Array.of_seq (Seq.filter (fun i -> rmask.(i)) (Array.to_seq supports.(j))))
          cols;
        let groups = Sparsity.color_columns ~only_rows:rmask p cols in
        let h = step_sizes ~dx at in
        let col_mode = Array.init n (domain_mode mode ~at ~h) in
        let f = Controller.map_rows controller ~net ~rows in
        let base = f at in
        let gvals =
          grouped_probes ?jobs ~f ~at ~h ~col_mode ~groups
            ~rows_of_col:(fun j -> rows_of.(j))
            ~base ()
        in
        let out = Mat.Sparse.copy prev in
        Array.iteri
          (fun gi g ->
            Array.iteri
              (fun k j ->
                Array.iteri
                  (fun m i -> Mat.Sparse.set_existing out i j gvals.(gi).(k).(m))
                  rows_of.(j))
              g)
          groups;
        out)

let unilaterally_stable ?(tol = 1e-9) df =
  let d = Mat.diagonal df in
  Array.for_all (fun x -> Float.abs x < 1. -. tol) d

let systemically_stable ?tol ?ignore_unit df = Eigen.is_linearly_stable ?tol ?ignore_unit df

(* Cached eigen spectra (tiers "eigen.spectrum"/"eigen.spectrum_sorted"/
   "eigen.spectrum.sparse"): keyed on the matrix content, so they
   compose with the cached DF above — a warm run rebuilds neither the
   columns nor the QR iteration. *)

let encode_spectrum ev =
  Ffc_cache.Codec.(
    encode (fun b ->
        put_int b (Array.length ev);
        Array.iter
          (fun z ->
            put_float b z.Complex.re;
            put_float b z.Complex.im)
          ev))

let decode_spectrum r =
  let n = Ffc_cache.Codec.get_int r in
  if n < 0 then raise (Ffc_cache.Codec.Corrupt "Jacobian: negative spectrum length");
  Array.init n (fun _ ->
      let re = Ffc_cache.Codec.get_float r in
      let im = Ffc_cache.Codec.get_float r in
      { Complex.re; im })

let spectrum_key df k = Cache_key.add_mat k df

let sparse_spectrum_key s k =
  let row_ptr, col_idx, values = Mat.Sparse.to_csr s in
  Ffc_cache.Key.int k (Mat.Sparse.rows s);
  Ffc_cache.Key.int k (Mat.Sparse.cols s);
  Array.iter (Ffc_cache.Key.int k) row_ptr;
  Array.iter (Ffc_cache.Key.int k) col_idx;
  Ffc_cache.Key.floats k values

let eigenvalues df =
  Ffc_cache.Cache.memo ~tier:"eigen.spectrum" ~build:(spectrum_key df)
    ~encode:encode_spectrum ~decode:decode_spectrum
    (fun () -> Eigen.eigenvalues df)

let eigenvalues_sorted df =
  Ffc_cache.Cache.memo ~tier:"eigen.spectrum_sorted" ~build:(spectrum_key df)
    ~encode:encode_spectrum ~decode:decode_spectrum
    (fun () -> Eigen.eigenvalues_sorted df)

let eigenvalues_sparse s =
  Ffc_cache.Cache.memo ~tier:"eigen.spectrum.sparse" ~build:(sparse_spectrum_key s)
    ~encode:encode_spectrum ~decode:decode_spectrum
    (fun () -> Eigen.eigenvalues_sparse s)

let spectral_radius_of ev =
  Array.fold_left (fun acc z -> Float.max acc (Complex.norm z)) 0. ev

(* Same fold Eigen.spectral_radius uses, over the cached spectrum. *)
let spectral_radius df = spectral_radius_of (eigenvalues df)
let spectral_radius_sparse s = spectral_radius_of (eigenvalues_sparse s)

(* Cheap rho(DF) after an incremental update: the structural diagonal
   when the updated CSR is (permuted) triangular — O(nnz); otherwise a
   power iteration for the dominant pair, cross-checked by a deflated
   second iteration that must not find anything of larger modulus.
   Matrices that fail either check fall back to the full (cached)
   spectrum, so the estimate is never silently wrong. *)
let spectral_radius_incremental s =
  match Eigen.structural_eigenvalues_sparse s with
  | Some d ->
    Ffc_obs.Ctx.incr_named "jac.rho.structural";
    Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. d
  | None -> (
    let fallback () =
      Ffc_obs.Ctx.incr_named "jac.rho.fallback";
      spectral_radius_sparse s
    in
    match Eigen.power_iteration_sparse s with
    | None -> fallback ()
    | Some (lam, v) -> (
      let rho = Float.abs lam in
      match Eigen.power_iteration_sparse ~deflate:v s with
      | Some (lam2, _) when Float.abs lam2 <= rho *. (1. +. 1e-9) ->
        Ffc_obs.Ctx.incr_named "jac.rho.power";
        rho
      | Some _ | None -> fallback ()))

let triangular_in_rate_order ?(tol = 1e-6) df ~rates =
  let n = Array.length rates in
  if Mat.rows df <> n then invalid_arg "Jacobian.triangular_in_rate_order: size mismatch";
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare rates.(a) rates.(b)) order;
  Mat.is_lower_triangular ~tol (Mat.permute_rows_cols df order)

let diagonal = Mat.diagonal
