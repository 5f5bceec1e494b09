(* Dense real eigensolver: balance -> Hessenberg -> double-shift QR.
   The QR iteration follows the classical `hqr` scheme (Wilkinson;
   Press et al.), rewritten 0-indexed with relative-epsilon deflation
   tests instead of the historical float-rounding tricks.

   The kernels run in place on a flat row-major [float array] with
   unsafe accessors — the matrices are square and every index is a loop
   variable already confined to [0, n), so the checks would only cost.
   The checked [Mat] API stays at the entry points.

   On top of the dense path sits a structure-aware layer: a matrix that
   is triangular — or triangular after a simultaneous row/column
   permutation, the shape Theorem 4 gives Fair Share stability matrices
   in rate order — has its eigenvalues on its diagonal, read in O(N^2)
   detection time instead of the O(N^3) QR iteration. *)

let eps = 1e-13

(* Diagonal similarity scaling so that row and column norms are comparable;
   improves eigenvalue accuracy on badly scaled matrices.  [a] is flat
   row-major of size n*n. *)
let balance a n =
  let g i j = Array.unsafe_get a ((i * n) + j) in
  let s i j v = Array.unsafe_set a ((i * n) + j) v in
  let radix = 2. in
  let sqrdx = radix *. radix in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let c = ref 0. and r = ref 0. in
      for j = 0 to n - 1 do
        if j <> i then begin
          c := !c +. Float.abs (g j i);
          r := !r +. Float.abs (g i j)
        end
      done;
      if !c <> 0. && !r <> 0. then begin
        let gr = ref (!r /. radix) in
        let f = ref 1. in
        let sum = !c +. !r in
        while !c < !gr do
          f := !f *. radix;
          c := !c *. sqrdx
        done;
        gr := !r *. radix;
        while !c > !gr do
          f := !f /. radix;
          c := !c /. sqrdx
        done;
        if (!c +. !r) /. !f < 0.95 *. sum then begin
          changed := true;
          let inv = 1. /. !f in
          for j = 0 to n - 1 do
            s i j (g i j *. inv)
          done;
          for j = 0 to n - 1 do
            s j i (g j i *. !f)
          done
        end
      end
    done
  done

(* Reduction to upper Hessenberg form by stabilized elementary similarity
   transformations (Gaussian elimination with pivoting). *)
let reduce_hessenberg a n =
  let g i j = Array.unsafe_get a ((i * n) + j) in
  let s i j v = Array.unsafe_set a ((i * n) + j) v in
  for m = 1 to n - 2 do
    let x = ref 0. in
    let pivot = ref m in
    for j = m to n - 1 do
      if Float.abs (g j (m - 1)) > Float.abs !x then begin
        x := g j (m - 1);
        pivot := j
      end
    done;
    if !pivot <> m then begin
      for j = m - 1 to n - 1 do
        let t = g !pivot j in
        s !pivot j (g m j);
        s m j t
      done;
      for j = 0 to n - 1 do
        let t = g j !pivot in
        s j !pivot (g j m);
        s j m t
      done
    end;
    if !x <> 0. then
      for i = m + 1 to n - 1 do
        let y = g i (m - 1) in
        if y <> 0. then begin
          let y = y /. !x in
          for j = m to n - 1 do
            s i j (g i j -. (y *. g m j))
          done;
          for j = 0 to n - 1 do
            s j m (g j m +. (y *. g j i))
          done
        end
      done
  done;
  (* Clear the multipliers stored below the subdiagonal. *)
  for i = 0 to n - 1 do
    for j = 0 to i - 2 do
      s i j 0.
    done
  done

let hessenberg m =
  if Mat.rows m <> Mat.cols m then invalid_arg "Eigen.hessenberg: not square";
  let n = Mat.rows m in
  let a = Mat.to_flat m in
  reduce_hessenberg a n;
  Mat.of_flat ~rows:n ~cols:n a

let sign_of magnitude reference =
  if reference >= 0. then Float.abs magnitude else -.Float.abs magnitude

(* Double-shift QR on an upper Hessenberg matrix, with deflation.  [a] is
   flat row-major and destroyed.  Returns eigenvalues as (re, im) pairs. *)
let hqr a n =
  let g i j = Array.unsafe_get a ((i * n) + j) in
  let set i j v = Array.unsafe_set a ((i * n) + j) v in
  let wr = Array.make n 0. and wi = Array.make n 0. in
  let anorm = ref 0. in
  for i = 0 to n - 1 do
    for j = Stdlib.max (i - 1) 0 to n - 1 do
      anorm := !anorm +. Float.abs (g i j)
    done
  done;
  if !anorm = 0. then anorm := 1.;
  let nn = ref (n - 1) in
  let t = ref 0. in
  while !nn >= 0 do
    let its = ref 0 in
    let finished_block = ref false in
    while not !finished_block do
      (* Look for a single small subdiagonal element to split the matrix. *)
      let l = ref !nn in
      (try
         while !l >= 1 do
           let s =
             let s = Float.abs (g (!l - 1) (!l - 1)) +. Float.abs (g !l !l) in
             if s = 0. then !anorm else s
           in
           if Float.abs (g !l (!l - 1)) <= eps *. s then begin
             set !l (!l - 1) 0.;
             raise Exit
           end;
           decr l
         done
       with Exit -> ());
      let x = ref (g !nn !nn) in
      if !l = !nn then begin
        (* One real root found. *)
        wr.(!nn) <- !x +. !t;
        wi.(!nn) <- 0.;
        decr nn;
        finished_block := true
      end
      else begin
        let y = ref (g (!nn - 1) (!nn - 1)) in
        let w = ref (g !nn (!nn - 1) *. g (!nn - 1) !nn) in
        if !l = !nn - 1 then begin
          (* A 2x2 block: two roots, real or complex-conjugate. *)
          let p = ref (0.5 *. (!y -. !x)) in
          let q = (!p *. !p) +. !w in
          let z = ref (sqrt (Float.abs q)) in
          x := !x +. !t;
          if q >= 0. then begin
            z := !p +. sign_of !z !p;
            wr.(!nn - 1) <- !x +. !z;
            wr.(!nn) <- wr.(!nn - 1);
            if !z <> 0. then wr.(!nn) <- !x -. (!w /. !z);
            wi.(!nn - 1) <- 0.;
            wi.(!nn) <- 0.
          end
          else begin
            wr.(!nn - 1) <- !x +. !p;
            wr.(!nn) <- !x +. !p;
            wi.(!nn) <- -. !z;
            wi.(!nn - 1) <- !z
          end;
          nn := !nn - 2;
          finished_block := true
        end
        else begin
          if !its = 60 then failwith "Eigen.eigenvalues: QR did not converge";
          if !its = 10 || !its = 20 || !its = 30 || !its = 40 || !its = 50 then begin
            (* Exceptional shift to break symmetry-induced stalls. *)
            t := !t +. !x;
            for i = 0 to !nn do
              set i i (g i i -. !x)
            done;
            let s = Float.abs (g !nn (!nn - 1)) +. Float.abs (g (!nn - 1) (!nn - 2)) in
            x := 0.75 *. s;
            y := !x;
            w := -0.4375 *. s *. s
          end;
          incr its;
          (* Find two consecutive small subdiagonal elements: start row m. *)
          let m = ref (!nn - 2) in
          let p = ref 0. and q = ref 0. and r = ref 0. in
          (try
             while !m >= !l do
               let z = g !m !m in
               let rr = !x -. z in
               let ss = !y -. z in
               p := (((rr *. ss) -. !w) /. g (!m + 1) !m) +. g !m (!m + 1);
               q := g (!m + 1) (!m + 1) -. z -. rr -. ss;
               r := g (!m + 2) (!m + 1);
               let s = Float.abs !p +. Float.abs !q +. Float.abs !r in
               p := !p /. s;
               q := !q /. s;
               r := !r /. s;
               if !m = !l then raise Exit;
               let u = Float.abs (g !m (!m - 1)) *. (Float.abs !q +. Float.abs !r) in
               let v =
                 Float.abs !p
                 *. (Float.abs (g (!m - 1) (!m - 1)) +. Float.abs z
                    +. Float.abs (g (!m + 1) (!m + 1)))
               in
               if u <= eps *. v then raise Exit;
               decr m
             done;
             m := !l
           with Exit -> ());
          for i = !m + 2 to !nn do
            set i (i - 2) 0.;
            if i <> !m + 2 then set i (i - 3) 0.
          done;
          (* Double QR step on rows l..nn, columns m..nn. *)
          for k = !m to !nn - 1 do
            if k <> !m then begin
              p := g k (k - 1);
              q := g (k + 1) (k - 1);
              r := 0.;
              if k <> !nn - 1 then r := g (k + 2) (k - 1);
              x := Float.abs !p +. Float.abs !q +. Float.abs !r;
              if !x <> 0. then begin
                p := !p /. !x;
                q := !q /. !x;
                r := !r /. !x
              end
            end;
            let s = sign_of (sqrt ((!p *. !p) +. (!q *. !q) +. (!r *. !r))) !p in
            if s <> 0. then begin
              if k = !m then begin
                if !l <> !m then set k (k - 1) (-.g k (k - 1))
              end
              else set k (k - 1) (-.s *. !x);
              p := !p +. s;
              x := !p /. s;
              y := !q /. s;
              let z = !r /. s in
              q := !q /. !p;
              r := !r /. !p;
              for j = k to !nn do
                let pj = g k j +. (!q *. g (k + 1) j) in
                let pj =
                  if k <> !nn - 1 then begin
                    let pj = pj +. (!r *. g (k + 2) j) in
                    set (k + 2) j (g (k + 2) j -. (pj *. z));
                    pj
                  end
                  else pj
                in
                set (k + 1) j (g (k + 1) j -. (pj *. !y));
                set k j (g k j -. (pj *. !x))
              done;
              let mmin = Stdlib.min !nn (k + 3) in
              for i = !l to mmin do
                let pi = (!x *. g i k) +. (!y *. g i (k + 1)) in
                let pi =
                  if k <> !nn - 1 then begin
                    let pi = pi +. (z *. g i (k + 2)) in
                    set i (k + 2) (g i (k + 2) -. (pi *. !r));
                    pi
                  end
                  else pi
                in
                set i (k + 1) (g i (k + 1) -. (pi *. !q));
                set i k (g i k -. pi)
              done
            end
          done
        end
      end
    done
  done;
  Array.init n (fun i -> { Complex.re = wr.(i); im = wi.(i) })

let eigenvalues_dense m =
  if Mat.rows m <> Mat.cols m then invalid_arg "Eigen.eigenvalues: not square";
  let n = Mat.rows m in
  if n = 0 then [||]
  else if n = 1 then [| { Complex.re = Mat.get m 0 0; im = 0. } |]
  else begin
    let a = Mat.to_flat m in
    balance a n;
    reduce_hessenberg a n;
    hqr a n
  end

(* ------------------------------------------------------------------ *)
(* Structure detection (Theorem 4 fast path)                           *)
(* ------------------------------------------------------------------ *)

(* An ordering v of the indices such that m.(v_i).(v_j) is exactly zero
   for all j > i — i.e. the matrix is lower triangular after
   simultaneously permuting rows and columns by v.  Greedy topological
   sort of the off-diagonal dependency relation: repeatedly pick the
   smallest remaining row whose nonzero off-diagonal entries all sit in
   already-picked columns.  Each pick scans O(N), so detection —
   success or failure — is O(N^2).  Covers lower triangular (identity
   order), upper triangular (reversal), and any simultaneous permutation
   of either, such as Fair Share Jacobians in rate order. *)
let triangular_order m =
  if Mat.rows m <> Mat.cols m then invalid_arg "Eigen.triangular_order: not square";
  let n = Mat.rows m in
  let nonzero i j = Float.abs (Mat.unsafe_get m i j) > 0. in
  (* pending.(i): off-diagonal entries of row i in not-yet-picked columns. *)
  let pending = Array.make n 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j <> i && nonzero i j then pending.(i) <- pending.(i) + 1
    done
  done;
  let picked = Array.make n false in
  let order = Array.make n 0 in
  let ok = ref true in
  (try
     for pos = 0 to n - 1 do
       let next = ref (-1) in
       for i = n - 1 downto 0 do
         if (not picked.(i)) && pending.(i) = 0 then next := i
       done;
       if !next < 0 then begin
         ok := false;
         raise Exit
       end;
       let i = !next in
       picked.(i) <- true;
       order.(pos) <- i;
       for k = 0 to n - 1 do
         if (not picked.(k)) && nonzero k i then pending.(k) <- pending.(k) - 1
       done
     done
   with Exit -> ());
  if !ok then Some order else None

let structural_eigenvalues m =
  if Mat.rows m <> Mat.cols m then None
  else
    match triangular_order m with
    | None -> None
    | Some _ ->
      (* A simultaneous permutation is a similarity and preserves the
         diagonal as a set, so the eigenvalues are the diagonal entries
         in any order. *)
      Some (Mat.diagonal m)

let eigenvalues m =
  Ffc_obs.Span.with_span "eigen.spectrum" @@ fun () ->
  match structural_eigenvalues m with
  | Some d -> Array.map (fun re -> { Complex.re; im = 0. }) d
  | None -> eigenvalues_dense m

let sort_by_modulus ev =
  Array.sort
    (fun a b ->
      let c = Float.compare (Complex.norm b) (Complex.norm a) in
      if c <> 0 then c else Float.compare b.Complex.re a.Complex.re)
    ev;
  ev

let eigenvalues_sorted m = sort_by_modulus (eigenvalues m)

let spectral_radius_of ev =
  Array.fold_left (fun acc z -> Float.max acc (Complex.norm z)) 0. ev

let spectral_radius m = spectral_radius_of (eigenvalues m)
let spectral_radius_dense m = spectral_radius_of (eigenvalues_dense m)

let is_linearly_stable ?(tol = 1e-9) ?(ignore_unit = 0) m =
  let ev = eigenvalues_sorted m in
  let n = Array.length ev in
  if ignore_unit >= n then true
  else Complex.norm ev.(ignore_unit) < 1. -. tol

let power_iteration ?(max_iter = 10_000) ?(tol = 1e-12) m =
  if Mat.rows m <> Mat.cols m then invalid_arg "Eigen.power_iteration: not square";
  let n = Mat.rows m in
  if n = 0 then None
  else begin
    (* A fixed, slightly asymmetric start vector avoids starting orthogonal
       to the dominant eigenvector for the structured matrices tested. *)
    let v = ref (Array.init n (fun i -> 1. +. (0.01 *. float_of_int i))) in
    let lambda = ref 0. in
    let converged = ref false in
    let iter = ref 0 in
    while (not !converged) && !iter < max_iter do
      incr iter;
      let w = Mat.mul_vec m !v in
      let norm = Vec.norm2 w in
      if norm < 1e-300 then begin
        lambda := 0.;
        converged := true
      end
      else begin
        let w = Vec.scale (1. /. norm) w in
        let next = Vec.dot w (Mat.mul_vec m w) in
        if Float.abs (next -. !lambda) <= tol *. (1. +. Float.abs next) then
          converged := true;
        lambda := next;
        v := w
      end
    done;
    if !converged then Some (!lambda, !v) else None
  end

let triangular_eigenvalues m =
  if Mat.is_triangular m then Some (Mat.diagonal m) else None

(* ------------------------------------------------------------------ *)
(* Sparse (CSR) structure layer                                        *)
(* ------------------------------------------------------------------ *)

(* The CSR counterpart of [triangular_order].  Same greedy topological
   sort, but the dependency counts and their decrements walk only the
   stored entries, so the graph work is O(nnz); the smallest-ready-row
   scan keeps the dense picker's O(N) per pick (trivial next to the QR
   iteration either path avoids). *)
let triangular_order_sparse s =
  if Mat.Sparse.rows s <> Mat.Sparse.cols s then
    invalid_arg "Eigen.triangular_order_sparse: not square";
  let n = Mat.Sparse.rows s in
  let pending = Array.make n 0 in
  (* dependents.(j): rows with a nonzero off-diagonal entry in column j
     — the rows to release when j is picked. *)
  let dependents = Array.make n [] in
  for i = 0 to n - 1 do
    Mat.Sparse.iter_row s i (fun j v ->
        if j <> i && Float.abs v > 0. then begin
          pending.(i) <- pending.(i) + 1;
          dependents.(j) <- i :: dependents.(j)
        end)
  done;
  let picked = Array.make n false in
  let order = Array.make n 0 in
  let ok = ref true in
  (try
     for pos = 0 to n - 1 do
       let next = ref (-1) in
       for i = n - 1 downto 0 do
         if (not picked.(i)) && pending.(i) = 0 then next := i
       done;
       if !next < 0 then begin
         ok := false;
         raise Exit
       end;
       let i = !next in
       picked.(i) <- true;
       order.(pos) <- i;
       List.iter
         (fun k -> if not picked.(k) then pending.(k) <- pending.(k) - 1)
         dependents.(i)
     done
   with Exit -> ());
  if !ok then Some order else None

let structural_eigenvalues_sparse s =
  if Mat.Sparse.rows s <> Mat.Sparse.cols s then None
  else
    match triangular_order_sparse s with
    | None -> None
    | Some _ -> Some (Mat.Sparse.diagonal s)

let eigenvalues_sparse s =
  Ffc_obs.Span.with_span "eigen.spectrum.sparse" @@ fun () ->
  match structural_eigenvalues_sparse s with
  | Some d -> Array.map (fun re -> { Complex.re; im = 0. }) d
  | None -> eigenvalues_dense (Mat.Sparse.to_dense s)

let spectral_radius_sparse s = spectral_radius_of (eigenvalues_sparse s)

let power_iteration_sparse ?(max_iter = 10_000) ?(tol = 1e-12) ?deflate s =
  if Mat.Sparse.rows s <> Mat.Sparse.cols s then
    invalid_arg "Eigen.power_iteration_sparse: not square";
  let n = Mat.Sparse.rows s in
  (match deflate with
  | Some d when Array.length d <> n ->
    invalid_arg "Eigen.power_iteration_sparse: deflation vector size mismatch"
  | _ -> ());
  if n = 0 then None
  else begin
    (* Projection deflation: after every mat-vec, remove the component
       along [deflate] (the previously found dominant eigenvector), so
       the iteration settles on the dominant eigenvalue of the
       complement — the cross-check that a claimed dominant pair really
       dominates the rest of the spectrum. *)
    let project w =
      match deflate with
      | None -> w
      | Some d ->
        let dd = Vec.dot d d in
        if dd < 1e-300 then w
        else begin
          let c = Vec.dot d w /. dd in
          Array.mapi (fun i wi -> wi -. (c *. d.(i))) w
        end
    in
    (* Same fixed asymmetric start as the dense iteration, with CSR
       mat-vec products: each step costs O(nnz) instead of O(N^2). *)
    let v = ref (project (Array.init n (fun i -> 1. +. (0.01 *. float_of_int i)))) in
    let lambda = ref 0. in
    let converged = ref false in
    let iter = ref 0 in
    while (not !converged) && !iter < max_iter do
      incr iter;
      let w = project (Mat.Sparse.mul_vec s !v) in
      let norm = Vec.norm2 w in
      if norm < 1e-300 then begin
        lambda := 0.;
        converged := true
      end
      else begin
        let w = Vec.scale (1. /. norm) w in
        let next = Vec.dot w (project (Mat.Sparse.mul_vec s w)) in
        if Float.abs (next -. !lambda) <= tol *. (1. +. Float.abs next) then
          converged := true;
        lambda := next;
        v := w
      end
    done;
    if !converged then Some (!lambda, !v) else None
  end
