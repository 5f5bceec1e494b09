(** Eigenvalues of small dense real matrices, with a structure-aware
    fast path.

    The stability analysis of the flow-control map (paper §3.3) requires
    all eigenvalues of the Jacobian DF — which is real but generally
    non-symmetric, so eigenvalues may form complex-conjugate pairs.  The
    dense path is classical: balancing, reduction to upper Hessenberg
    form by stabilized elementary transformations, then the implicit
    double-shift (Francis) QR iteration with deflation — O(N³).

    Theorem 4 makes the dense path overkill for the matrices this
    repository cares about most: under Fair Share the Jacobian is
    triangular once connections are ordered by rate, so its eigenvalues
    are its diagonal.  {!eigenvalues}, {!spectral_radius} and
    {!is_linearly_stable} therefore first look for triangular or
    permuted-triangular structure in O(N²) ({!triangular_order}) and
    read the diagonal when they find it.  Only an exact 0 counts as a
    structural zero: finite differencing of a Fair Share map produces
    exact zeros above the diagonal, so exact detection is both safe and
    effective.  The [_dense] entry points always run the QR path.

    All routines operate on copies and never mutate their input. *)

val hessenberg : Mat.t -> Mat.t
(** [hessenberg m] is an upper-Hessenberg matrix similar to square [m]
    (entries below the first subdiagonal are exactly zero). *)

val triangular_order : Mat.t -> int array option
(** [triangular_order m] is [Some v] when [m] is lower triangular after
    simultaneously permuting rows and columns by [v] — i.e.
    [m.(v_i).(v_j) = 0] for all [j > i].  Covers plain lower triangular (identity order), upper
    triangular (reversal) and any simultaneous permutation of either,
    such as Fair Share stability matrices in rate order (Theorem 4).
    O(N²) whether it succeeds or fails. *)

val structural_eigenvalues : Mat.t -> Vec.t option
(** The diagonal, when {!triangular_order} detects (permuted) triangular
    structure — the eigenvalues, exactly, since a simultaneous
    permutation is a similarity.  [None] for dense matrices (and
    non-square ones). *)

val eigenvalues : Mat.t -> Complex.t array
(** All eigenvalues of a square matrix, in no particular order:
    the diagonal when (permuted-)triangular structure is detected, the
    QR path otherwise. Raises [Failure] if the QR
    iteration fails to converge (does not happen for the matrices in
    this repository) and [Invalid_argument] if the matrix is not
    square. *)

val eigenvalues_dense : Mat.t -> Complex.t array
(** The QR path unconditionally — for cross-checking the fast path and
    for benchmarking. *)

val eigenvalues_sorted : Mat.t -> Complex.t array
(** Eigenvalues sorted by decreasing modulus (ties broken by real part). *)

val spectral_radius : Mat.t -> float
(** Largest eigenvalue modulus — the quantity that decides linear
    stability of the iteration r' = F(r). *)

val spectral_radius_dense : Mat.t -> float
(** {!spectral_radius} via the QR path unconditionally. *)

val is_linearly_stable : ?tol:float -> ?ignore_unit:int -> Mat.t -> bool
(** [is_linearly_stable df] holds when every eigenvalue of [df] has
    modulus < 1 − [tol] (default [tol = 1e-9]).  [ignore_unit] (default 0)
    discounts that many eigenvalues closest to modulus 1 — used for
    steady-state manifolds, where deviations *along* the manifold carry
    unit eigenvalues that the paper's stability notion ignores. *)

val power_iteration :
  ?max_iter:int -> ?tol:float -> Mat.t -> (float * Vec.t) option
(** Dominant eigenvalue (by modulus, assuming it is real) and its
    eigenvector, via normalized power iteration; [None] when the iteration
    does not settle — e.g. a complex dominant pair. Used as an independent
    cross-check of [eigenvalues]. *)

val triangular_eigenvalues : Mat.t -> Vec.t option
(** For a (numerically) triangular matrix, its eigenvalues are the
    diagonal; [None] when the matrix is not triangular. Implements the
    observation at the heart of Theorem 4.  See
    {!structural_eigenvalues} for the permutation-aware version. *)

(** {2 Sparse (CSR) structure layer}

    The same structure-first strategy for {!Mat.Sparse} matrices —
    e.g. grouped-finite-difference Jacobians — without densifying on the
    fast path: detection walks the stored entries (O(nnz) graph work)
    and the diagonal read costs O(N).  Only the dense-QR fallback pays
    for a [to_dense]. *)

val triangular_order_sparse : Mat.Sparse.t -> int array option
(** CSR counterpart of {!triangular_order}; identical result on
    [Mat.Sparse.to_dense] of the input (stored exact zeros count as
    structural zeros). *)

val structural_eigenvalues_sparse : Mat.Sparse.t -> Vec.t option
(** The diagonal when {!triangular_order_sparse} succeeds. *)

val eigenvalues_sparse : Mat.Sparse.t -> Complex.t array
(** Structure-first spectrum of a square CSR matrix: the diagonal on the
    triangular path, dense QR on [to_dense] otherwise. *)

val spectral_radius_sparse : Mat.Sparse.t -> float

val power_iteration_sparse :
  ?max_iter:int -> ?tol:float -> ?deflate:Vec.t -> Mat.Sparse.t ->
  (float * Vec.t) option
(** {!power_iteration} with O(nnz) CSR mat-vec steps — the independent
    cross-check used after incremental Jacobian updates.  With
    [deflate] (a previously found dominant eigenvector), every iterate
    is projected onto its orthogonal complement, estimating the
    dominant eigenvalue of the remaining spectrum — the deflation pass
    that certifies a claimed dominant pair actually dominates. *)
