(** High-level evaluation of the paper's design matrix.

    Runs a rate-adjuster population on a network under each of the three
    distinct design points — aggregate feedback (discipline-insensitive),
    individual feedback + FIFO, individual feedback + Fair Share — and
    reports convergence, fairness, robustness, and stability in one
    record per design.  This is the API the examples and the experiment
    harness are written against. *)

open Ffc_numerics
open Ffc_topology

type design = { label : string; config : Feedback.config }

val designs : design list
(** The paper's three distinct design points, with B = C/(1+C). *)

type report = {
  design : string;
  outcome : Controller.outcome;
  steady : Vec.t option;  (** Populated when the run converged. *)
  fair : bool option;
  jain : float option;
  robust : bool option;  (** Against the adjusters' own baselines. *)
  unilateral : bool option;  (** |DF_ii| < 1 at the steady state. *)
  systemic : bool option;  (** All eigenvalues inside the unit circle. *)
  spectral_radius : float option;
  df_triangular : bool option;  (** Theorem 4's structure. *)
}

val evaluate :
  ?tol:float -> ?max_steps:int -> ?manifold_dim:int ->
  design -> adjusters:Rate_adjust.t array -> net:Network.t -> r0:Vec.t -> report
(** Full single-design evaluation. [manifold_dim] eigenvalues of modulus
    ~1 are discounted in the systemic-stability verdict (aggregate
    feedback at a single gateway has an (N−1)-dimensional steady
    manifold).  Robustness verdicts require every adjuster to declare its
    b_SS; otherwise [robust = None]. *)

val evaluate_all :
  ?tol:float -> ?max_steps:int -> ?manifold_dim:int -> ?jobs:int ->
  adjusters:Rate_adjust.t array -> net:Network.t -> Vec.t -> report list
(** [evaluate_all ~adjusters ~net r0] — {!evaluate} over {!designs},
    one domain per design (up to [jobs], default
    {!Pool.default_jobs}); the report list is always in {!designs}
    order. *)

val pp_report : Format.formatter -> report -> unit
