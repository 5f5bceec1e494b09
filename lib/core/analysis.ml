open Ffc_numerics

type design = { label : string; config : Feedback.config }

let designs =
  [
    { label = "aggregate"; config = Feedback.aggregate_fifo };
    { label = "individual+fifo"; config = Feedback.individual_fifo };
    { label = "individual+fair-share"; config = Feedback.individual_fair_share };
  ]

type report = {
  design : string;
  outcome : Controller.outcome;
  steady : Vec.t option;
  fair : bool option;
  jain : float option;
  robust : bool option;
  unilateral : bool option;
  systemic : bool option;
  spectral_radius : float option;
  df_triangular : bool option;
}

let evaluate ?tol ?max_steps ?(manifold_dim = 0) design ~adjusters ~net ~r0 =
  let controller = Controller.create ~config:design.config ~adjusters in
  let outcome = Controller.run ?tol ?max_steps controller ~net ~r0 in
  match outcome with
  | Controller.Converged { steady; _ } ->
    let fair = Fairness.is_fair design.config ~net ~rates:steady in
    let jain = Fairness.jain steady in
    let robust =
      let b_ss = Array.map Rate_adjust.declared_b_ss adjusters in
      if Array.for_all Option.is_some b_ss then begin
        let b_ss = Array.map Option.get b_ss in
        let baselines = Robustness.baselines ~signal:design.config.signal ~b_ss ~net in
        Some (Robustness.is_robust_outcome ~baselines steady)
      end
      else None
    in
    let df = Jacobian.of_controller controller ~net ~at:steady in
    {
      design = design.label;
      outcome;
      steady = Some steady;
      fair = Some fair;
      jain = Some jain;
      robust;
      unilateral = Some (Jacobian.unilaterally_stable df);
      systemic =
        Some (Jacobian.systemically_stable ~ignore_unit:manifold_dim df);
      spectral_radius = Some (Jacobian.spectral_radius df);
      df_triangular = Some (Jacobian.triangular_in_rate_order df ~rates:steady);
    }
  | Controller.Cycle _ | Controller.Diverged _ | Controller.No_convergence _ ->
    {
      design = design.label;
      outcome;
      steady = None;
      fair = None;
      jain = None;
      robust = None;
      unilateral = None;
      systemic = None;
      spectral_radius = None;
      df_triangular = None;
    }

let evaluate_all ?tol ?max_steps ?manifold_dim ?jobs ~adjusters ~net r0 =
  (* The three designs are independent; evaluate them on separate
     domains, keeping the report order fixed. *)
  Pool.parallel_map
    ~jobs:(Pool.effective_jobs ?jobs ())
    (fun d -> evaluate ?tol ?max_steps ?manifold_dim d ~adjusters ~net ~r0)
    (Array.of_list designs)
  |> Array.to_list

let pp_opt_bool ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some true -> Format.pp_print_string ppf "yes"
  | Some false -> Format.pp_print_string ppf "no"

let pp_report ppf r =
  let outcome_str =
    match r.outcome with
    | Controller.Converged { steps; _ } -> Printf.sprintf "converged(%d)" steps
    | Controller.Cycle { period; _ } -> Printf.sprintf "cycle(%d)" period
    | Controller.Diverged { at_step } -> Printf.sprintf "diverged(%d)" at_step
    | Controller.No_convergence _ -> "no-convergence"
  in
  Format.fprintf ppf
    "@[<v>design %s: %s@,  fair=%a jain=%s robust=%a unilateral=%a systemic=%a \
     rho(DF)=%s triangular=%a@]"
    r.design outcome_str pp_opt_bool r.fair
    (match r.jain with Some j -> Printf.sprintf "%.4f" j | None -> "-")
    pp_opt_bool r.robust pp_opt_bool r.unilateral pp_opt_bool r.systemic
    (match r.spectral_radius with Some s -> Printf.sprintf "%.4f" s | None -> "-")
    pp_opt_bool r.df_triangular
