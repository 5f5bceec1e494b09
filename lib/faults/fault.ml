open Ffc_topology

type kind =
  | Stale of { lag : int }
  | Lossy of { p : float }
  | Noisy of { sigma : float }
  | Quantized of { threshold : float }
  | Dead
  | Greedy of { ramp : float; cap : float }
  | Gateway_cut of { gw : int; fraction : float; from_step : int; until_step : int option }
  | Flap of { period : int; up : int }

type spec = { kind : kind; conns : int list option }

let everywhere kind = { kind; conns = None }
let on conns kind = { kind; conns = Some conns }

type plan = { seed : int; specs : spec list }

let plan ?(seed = 0) specs = { seed; specs }
let none = { seed = 0; specs = [] }
let is_empty p = p.specs = []

let restrict p ~keep =
  let index = Hashtbl.create (Array.length keep) in
  Array.iteri (fun k i -> Hashtbl.replace index i k) keep;
  let specs =
    List.filter_map
      (fun s ->
        match Option.map (List.filter_map (Hashtbl.find_opt index)) s.conns with
        | Some [] -> None
        | conns -> Some { s with conns })
      p.specs
  in
  { p with specs }

let validate { specs; seed = _ } ~net =
  let nc = Network.num_connections net in
  let ng = Network.num_gateways net in
  let check_conns = function
    | None -> ()
    | Some [] -> invalid_arg "Fault.validate: empty connection target list"
    | Some conns ->
      List.iter
        (fun i ->
          if i < 0 || i >= nc then
            invalid_arg (Printf.sprintf "Fault.validate: connection %d out of range" i))
        conns
  in
  let dead = Array.make nc false
  and greedy = Array.make nc false
  and flap = Array.make nc false in
  let mark tbl conns =
    let targets = match conns with None -> List.init nc Fun.id | Some l -> l in
    List.iter (fun i -> tbl.(i) <- true) targets
  in
  List.iter
    (fun { kind; conns } ->
      check_conns conns;
      match kind with
      | Stale { lag } ->
        if lag < 1 then invalid_arg "Fault.validate: stale lag must be >= 1"
      | Lossy { p } ->
        if not (p >= 0. && p <= 1.) then
          invalid_arg "Fault.validate: loss probability must be in [0,1]"
      | Noisy { sigma } ->
        if not (sigma >= 0.) then invalid_arg "Fault.validate: noise sigma must be >= 0"
      | Quantized { threshold } ->
        if not (threshold > 0. && threshold < 1.) then
          invalid_arg "Fault.validate: quantization threshold must be in (0,1)"
      | Dead -> mark dead conns
      | Greedy { ramp; cap } ->
        if not (ramp > 0.) then invalid_arg "Fault.validate: greedy ramp must be > 0";
        if not (cap > 0. && Float.is_finite cap) then
          invalid_arg "Fault.validate: greedy cap must be finite and positive";
        mark greedy conns
      | Gateway_cut { gw; fraction; from_step; until_step } ->
        if gw < 0 || gw >= ng then
          invalid_arg (Printf.sprintf "Fault.validate: gateway %d out of range" gw);
        if not (fraction > 0. && fraction <= 1.) then
          invalid_arg "Fault.validate: cut fraction must be in (0,1]";
        if from_step < 0 then invalid_arg "Fault.validate: cut from_step must be >= 0";
        (match until_step with
        | Some u when u <= from_step ->
          invalid_arg "Fault.validate: cut until_step must exceed from_step"
        | Some _ | None -> ())
      | Flap { period; up } ->
        if period < 2 then invalid_arg "Fault.validate: flap period must be >= 2";
        if up < 1 || up >= period then
          invalid_arg "Fault.validate: flap up must satisfy 1 <= up < period";
        mark flap conns)
    specs;
  for i = 0 to nc - 1 do
    if dead.(i) && greedy.(i) then
      invalid_arg
        (Printf.sprintf "Fault.validate: connection %d is both dead and greedy" i);
    (* Flap claims the peer's whole presence; composing it with another
       whole-algorithm override is contradictory. *)
    if flap.(i) && (dead.(i) || greedy.(i)) then
      invalid_arg
        (Printf.sprintf
           "Fault.validate: connection %d is both flapping and dead/greedy" i)
  done

let horizon { specs; seed = _ } =
  List.fold_left
    (fun acc { kind; conns = _ } ->
      match kind with
      | Gateway_cut { from_step; until_step; _ } ->
        Int.max acc (match until_step with Some u -> u | None -> from_step)
      (* A flap never becomes time-invariant; its runs settle into limit
         cycles (caught by cycle detection), not fixed points, so it
         contributes nothing to the convergence-suppression horizon. *)
      | Stale _ | Lossy _ | Noisy _ | Quantized _ | Dead | Greedy _ | Flap _ -> acc)
    0 specs

let misbehaving { specs; seed = _ } ~n =
  let out = Array.make n false in
  List.iter
    (fun { kind; conns } ->
      match kind with
      | Dead | Greedy _ | Flap _ ->
        let targets = match conns with None -> List.init n Fun.id | Some l -> l in
        List.iter (fun i -> if i >= 0 && i < n then out.(i) <- true) targets
      | Stale _ | Lossy _ | Noisy _ | Quantized _ | Gateway_cut _ -> ())
    specs;
  out

let describe { specs; seed = _ } =
  let targets = function
    | None -> "all"
    | Some conns -> String.concat "," (List.map string_of_int conns)
  in
  List.map
    (fun { kind; conns } ->
      match kind with
      | Stale { lag } -> Printf.sprintf "stale(lag=%d)@%s" lag (targets conns)
      | Lossy { p } -> Printf.sprintf "lossy(p=%g)@%s" p (targets conns)
      | Noisy { sigma } -> Printf.sprintf "noisy(sigma=%g)@%s" sigma (targets conns)
      | Quantized { threshold } ->
        Printf.sprintf "quantized(thresh=%g)@%s" threshold (targets conns)
      | Dead -> Printf.sprintf "dead@%s" (targets conns)
      | Greedy { ramp; cap } ->
        Printf.sprintf "greedy(ramp=%g,cap=%g)@%s" ramp cap (targets conns)
      | Gateway_cut { gw; fraction; from_step; until_step } ->
        Printf.sprintf "gw-cut(gw=%d,x%g,from=%d%s)" gw fraction from_step
          (match until_step with
          | None -> ",permanent"
          | Some u -> Printf.sprintf ",until=%d" u)
      | Flap { period; up } ->
        Printf.sprintf "flap(period=%d,up=%d)@%s" period up (targets conns))
    specs
