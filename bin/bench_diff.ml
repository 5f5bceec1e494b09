(* The perf-regression comparator behind `ffc bench diff`.

   A row is any object, in any section at any depth, with a string
   "name" and a number "ns_per_run"; its optional "identical" flag is
   the bench harness's own output-identity check.  Names are unique
   across the file, so a row is keyed by its name alone. *)

module J = Ffc_obs.Jsonf

type sample = { ns_per_run : float; identical : bool option }

let parse_file path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> Exit_code.fail e
  in
  let doc =
    match J.of_string text with
    | Ok v -> v
    | Error (at, why) -> Exit_code.fail (Printf.sprintf "%s: byte %d: %s" path at why)
  in
  let rows = ref [] in
  let rec walk v =
    match (v, J.get J.as_string "name" v, J.get J.as_float "ns_per_run" v) with
    | J.Object _, Some name, Some ns_per_run ->
      if List.mem_assoc name !rows then
        Exit_code.fail (Printf.sprintf "%s: duplicate row %S" path name);
      rows := (name, { ns_per_run; identical = J.get J.as_bool "identical" v }) :: !rows
    | J.Object fields, _, _ -> List.iter (fun (_, v) -> walk v) fields
    | J.Array vs, _, _ -> List.iter walk vs
    | _ -> ()
  in
  walk doc;
  if !rows = [] then
    Exit_code.fail (Printf.sprintf "%s: no rows (name + ns_per_run)" path);
  List.rev !rows

(* Tolerances are percentages of allowed slowdown.  A spec is either a
   bare "PCT" (the default for every row) or "NAME=PCT" — split on the
   {e last} '=' because row names themselves contain '='
   (e.g. "ffc/desim 1000 time units (FS, rho=0.6)"). *)
type tolerances = { default : float; per_row : (string * float) list }

let parse_tolerances specs =
  let parse_pct spec s =
    match float_of_string_opt s with
    | Some p when Float.is_finite p && p >= 0. -> p
    | _ -> Exit_code.fail (Printf.sprintf "bad tolerance %S" spec)
  in
  List.fold_left
    (fun acc spec ->
      match String.rindex_opt spec '=' with
      | None -> { acc with default = parse_pct spec spec }
      | Some i ->
        let name = String.sub spec 0 i in
        let pct = String.sub spec (i + 1) (String.length spec - i - 1) in
        { acc with per_row = (name, parse_pct spec pct) :: acc.per_row })
    { default = 100.; per_row = [] }
    specs

let tolerance_for tol name =
  match List.assoc_opt name tol.per_row with
  | Some p -> p
  | None -> tol.default

type verdict = Ok_within | Regression | Improved | Added | Removed | Not_identical

let verdict_label = function
  | Ok_within -> "ok"
  | Regression -> "REGRESSION"
  | Improved -> "improved"
  | Added -> "added"
  | Removed -> "REMOVED"
  | Not_identical -> "NOT IDENTICAL"

type row = {
  r_name : string;
  r_old : float option;
  r_new : float option;
  r_delta_pct : float option;
  r_tol : float;
  r_verdict : verdict;
}

let diff ~tol old_rows new_rows =
  let names =
    List.sort_uniq compare (List.map fst old_rows @ List.map fst new_rows)
  in
  List.map
    (fun name ->
      let r_tol = tolerance_for tol name in
      let old_row = List.assoc_opt name old_rows in
      let new_row = List.assoc_opt name new_rows in
      let r_old = Option.map (fun k -> k.ns_per_run) old_row in
      let r_new = Option.map (fun k -> k.ns_per_run) new_row in
      let r_delta_pct, timing =
        match (r_old, r_new) with
        | Some o, Some n when o > 0. ->
          let d = (n -. o) /. o *. 100. in
          ( Some d,
            if d > r_tol then Regression
            else if d < -.r_tol then Improved
            else Ok_within )
        | Some _, Some _ -> (None, Ok_within)
        | Some _, None -> (None, Removed)
        | None, Some _ -> (None, Added)
        | None, None -> (None, Ok_within)
      in
      let r_verdict =
        match new_row with
        | Some { identical = Some false; _ } -> Not_identical
        | _ -> timing
      in
      { r_name = name; r_old; r_new; r_delta_pct; r_tol; r_verdict })
    names

let failing r =
  match r.r_verdict with
  | Regression | Removed | Not_identical -> true
  | Ok_within | Improved | Added -> false

let ns_cell = function None -> "-" | Some ns -> Printf.sprintf "%.0f" ns

let render rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%-58s %12s %12s %9s %6s  %s\n" "row" "old ns/run"
       "new ns/run" "delta" "tol" "verdict");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-58s %12s %12s %9s %5.0f%%  %s\n" r.r_name
           (ns_cell r.r_old) (ns_cell r.r_new)
           (match r.r_delta_pct with
           | None -> "-"
           | Some d -> Printf.sprintf "%+.1f%%" d)
           r.r_tol
           (verdict_label r.r_verdict)))
    rows;
  let worst =
    List.fold_left
      (fun acc r ->
        match r.r_delta_pct with Some d -> Float.max acc d | None -> acc)
      Float.neg_infinity rows
  in
  let count v = List.length (List.filter (fun r -> r.r_verdict = v) rows) in
  Buffer.add_string buf
    (Printf.sprintf "%d rows compared: %d regression(s), %d removed, %d not identical%s\n"
       (List.length rows) (count Regression) (count Removed) (count Not_identical)
       (if Float.is_finite worst then Printf.sprintf ", worst delta %+.1f%%" worst
        else ""));
  Buffer.contents buf

let run ~old_path ~new_path ~tolerance_specs =
  let tol = parse_tolerances tolerance_specs in
  let rows = diff ~tol (parse_file old_path) (parse_file new_path) in
  print_string (render rows);
  if List.exists failing rows then Exit_code.regression else Exit_code.ok
