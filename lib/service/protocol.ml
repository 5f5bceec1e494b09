type add = { conn : string option; time : float option; size : float option }

type request =
  | Add of add
  | Batch_begin
  | Batch_end
  | Remove of { conn : string; time : float option }
  | Query of { time : float option }
  | Stats of { time : float option }
  | Metrics of { prom : bool }
  | Snapshot
  | Shutdown

let split_words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

(* [key=value] fields after the positional part.  Unknown keys are an
   error: a typo silently ignored would corrupt the decision log. *)
let parse_fields words ~allowed =
  let rec go acc = function
    | [] -> Ok acc
    | w :: rest -> (
      match String.index_opt w '=' with
      | None -> Error (Printf.sprintf "expected key=value, got %S" w)
      | Some i ->
        let key = String.sub w 0 i in
        let value = String.sub w (i + 1) (String.length w - i - 1) in
        if not (List.mem key allowed) then
          Error (Printf.sprintf "unknown field %S" key)
        else if List.mem_assoc key acc then
          Error (Printf.sprintf "duplicate field %S" key)
        else
          match float_of_string_opt value with
          | Some v when Float.is_finite v -> go ((key, v) :: acc) rest
          | _ -> Error (Printf.sprintf "bad number for %S: %S" key value))
  in
  go [] words

let parse line =
  match split_words line with
  | [] -> Error "empty request"
  | verb :: rest when String.length verb > 0 && verb.[0] = '#' ->
    ignore rest;
    Error "comment line"
  | verb :: rest -> (
    let fields ?(positional = false) allowed k =
      (* A leading word without '=' is the positional name; everything
         else is key=value fields.  One pass, and an error in the tail
         is reported as the tail's error, not as the name failing to
         parse as a field. *)
      match rest with
      | name :: rest' when positional && not (String.contains name '=') -> (
        match parse_fields rest' ~allowed with
        | Ok f -> k (Some name) f
        | Error e -> Error e)
      | _ -> (
        match parse_fields rest ~allowed with
        | Ok f -> k None f
        | Error e -> Error e)
    in
    match verb with
    | "add" ->
      fields ~positional:true [ "t"; "size" ] (fun name f ->
          Ok
            (Add
               {
                 conn = name;
                 time = List.assoc_opt "t" f;
                 size = List.assoc_opt "size" f;
               }))
    | "batch" ->
      if rest = [] then Ok Batch_begin else Error "batch takes no arguments"
    | "end" ->
      if rest = [] then Ok Batch_end else Error "end takes no arguments"
    | "remove" -> (
      match rest with
      | name :: rest' when not (String.contains name '=') -> (
        match parse_fields rest' ~allowed:[ "t" ] with
        | Ok f -> Ok (Remove { conn = name; time = List.assoc_opt "t" f })
        | Error e -> Error e)
      | _ -> Error "remove needs a connection name")
    | "query" -> (
      match parse_fields rest ~allowed:[ "t" ] with
      | Ok f -> Ok (Query { time = List.assoc_opt "t" f })
      | Error e -> Error e)
    | "stats" -> (
      match parse_fields rest ~allowed:[ "t" ] with
      | Ok f -> Ok (Stats { time = List.assoc_opt "t" f })
      | Error e -> Error e)
    | "metrics" -> (
      match rest with
      | [] -> Ok (Metrics { prom = false })
      | [ "prom" ] -> Ok (Metrics { prom = true })
      | _ -> Error "metrics takes at most one argument: prom")
    | "snapshot" ->
      if rest = [] then Ok Snapshot else Error "snapshot takes no arguments"
    | "shutdown" ->
      if rest = [] then Ok Shutdown else Error "shutdown takes no arguments"
    | v -> Error (Printf.sprintf "unknown request %S" v))

let render_time = function
  | None -> ""
  | Some t -> Printf.sprintf " t=%s" (Ffc_obs.Jsonf.float_rt t)

let render = function
  | Add { conn; time; size } ->
    "add"
    ^ (match conn with None -> "" | Some c -> " " ^ c)
    ^ render_time time
    ^ (match size with
      | None -> ""
      | Some s -> Printf.sprintf " size=%s" (Ffc_obs.Jsonf.float_rt s))
  | Batch_begin -> "batch"
  | Batch_end -> "end"
  | Remove { conn; time } -> "remove " ^ conn ^ render_time time
  | Query { time } -> "query" ^ render_time time
  | Stats { time } -> "stats" ^ render_time time
  | Metrics { prom } -> if prom then "metrics prom" else "metrics"
  | Snapshot -> "snapshot"
  | Shutdown -> "shutdown"

let verb = function
  | Add _ -> "add"
  | Batch_begin -> "batch"
  | Batch_end -> "end"
  | Remove _ -> "remove"
  | Query _ -> "query"
  | Stats _ -> "stats"
  | Metrics _ -> "metrics"
  | Snapshot -> "snapshot"
  | Shutdown -> "shutdown"

(* ------------------------------------------------------------------ *)
(* Reply fields                                                        *)
(* ------------------------------------------------------------------ *)

let reply_field conv line ~key =
  match Ffc_obs.Jsonf.of_string line with
  | Ok v -> Ffc_obs.Jsonf.get conv key v
  | Error _ -> None

let json_string_field line ~key = reply_field Ffc_obs.Jsonf.as_string line ~key
let json_number_field line ~key = reply_field Ffc_obs.Jsonf.as_float line ~key
let json_bool_field line ~key = reply_field Ffc_obs.Jsonf.as_bool line ~key
