(* The repo's one JSON module: the float format and string escaper every
   renderer shares (trace events, metric snapshots, provenance
   manifests, CSV export), so numbers round-trip identically
   everywhere; and one value type with a strict parser and a compact
   printer, for every reader (replies, traces, BENCH.json, run stats). *)

(* Round-trip float text: %.17g prints enough digits that reading the
   string back recovers the exact double. *)
let float_rt x = Printf.sprintf "%.17g" x

(* JSON has no non-finite numbers; render them as null. *)
let float_json x = if Float.is_finite x then float_rt x else "null"

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

let add_obj buf add_value fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_escaped buf k;
      Buffer.add_char buf ':';
      add_value buf v)
    fields;
  Buffer.add_char buf '}'

let obj fields =
  let buf = Buffer.create 192 in
  add_obj buf Buffer.add_string fields;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

type number = string

type t =
  | Null
  | Bool of bool
  | Number of number
  | String of string
  | Array of t list
  | Object of (string * t) list

let float x = if Float.is_finite x then Number (float_rt x) else Null
let int i = Number (string_of_int i)

let rec add buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Number n -> Buffer.add_string buf n
  | String s -> add_escaped buf s
  | Array vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add buf v)
      vs;
    Buffer.add_char buf ']'
  | Object fields -> add_obj buf add fields

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf

let member key = function Object fields -> List.assoc_opt key fields | _ -> None
let get conv key v = Option.bind (member key v) conv
let as_float = function Number n -> Some (float_of_string n) | _ -> None
let as_int = function Number n -> int_of_string_opt n | _ -> None
let as_bool = function Bool b -> Some b | _ -> None
let as_string = function String s -> Some s | _ -> None

(* ------------------------------------------------------------------ *)
(* Strict parser (RFC 8259)                                            *)
(* ------------------------------------------------------------------ *)

exception Syntax of int * string

(* Containers nested deeper than this are refused rather than risking
   the stack; nothing this repo writes goes past depth 4. *)
let max_depth = 512

let of_string s =
  let len = String.length s in
  let pos = ref 0 in
  let fail why = raise (Syntax (!pos, why)) in
  let peek () = if !pos < len then s.[!pos] else fail "unexpected end of input" in
  let rec skip_ws () =
    if !pos < len then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    incr pos
  in
  let literal word v =
    let n = String.length word in
    if !pos + n <= len && String.sub s !pos n = word then begin
      pos := !pos + n;
      v
    end
    else fail "bad literal"
  in
  let digits () =
    let start = !pos in
    while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do
      incr pos
    done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    (match peek () with
    | '0' -> incr pos
    | '1' .. '9' -> digits ()
    | _ -> fail "expected a digit");
    if !pos < len && s.[!pos] = '.' then begin
      incr pos;
      digits ()
    end;
    if !pos < len && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      incr pos;
      if !pos < len && (s.[!pos] = '+' || s.[!pos] = '-') then incr pos;
      digits ()
    end;
    Number (String.sub s start (!pos - start))
  in
  let hex4 () =
    if !pos + 4 > len then fail "short \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  (* Strings are byte strings: bytes >= 0x80 pass through unchecked (the
     printer emits them raw), \u escapes decode to UTF-8. *)
  let escape buf =
    let c = peek () in
    incr pos;
    match c with
    | '"' | '\\' | '/' -> Buffer.add_char buf c
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'u' ->
      let u = hex4 () in
      let code =
        if u >= 0xD800 && u <= 0xDBFF then begin
          if not (!pos + 2 <= len && s.[!pos] = '\\' && s.[!pos + 1] = 'u') then
            fail "unpaired surrogate";
          pos := !pos + 2;
          let lo = hex4 () in
          if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
          0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00)
        end
        else if u >= 0xDC00 && u <= 0xDFFF then fail "unpaired surrogate"
        else u
      in
      Buffer.add_utf_8_uchar buf (Uchar.of_int code)
    | _ ->
      decr pos;
      fail "bad escape"
  in
  let str () =
    expect '"';
    let start = !pos in
    (* Fast path: no escapes, one [String.sub]. *)
    while !pos < len && s.[!pos] <> '"' && s.[!pos] <> '\\' && s.[!pos] >= ' ' do
      incr pos
    done;
    if !pos < len && s.[!pos] = '"' then begin
      incr pos;
      String.sub s start (!pos - start - 1)
    end
    else begin
      let buf = Buffer.create 32 in
      Buffer.add_substring buf s start (!pos - start);
      let rec go () =
        match peek () with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          escape buf;
          go ()
        | c when c < ' ' -> fail "raw control byte in string"
        | c ->
          incr pos;
          Buffer.add_char buf c;
          go ()
      in
      go ();
      Buffer.contents buf
    end
  in
  (* [items close item] parses "item, item, ... close" after the opening
     bracket. *)
  let items close item =
    skip_ws ();
    if peek () = close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | ',' ->
          incr pos;
          skip_ws ();
          go acc
        | c when c = close ->
          incr pos;
          List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      go []
  in
  let rec value depth =
    skip_ws ();
    match peek () with
    | '{' ->
      if depth >= max_depth then fail "nesting too deep";
      incr pos;
      Object
        (items '}' (fun () ->
             let k = str () in
             skip_ws ();
             expect ':';
             (k, value (depth + 1))))
    | '[' ->
      if depth >= max_depth then fail "nesting too deep";
      incr pos;
      Array (items ']' (fun () -> value (depth + 1)))
    | '"' -> String (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | _ -> fail "unexpected character"
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos < len then fail "trailing data";
    v
  with
  | v -> Ok v
  | exception Syntax (at, why) -> Error (at, why)
