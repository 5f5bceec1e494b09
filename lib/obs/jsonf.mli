(** The repo's one JSON module.

    The formatting primitives are shared by every renderer (trace
    events, metric snapshots, provenance manifests, service replies)
    and by the CSV export, so numbers print identically everywhere.
    The value type {!t} with its strict parser {!of_string} is what
    every reader uses: the churn driver's reply fields, the trace
    report, [ffc bench diff], the cache's run stats. *)

val float_rt : float -> string
(** [%.17g]: enough digits that parsing the text recovers the exact
    double.  Non-finite values print as [inf]/[-inf]/[nan] (not valid
    JSON — use {!float_json} inside JSON). *)

val float_json : float -> string
(** {!float_rt} for finite floats, ["null"] otherwise. *)

val string : string -> string
(** A quoted, escaped JSON string literal. *)

val add_escaped : Buffer.t -> string -> unit
(** {!string}, appended to a buffer. *)

val obj : (string * string) list -> string
(** A one-line object of already-rendered values, in field order. *)

(** {2 Values} *)

type number = private string
(** The literal text of a JSON number, checked against the JSON number
    grammar.  Numbers convert only on access ({!as_float}, {!as_int}),
    so a parse stays cheap and a re-print is byte-exact. *)

type t =
  | Null
  | Bool of bool
  | Number of number
  | String of string  (** Raw bytes; need not be UTF-8. *)
  | Array of t list
  | Object of (string * t) list  (** Fields in document order. *)

val float : float -> t
(** A number printed as {!float_rt}; non-finite floats become {!Null},
    as {!float_json} prints them. *)

val int : int -> t

val to_string : t -> string
(** Compact, one line, fields in order: the bytes {!obj}, {!string} and
    {!float_json} would produce for the same value. *)

val of_string : string -> (t, int * string) result
(** Strict RFC 8259 parse of one value, surrounding whitespace allowed.
    Trailing data, raw control bytes in strings, bad escapes (including
    unpaired surrogates), bad literals, numbers outside the JSON grammar
    and nesting deeper than 512 are refused with
    [Error (byte_offset, reason)].  Bytes [>= 0x80] in strings are kept
    as they are; [\u] escapes decode to UTF-8.  For every value [v],
    [of_string (to_string v) = Ok v]. *)

val member : string -> t -> t option
(** The field's value in an object (first occurrence); [None] for a
    missing key or a non-object. *)

val get : (t -> 'a option) -> string -> t -> 'a option
(** [get as_x key v] is {!member}, then the [as_x] conversion:
    [get as_int "hits" v]. *)

val as_float : t -> float option
val as_int : t -> int option
(** [None] unless the number's text is an integer literal. *)

val as_bool : t -> bool option
val as_string : t -> string option
