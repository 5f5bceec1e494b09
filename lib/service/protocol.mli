(** The gateway service's line protocol.

    One request per line, one JSON-object response per line.  Requests
    are plain text (easy to type into a socket by hand); responses are
    self-contained JSON objects rendered with {!Ffc_obs.Jsonf}, so the
    response stream doubles as the admission-decision log and obeys the
    trace byte-identity contract: model values and logical timestamps
    only, never wall-clock time.

    Request grammar (whitespace-separated; [key=value] fields may come
    in any order after the positional part):

    {v
    add [NAME] [t=TIME] [size=SIZE]     join: NAME picks a specific idle
                                        slot, omitted = first idle slot
    batch                               open a batch bracket: subsequent
                                        adds are buffered and admitted
                                        together on "end"
    end                                 close the bracket: one rank-k
                                        solve, one reply per member plus
                                        a trailing batch summary
    remove NAME [t=TIME]                leave
    query [t=TIME]                      status + supervised verdict
    stats [t=TIME]                      counters snapshot (never shed;
                                        stale=true when degraded)
    metrics [prom]                      live metrics registry, compact
                                        JSON or Prometheus text ("prom")
    snapshot                            force a state snapshot now
    shutdown                            snapshot (if configured) and stop
    v}

    [t] is the request's {e logical} arrival time (the churn driver
    stamps its Poisson arrivals); omitted means "immediately after the
    previous request".  [size] is the flow's document-size demand —
    recorded for the decision log and used by the churn driver to
    schedule the departure. *)

type add = { conn : string option; time : float option; size : float option }
(** The payload of one [add] request — also the unit a batch bracket
    accumulates. *)

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

val parse : string -> (request, string) result
(** Parse one request line.  Blank lines and [#]-comments are rejected
    with a descriptive error (the server replies with an error object
    rather than dying). *)

val render : request -> string
(** The canonical request line for [req] — [parse (render r)] is [Ok r].
    Used by the churn driver. *)

val verb : request -> string
(** The request's verb, the first word of its line (["add"], ["batch"],
    ["end"], ...). *)

(** {2 Reply fields}

    One top-level field of a reply line, read with the strict
    {!Ffc_obs.Jsonf.of_string} parser: [None] when the line is not a
    JSON object, lacks [key], or holds a value of another type there.
    Fields nested inside a value (a [query] reply's [verdict]) are not
    top-level and read as [None]. *)

val json_string_field : string -> key:string -> string option
val json_number_field : string -> key:string -> float option
val json_bool_field : string -> key:string -> bool option
