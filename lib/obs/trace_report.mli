(** Aggregate a JSONL trace into a per-phase time/alloc breakdown.

    Parses the repo's own one-line trace events with
    {!Jsonf.of_string}, one line at a time (constant memory): every [span.end]
    adds its [wall_ns]/[alloc_w] to its phase (span name), and every
    [svc.decision] is tallied by tier and by decision — the latter is
    what the acceptance check compares against the daemon's [stats]
    counters.

    Wall totals are {e inclusive}: a parent span's time contains its
    children's.  Under [--trace-deterministic] all wall/alloc totals
    are 0 and the table degrades to span counts. *)

type acc
(** A streaming accumulator. *)

type phase = {
  ph_name : string;
  ph_count : int;  (** closed spans *)
  ph_wall_ns : int;  (** total inclusive wall time *)
  ph_alloc_w : int;  (** total minor words allocated *)
}

val create : unit -> acc

val add_line : acc -> string -> unit
(** Feed one trace line.  Blank lines are skipped; lines without an
    top-level ["ev"] string (or that are not JSON) count as non-event
    lines; event kinds the report does
    not aggregate still count toward {!events}. *)

val of_lines : string list -> acc

val phases : acc -> phase list
(** Heaviest wall-time first; ties (and the all-zero deterministic
    case) in name order. *)

val tiers : acc -> (string * int) list
(** [svc.decision] counts by serving tier, name-sorted. *)

val decisions : acc -> (string * int) list
(** [svc.decision] counts by decision (admit/reject/ok/...),
    name-sorted. *)

val events : acc -> int
val unmatched_starts : acc -> int
(** [span.start]s without a matching [span.end] — nonzero means an
    exception escaped a raw start/finish pair or the trace was cut. *)

val render : acc -> string
(** The human table: phase rows (count, wall ms, alloc kw), span and
    event totals, service tier/decision tallies. *)

val render_json : acc -> string
(** One-line JSON: [{"phases":[...],"tiers":{...},"decisions":{...},
    "spans":N,"unmatched_starts":N,"events":N}]. *)
