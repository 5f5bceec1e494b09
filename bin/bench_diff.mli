(** The comparator behind [ffc bench diff OLD.json NEW.json].

    Parses both BENCH.json files with {!Ffc_obs.Jsonf.of_string} and
    compares every row — any object, in any section at any depth, with
    a string ["name"] and a number ["ns_per_run"] — under per-row
    slowdown tolerances. *)

val run :
  old_path:string -> new_path:string -> tolerance_specs:string list -> int
(** Print the delta table and return the process exit code:
    {!Exit_code.ok}, or {!Exit_code.regression} when any row slowed
    down past its tolerance, disappeared from [new_path], or carries
    ["identical": false] in [new_path] (the harness's own
    output-identity check failed).  A file that is not strict JSON, has
    no rows, or repeats a row name exits {!Exit_code.usage}, naming the
    byte offset of a syntax error.

    Each tolerance spec is either ["PCT"] (the default allowed slowdown
    percentage for every row, initially 100) or ["NAME=PCT"] for one
    row — split on the {e last} ['='], since row names may contain
    ['='].  A row that {e speeds up} past its tolerance is reported as
    improved but never fails the diff. *)
