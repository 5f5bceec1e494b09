(** Crash-safe service state snapshots.

    A snapshot is the whole resumable state of the admission engine —
    active mask, steady-state rates (exact IEEE doubles via
    {!Ffc_obs.Jsonf.float_rt}), logical clock, ladder position and
    counters — rendered to a deterministic text format and published
    with the write-to-temp + atomic-rename idiom, so a reader (or a
    restarted server) only ever sees a complete snapshot, never a torn
    one.  Rendering is a pure function of the state: re-snapshotting an
    untouched restored engine reproduces the pre-crash file
    byte-for-byte — the recovery check the CI smoke job asserts.

    The [digest] field fingerprints the engine's configuration
    (topology, adjusters, signal, admission thresholds); {!Admission}
    refuses to restore a snapshot taken under a different
    configuration.  DF is deliberately {e not} persisted: {!Admission}
    rebuilds it (bit-identically, and warm from the result cache when
    one is installed) at the restored rates while restoring. *)

type state = {
  digest : string;  (** Config fingerprint (hex). *)
  seq : int;  (** Requests processed. *)
  mutations : int;  (** Committed joins/leaves. *)
  vclock : float;  (** Logical work clock. *)
  last_time : float;  (** Latest request arrival time. *)
  active : bool array;
  rates : float array;  (** Full-length vector; 0 at inactive slots. *)
  rho : float;  (** Last spectral-radius value. *)
  rho_fresh : bool;  (** Whether [rho] was computed at [rates] or is a
                         cached-tier estimate. *)
  last_tier : string;  (** Ladder tier of the last served mutation. *)
  counters : (string * int) list;  (** In canonical render order. *)
}

val render : state -> string
(** The exact file contents (deterministic; ends with a newline). *)

val write : path:string -> state -> int
(** Atomically publish to [path] (temp file + rename); returns the byte
    count.  Raises [Sys_error]/[Unix.Unix_error] on I/O failure. *)

val load : path:string -> (state, string) result
(** Parse a snapshot file; [Error] describes the first malformed line
    (corrupt snapshots are reported, never silently half-loaded). *)
