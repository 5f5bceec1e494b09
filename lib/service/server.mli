(** The gateway service server: session dispatch, snapshot cadence, and
    the Unix-domain-socket daemon behind [ffc serve].

    The server wraps an {!Admission} engine with the requests the engine
    refuses to own — [snapshot] and [shutdown] — the per-session [batch]
    bracket state, plus crash safety: once [snapshot_every] committed
    mutations have accumulated since the last snapshot the state is
    automatically published to [snapshot_path] ({!Snapshot.write}'s
    fsync'd atomic rename), shutdown publishes a final snapshot, and
    {!recover} adopts whatever snapshot a previous incarnation left
    behind.  Kill the daemon at any point and the restarted server
    resumes from a state at most [snapshot_every] mutations old; restart
    immediately after a snapshot and the resumed state is bit-identical
    (the CI smoke job re-snapshots and diffs).

    {b Concurrency model.}  The daemon is a single-threaded
    [Unix.select] event loop serving many sessions at once: per-session
    read/write buffers, non-blocking writes (a slow reader never stalls
    another session's replies — a reader whose pending replies exceed
    1 MiB is shed instead), optional per-session idle timeouts, and a
    bounded session table with accept-time shedding past the limit.
    The {e admission engine} stays strictly serial behind its logical
    clock: requests are executed one at a time in the order the loop
    reads them, so the decision log is a pure function of the global
    request arrival order — byte-identical however that order is
    distributed over sessions.  Transient [accept] errors never kill
    the daemon ({!classify_accept_error}).

    {b Batch brackets} are session state: [batch] opens a bracket,
    subsequent [add]s buffer silently, [end] admits them as one
    {!Admission.handle_batch} rank-k solve and flushes one reply per
    member plus a summary.  A session that disconnects with an open
    bracket discards it — a bracket is never applied implicitly. *)

type t

val create : ?snapshot_path:string -> ?snapshot_every:int -> Admission.t -> t
(** [snapshot_every] defaults to 16 mutations; no [snapshot_path] means
    snapshotting is off ([snapshot] requests report an error). *)

val engine : t -> Admission.t

val recover : t -> (bool, string) result
(** Restore from [snapshot_path] if a snapshot exists there:
    [Ok true] restored, [Ok false] nothing to restore, [Error] the file
    exists but is corrupt or from a different configuration (the server
    must refuse to start rather than serve from a wrong state). *)

type session
(** Per-client protocol state: the session id (tagged on request spans)
    and the open batch bracket, if any. *)

val new_session : ?sid:int -> unit -> session
(** A fresh session.  [sid] defaults to 0 (the scripted/in-process
    session); the daemon numbers accepted sessions 1, 2, ... per run,
    so sids — and the span attributes carrying them — stay
    deterministic. *)

val handle_session_line :
  t ->
  session ->
  string ->
  [ `Replies of string list | `Silent | `Quit of string list ]
(** Serve one request line within [session].  Blank lines and [#]
    comments are [`Silent] (scripts stay annotatable); parse errors get
    an [ok:false] reply that still consumes a sequence number, so the
    decision log stays aligned across replays.  [batch] and buffered
    adds are [`Silent]; [end] returns the whole bracket's replies at
    once.  [`Quit] carries the final replies — shutdown after writing
    them. *)

val run_script : t -> string list -> string list
(** Feed lines through {!handle_session_line} on a single fresh session
    (so [batch ... end] brackets work), collecting replies; stops after
    a shutdown line.  The in-process transport used by tests and
    [ffc serve --script]. *)

val classify_accept_error :
  Unix.error -> [ `Retry | `Ignore | `Backoff | `Fatal ]
(** How the event loop treats a failing [Unix.accept]: [`Retry]
    immediately ([EINTR]), [`Ignore] the vanished client and move on
    ([ECONNABORTED]/[EAGAIN]/[EWOULDBLOCK]), [`Backoff] — stop accepting
    this round but keep serving existing sessions ([EMFILE]/[ENFILE]/
    [ENOBUFS]/[ENOMEM]), [`Fatal] re-raise (a real bug must surface). *)

val serve : ?max_sessions:int -> ?idle_timeout:float -> t -> socket:string -> unit
(** Bind [socket] (an existing stale socket file is replaced) and run
    the event loop until a [shutdown] request or a signal.  At most
    [max_sessions] (default 64) concurrent sessions; connections past
    the limit receive one shed line and are closed at accept.
    [idle_timeout] > 0 closes sessions with no traffic for that many
    seconds (default 0 = never).  On shutdown, pending replies are
    drained (bounded grace period) and the socket file is removed. *)
