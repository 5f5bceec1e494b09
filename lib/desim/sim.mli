(** Discrete-event simulation core: a clock and an event calendar.

    Events execute in timestamp order (ties broken by scheduling order);
    executing an event may schedule further events.  Time never flows
    backwards.

    An entity registers its handler once at construction ({!register})
    and then schedules coded events [(handler, a, b)] — no closure and no
    heap node per event.  The calendar is a {!Timing_wheel}; its
    ordering contract is exactly that of the reference {!Event_heap},
    which the test suite checks it against. *)

type t

val create : ?events_per_time:float -> unit -> t
(** [events_per_time] is the expected number of events per unit of
    simulated time (default 64).  The wheel's tick is the mean event
    spacing it implies, clamped to [[1e-9, 1e6]], which keeps the
    wheel's ready-heap near one event per tick.  Any tick is correct:
    the estimate never affects results. *)

val now : t -> float
(** Current simulation time (0 before the first event). *)

val register : t -> (int -> int -> unit) -> int
(** Registers an event handler and returns its code for
    {!schedule_code}.  Handlers live for the simulation's lifetime. *)

val schedule_code : t -> at:float -> handler:int -> a:int -> b:int -> unit
(** Schedules [(handler, a, b)] at absolute time [at].  Raises
    [Invalid_argument] when [at] is in the past or non-finite. *)

val schedule_code_after : t -> delay:float -> handler:int -> a:int -> b:int -> unit
(** [delay] must be non-negative and finite. *)

val step : t -> bool
(** Executes the next event; [false] when the calendar is empty. *)

val run : ?until:float -> t -> unit
(** Executes events until the calendar empties or the next event is past
    [until]; the clock is then advanced to [until] when given (so
    time-weighted measurements can close their window there).  Running
    to a warm-up instant, resetting measurements and running on is how
    a caller opens a measurement window. *)

val pending : t -> int
(** Number of scheduled events. *)

val events : t -> int
(** Events executed so far — the simulator's work counter. *)
