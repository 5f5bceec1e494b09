(** The ffc executable's exit-code contract, in one place.

    Scripts and the CI jobs branch on these numbers, so they are part of
    the CLI's public interface: 0 success, 1 usage or input error
    (cmdliner also uses 1 for its own parse errors), 3 a supervised or
    analyzed run diverged, 4 a run hit its step budget without
    converging, 5 the gateway service failed to start or recover, 6 a
    benchmark comparison failed: a row slowed down past its tolerance,
    a row was removed, or a row's identity check reads
    ["identical": false]. *)

val ok : int
val usage : int
val diverged : int
val no_convergence : int
val service_failure : int
val regression : int

val fail : string -> 'a
(** Print [ffc: msg] on stderr and exit with {!usage}. *)

val fail_service : string -> 'a
(** Print [ffc: msg] on stderr and exit with {!service_failure}. *)

val of_outcomes : Ffc_core.Controller.outcome list -> unit
(** Exit with {!diverged} or {!no_convergence} (with the verdict on
    stderr) when any outcome ended badly; return otherwise.  Converged
    and limit-cycle outcomes are successes. *)
