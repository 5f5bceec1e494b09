(** Measurement collection for simulation runs.

    Tracks time-weighted per-slot occupancy (the simulated counterpart of
    the model's mean queue lengths Q^a_i), end-to-end delay samples, and
    delivery counts.  [reset] discards history at the end of a warmup
    period while preserving instantaneous occupancy, so statistics cover
    only the measured window. *)

(** The collector: per-(connection, hop) occupancy slots are
    contiguous arrays addressed by precomputed offsets — no hashing, no
    key tuples, no allocation on the per-packet path.  {!Fabric} keeps
    one for {!Netsim} and both closed loops. *)
module Flat : sig
  type t

  val create : paths:int array array -> t
  (** One occupancy slot per (connection, hop): [paths.(i)] is
      connection [i]'s gateway path and only its length matters.
      Statistics windows start at time 0. *)

  val slot : t -> conn:int -> hop:int -> int
  (** The slot of connection [conn]'s [hop]-th gateway.  Only valid for
      [hop < length paths.(conn)]. *)

  val num_conns : t -> int

  val num_slots : t -> int

  val incr : t -> slot:int -> now:float -> unit

  val decr : t -> slot:int -> now:float -> unit
  (** Raises [Invalid_argument] when occupancy would go negative. *)

  val occupancy : t -> slot:int -> int

  val mean_occupancy : t -> slot:int -> now:float -> float
  (** Time-average occupancy since creation or the last [reset]. *)

  val reset : t -> now:float -> unit
  (** Restarts every statistic at [now], keeping occupancy levels. *)

  val record_delay : t -> conn:int -> float -> unit

  val delay_mean : t -> conn:int -> float

  val delay_ci95 : t -> conn:int -> float

  val delay_count : t -> conn:int -> int

  val delay_stats : t -> conn:int -> Ffc_numerics.Stats.running

  val count_delivery : t -> conn:int -> unit

  val deliveries : t -> conn:int -> int

  val count_drop : t -> conn:int -> unit

  val drops : t -> conn:int -> int
end
