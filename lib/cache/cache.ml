(* The result cache: ambient installation + the memo combinator.

   Mirrors Ffc_obs.Ctx: callers never thread a cache handle — memoized
   kernels probe the process-wide ambient slot, and with none installed
   a memo site costs one atomic load and a branch before running the
   computation as before.  Installation is a single Atomic.set, so pool
   domains racing an install observe the old or the new cache, never a
   torn one.

   Correctness contract: a hit must be indistinguishable from a miss.
   Payload codecs are bit-exact (Codec), keys cover every input (Key),
   and anything structurally wrong on disk — truncation, foreign bytes,
   a tier collision — decodes to Codec.Corrupt, which is demoted to a
   recomputation and counted as an eviction. *)

type t = {
  store : Store.t;
  schema : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores : int Atomic.t;
  evictions : int Atomic.t;
}

let create ?(dir = Store.default_root) ?(schema = Key.schema_version) () =
  {
    store = Store.create ~root:dir ();
    schema;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    stores = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let store t = t.store
let dir t = Store.root t.store

(* --- ambient slot ----------------------------------------------------- *)

let ambient : t option Atomic.t = Atomic.make None

let active () = Atomic.get ambient
let install t = Atomic.set ambient (Some t)
let clear_ambient () = Atomic.set ambient None

let with_cache t f =
  let prev = Atomic.get ambient in
  Atomic.set ambient (Some t);
  Fun.protect ~finally:(fun () -> Atomic.set ambient prev) f

(* --- counters --------------------------------------------------------- *)

type counters = { hits : int; misses : int; stores : int; evictions : int }

let counters (t : t) =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    stores = Atomic.get t.stores;
    evictions = Atomic.get t.evictions;
  }

let lookups c = c.hits + c.misses

let hit_ratio c =
  let l = lookups c in
  if l = 0 then 0. else float_of_int c.hits /. float_of_int l

let reset (t : t) =
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.stores 0;
  Atomic.set t.evictions 0

(* --- the memo combinator ---------------------------------------------- *)

let trace_lookup ~tier ~key ~hit =
  match Ffc_obs.Ctx.tracing () with
  | None -> ()
  | Some c -> Ffc_obs.Ctx.emit c (Ffc_obs.Event.cache_lookup ~tier ~key ~hit)

let trace_store ~tier ~key ~bytes =
  match Ffc_obs.Ctx.tracing () with
  | None -> ()
  | Some c -> Ffc_obs.Ctx.emit c (Ffc_obs.Event.cache_store ~tier ~key ~bytes)

let compute_and_store (t : t) ~tier ~hex ~encode compute =
  Atomic.incr t.misses;
  Ffc_obs.Ctx.incr_named "cache.misses";
  trace_lookup ~tier ~key:hex ~hit:false;
  let v = compute () in
  (* The "cache.put" span covers encode + publish only (the compute is
     the caller's own phase).  Miss-only, so — like the cache.lookup /
     cache.store events — it sits outside the cold/warm trace
     byte-identity contract. *)
  let stored =
    match Ffc_obs.Ctx.tracing () with
    | None ->
      let payload = encode v in
      if Store.save t.store ~tier ~hex payload then Some (String.length payload)
      else None
    | Some _ ->
      Ffc_obs.Span.with_span
        ~attrs:[ ("tier", Ffc_obs.Jsonf.string tier) ]
        "cache.put"
        (fun () ->
          let payload = encode v in
          if Store.save t.store ~tier ~hex payload then
            Some (String.length payload)
          else None)
  in
  (match stored with
  | Some bytes ->
    Atomic.incr t.stores;
    Ffc_obs.Ctx.incr_named "cache.stores";
    trace_store ~tier ~key:hex ~bytes
  | None -> ());
  v

let evict (t : t) =
  Atomic.incr t.evictions;
  Ffc_obs.Ctx.incr_named "cache.evictions"

let memo ~tier ~build ~encode ~decode compute =
  match active () with
  | None -> compute ()
  | Some t -> (
    let k = Key.create ~schema:t.schema ~tier () in
    build k;
    let hex = Key.hex k in
    (* The "cache.get" span covers the store probe only and fires on
       every lookup, hit or miss alike (no outcome attribute), so the
       span stream is identical between a cold and a warm run. *)
    let probe () = Store.load t.store ~tier ~hex in
    let loaded =
      match Ffc_obs.Ctx.tracing () with
      | None -> probe ()
      | Some _ ->
        Ffc_obs.Span.with_span
          ~attrs:[ ("tier", Ffc_obs.Jsonf.string tier) ]
          "cache.get" probe
    in
    match loaded with
    | Store.Miss -> compute_and_store t ~tier ~hex ~encode compute
    | Store.Evicted ->
      evict t;
      compute_and_store t ~tier ~hex ~encode compute
    | Store.Hit payload -> (
      match Codec.decode payload decode with
      | v ->
        Atomic.incr t.hits;
        Ffc_obs.Ctx.incr_named "cache.hits";
        trace_lookup ~tier ~key:hex ~hit:true;
        v
      | exception Codec.Corrupt _ ->
        (* Structurally valid entry whose payload does not decode —
           e.g. written by an older build under a colliding schema.
           Drop it and recompute. *)
        (try Sys.remove (Store.entry_path t.store ~hex) with Sys_error _ -> ());
        evict t;
        compute_and_store t ~tier ~hex ~encode compute))

(* --- memoized-string convenience -------------------------------------- *)

let memo_string ~tier ~build compute =
  memo ~tier ~build
    ~encode:(fun s -> Codec.encode (fun b -> Codec.put_string b s))
    ~decode:Codec.get_string compute

(* --- run stats -------------------------------------------------------- *)

let run_stats_json c ~ratio =
  Printf.sprintf
    "{\"hits\": %d, \"misses\": %d, \"stores\": %d, \"evictions\": %d, \
     \"hit_ratio\": %.6f}\n"
    c.hits c.misses c.stores c.evictions ratio

let write_run_stats t =
  let c = counters t in
  let path = Store.run_stats_path t.store in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc (run_stats_json c ~ratio:(hit_ratio c)));
    Sys.rename tmp path
  with Sys_error _ | Unix.Unix_error _ -> (
    try Sys.remove tmp with Sys_error _ -> ())

let read_run_stats store =
  match In_channel.with_open_bin (Store.run_stats_path store) In_channel.input_all with
  | exception Sys_error _ -> None
  | data -> (
    let module J = Ffc_obs.Jsonf in
    match J.of_string data with
    | Error _ -> None
    | Ok v -> (
      match
        ( J.get J.as_int "hits" v,
          J.get J.as_int "misses" v,
          J.get J.as_int "stores" v,
          J.get J.as_int "evictions" v,
          J.get J.as_float "hit_ratio" v )
      with
      | Some hits, Some misses, Some stores, Some evictions, Some ratio ->
        Some ({ hits; misses; stores; evictions }, ratio)
      | _ -> None))
