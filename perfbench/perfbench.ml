(* Workload runner of the end-to-end benchmark (see README.md).

   [run.py] builds this executable and calls it once per measurement.
   It drives the real programs from outside — the [ffc serve] daemon over
   its Unix socket, [Registry.run_all], [Netsim.run] — and prints one JSON
   object on its last stdout line with the raw measurements: latency
   samples, per-pass timings, exact work counts, and the paths of the
   traces it captured.  [run.py] turns those into metrics.

   Usage:
     perfbench.exe gateway WORKLOAD SEED SECONDS TRACE FFC DIR
     perfbench.exe repro TRACE DIR RENDERS
     perfbench.exe desim SEED SECONDS TRACE DIR

   TRACE is 0 or 1.  With 1 the runner adds one traced pass after an
   untraced one; it wraps its own spans ([bench.*]) around each call it
   makes and adds none inside the program.  RENDERS is the file that
   keeps the run_one renders of these sources (see [write_renders]). *)

open Ffc_core
open Ffc_topology
open Ffc_service

(* Parallelism of every workload: ffc serve --jobs, run_all ~jobs, desim
   shards and jobs. *)
let jobs = 2

let now = Unix.gettimeofday

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* JSON output                                                         *)
(* ------------------------------------------------------------------ *)

let jstr = Ffc_obs.Jsonf.string
let jint = string_of_int
let jfloat x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"
let jarr items = "[" ^ String.concat "," items ^ "]"

let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields) ^ "}"

let jcounts tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare
  |> List.map (fun (k, v) -> (k, jint v))
  |> jobj

let bump tbl key = Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let metrics_json ctx =
  Ffc_obs.Metrics.render_json_line
    (Ffc_obs.Metrics.snapshot (Ffc_obs.Ctx.metrics ctx))

(* Peak resident set of a process, from /proc ([pid] "self" for this one). *)
let vm_hwm_kb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> 0
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           match String.split_on_char ':' l with
           | [ "VmHWM"; v ] ->
             int_of_string_opt
               (String.trim (Filename.chop_suffix (String.trim v) "kB"))
           | _ -> None)
    |> Option.value ~default:0

(* User plus system time of a live process, in clock ticks
   (/proc/PID/stat fields 14 and 15). *)
let cpu_ticks pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all
  with
  | exception Sys_error _ -> 0
  | text -> (
    let after = String.sub text (String.rindex text ')' + 2) (String.length text - String.rindex text ')' - 2) in
    match String.split_on_char ' ' after with
    | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: utime :: stime :: _ ->
      int_of_string utime + int_of_string stime
    | _ -> 0)

(* Runs [f] under a fresh observability context whose trace goes to a
   memory buffer (pool scheduling events on, high-frequency events
   sampled away), then writes the trace to [path].  Returns [f]'s
   result, the context and [f]'s wall time. *)
let traced ~path f =
  let sink = Ffc_obs.Sink.buffer () in
  let ctx = Ffc_obs.Ctx.make ~sink ~stride:(1 lsl 30) ~sched:true () in
  let t0 = now () in
  let r = Ffc_obs.Ctx.with_ctx ctx f in
  let wall = now () -. t0 in
  Ffc_obs.Sink.write_file ~path (Ffc_obs.Sink.contents sink);
  (r, ctx, wall)

(* ------------------------------------------------------------------ *)
(* Gateway: the ffc serve daemon over its socket                       *)
(* ------------------------------------------------------------------ *)

type gateway = {
  rate : float;
  size : Churn.size_dist;
  batch : int;
  query_every : int;
  clients : int;
  arrivals : int;  (** Per stream. *)
  streams_per_s : float;  (** A run drives [seconds * streams_per_s] streams. *)
}

let gateway_workload = function
  | "gateway-calm" ->
    { rate = 2.; size = Churn.Exp 1.; batch = 1; query_every = 0; clients = 1; arrivals = 300;
      streams_per_s = 0.4 }
  | "gateway-surge" ->
    { rate = 100.; size = Churn.Exp 0.25; batch = 8; query_every = 50; clients = 2; arrivals = 1000;
      streams_per_s = 0.8 }
  | w -> failwith ("unknown gateway workload " ^ w)

let lots = 64
let hops = 3
let preset = Printf.sprintf "multi-parking-lot:%d:%d" lots hops

(* The engine [ffc serve --preset multi-parking-lot:64:3] builds with
   its default flags (additive:0.1:0.5 adjusters, no faults, no
   supervisor retries). *)
let make_server () =
  let net = Topologies.multi_parking_lot ~lots ~hops () in
  let n = Network.num_connections net in
  let adjusters = Array.make n (Rate_adjust.additive ~eta:0.1 ~beta:0.5) in
  let config =
    { Admission.default_config with sup_retries = 0; plan = Ffc_faults.Fault.plan ~seed:0 [] }
  in
  let controller = Controller.create ~config:Feedback.individual_fair_share ~adjusters in
  Server.create (Admission.create ~config controller ~net)

(* One client write: a single request line, or a whole [batch ... end]
   bracket, with the replies the in-process server gave it. *)
type unit_ = { lines : string list; expected : string list; members : int }

(* Generates the request stream by running [Churn.run] against an
   in-process [Server] (departures depend on the admitted rates, so the
   stream needs replies to exist).  Sessions rotate exactly as in
   [ffc drive --clients N], so the recorded replies are the replay the
   daemon's answers must match byte for byte. *)
let generate w ~seed =
  let server = make_server () in
  let sessions = Array.init w.clients (fun i -> Server.new_session ~sid:(i + 1) ()) in
  let next = ref 0 in
  let pick () =
    let s = sessions.(!next) in
    next := (!next + 1) mod w.clients;
    s
  in
  let serve s line =
    match Server.handle_session_line server s line with
    | `Replies rs | `Quit rs -> rs
    | `Silent -> []
  in
  let units = ref [] in
  let send line =
    let rs = serve (pick ()) line in
    units := { lines = [ line ]; expected = rs; members = 1 } :: !units;
    String.concat "\n" rs
  in
  let send_batch lines =
    let s = pick () in
    let rs = List.concat_map (serve s) lines in
    units := { lines; expected = rs; members = List.length lines - 2 } :: !units;
    rs
  in
  let stats =
    Churn.run ~query_every:w.query_every ~batch:w.batch ~send_batch ~seed ~rate:w.rate
      ~arrivals:w.arrivals ~size_dist:w.size ~send ()
  in
  (Array.of_list (List.rev !units), stats, String.concat "\n" (serve sessions.(0) "stats"))

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let rec connect sock ~deadline =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () ->
    (* A daemon that stops answering fails the pass instead of hanging it. *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
    when now () < deadline ->
    Unix.close fd;
    (* Short, so that polling adds little to the measured set-up time. *)
    Unix.sleepf 0.0002;
    connect sock ~deadline

(* Waits for [pid] for up to [grace] seconds, then kills it. *)
let reap pid ~grace =
  let deadline = now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  go ()

(* Work counts: replies per op/tier/decision. *)
let count_reply counts r =
  let field k = Option.value ~default:"-" (Protocol.json_string_field r ~key:k) in
  bump counts (Printf.sprintf "%s/%s/%s" (field "op") (field "tier") (field "decision"))

type pass = {
  setup_s : float;  (** Spawn until the first unit's last reply. *)
  window_s : float;  (** First reply until the stream's last reply. *)
  requests : int;  (** Answered inside the window. *)
  samples : float list;  (** Per-request latency, ms, inside the window. *)
  unit_s : float array;  (** Per-unit write-to-last-reply time, every unit. *)
  attempted : int;
  failed : int;
  mismatches : string list;  (** First few (got, expected) pairs. *)
  counts : (string, int) Hashtbl.t;
  rss_kb : int;
  cpu_ticks : int;  (** The daemon's user + system time, clock ticks. *)
  extra : string list;  (** Replies to the post-stream verbs. *)
}

(* One pass of the stream through a freshly spawned daemon.  The loop is
   closed: each unit waits for its replies before the next is written,
   rotating over the client connections. *)
let drive_pass ~ffc ~dir ~trace_file ~clients ~post units =
  let sock = Filename.concat dir "gw.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let args =
    [ ffc; "serve"; "--preset"; preset; "--jobs"; string_of_int jobs; "--socket"; sock ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let t_spawn = now () in
  let pid = Unix.create_process ffc (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  Fun.protect ~finally:(fun () -> reap pid ~grace:20.) @@ fun () ->
  let conns = Array.init clients (fun _ -> connect sock ~deadline:(t_spawn +. 60.)) in
  let counts = Hashtbl.create 32 in
  let n = Array.length units in
  let unit_s = Array.make n 0. in
  let samples = ref [] and mismatches = ref [] in
  let attempted = Array.fold_left (fun a u -> a + u.members) 0 units in
  let failed = ref 0 and requests = ref 0 and served = ref 0 in
  let setup_s = ref 0. and t_first = ref 0. and t_last = ref 0. in
  (try
     Array.iteri
       (fun i u ->
         let c = conns.(i mod clients) in
         let t0 = now () in
         List.iter
           (fun l ->
             output_string c.oc l;
             output_char c.oc '\n')
           u.lines;
         flush c.oc;
         let got =
           List.map
             (fun _ ->
               let r = input_line c.ic in
               (r, now ()))
             u.expected
         in
         let bad = ref false in
         List.iter2
           (fun (r, _) e ->
             if r <> e then begin
               bad := true;
               if List.length !mismatches < 4 then mismatches := e :: r :: !mismatches
             end;
             if Protocol.json_bool_field r ~key:"ok" <> Some true then bad := true;
             count_reply counts r)
           got u.expected;
         if u.members > 1 then bump counts "brackets";
         if !bad then failed := !failed + u.members;
         served := !served + u.members;
         let t_end = snd (List.nth got (List.length got - 1)) in
         unit_s.(i) <- t_end -. t0;
         if i = 0 then begin
           setup_s := t_end -. t_spawn;
           t_first := t_end
         end
         else begin
           requests := !requests + u.members;
           List.iteri
             (fun k (_, t) -> if k < u.members then samples := ((t -. t0) *. 1e3) :: !samples)
             got
         end;
         t_last := t_end)
       units
   with End_of_file | Sys_error _ | Unix.Unix_error _ ->
     failed := !failed + attempted - !served;
     mismatches := "transport error" :: !mismatches);
  let ask line =
    try
      output_string conns.(0).oc (line ^ "\n");
      flush conns.(0).oc;
      input_line conns.(0).ic
    with End_of_file | Sys_error _ | Unix.Unix_error _ -> "{}"
  in
  let extra = List.map ask post in
  let rss_kb = vm_hwm_kb (string_of_int pid) in
  let cpu_ticks = cpu_ticks pid in
  ignore (ask "shutdown" : string);
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) conns;
  {
    setup_s = !setup_s;
    window_s = !t_last -. !t_first;
    requests = !requests;
    samples = !samples;
    unit_s;
    attempted;
    failed = !failed;
    mismatches = List.rev !mismatches;
    counts;
    rss_kb;
    cpu_ticks;
    extra;
  }

let pass_json p =
  jobj
    [
      ("setup_s", jfloat p.setup_s);
      ("window_s", jfloat p.window_s);
      ("requests", jint p.requests);
      ("attempted", jint p.attempted);
      ("failed", jint p.failed);
      ("mismatches", jarr (List.map jstr p.mismatches));
      ("counts", jcounts p.counts);
      ("rss_kb", jint p.rss_kb);
      ("cpu_ticks", jint p.cpu_ticks);
      ("unit_total_s", jfloat (Array.fold_left ( +. ) 0. p.unit_s));
      ("extra", jarr (List.map jstr p.extra));
    ]

(* Mean cost of [Protocol.parse] over every stream line, in µs. *)
let parse_us units =
  let lines = Array.of_list (List.concat_map (fun u -> u.lines) (Array.to_list units)) in
  let reps = max 1 (200_000 / max 1 (Array.length lines)) in
  let t0 = now () in
  for _ = 1 to reps do
    Array.iter (fun l -> ignore (Protocol.parse l : (Protocol.request, string) result)) lines
  done;
  (now () -. t0) *. 1e6 /. float_of_int (reps * Array.length lines)

let setup_probes = 15

let reply_counts units =
  let counts = Hashtbl.create 32 in
  Array.iter
    (fun u ->
      List.iter (count_reply counts) u.expected;
      if u.members > 1 then bump counts "brackets")
    units;
  counts

(* A run drives [seconds * streams_per_s] independent streams, stream [k]
   drawn from seed [100 * seed + k], each through its own daemon.  A
   stream's cost depends on its tier mix and on how many incremental ρ
   estimates need power iteration (surge streams differ by up to 2.5x),
   and a stream costs the same on every replay, so a run averages several
   streams.  Each stream is generated just before its pass, and the
   set-up probes are split among the streams, so the timed passes and
   probes spread over the whole run and sample more of the host's speed
   swings.  With [trace] the first stream runs untraced, then traced. *)
let gateway ~workload ~seed ~seconds ~trace ~ffc ~dir =
  let w = gateway_workload workload in
  let n = if trace then 1 else max 1 (Float.to_int (Float.round (seconds *. w.streams_per_s))) in
  let pass ?trace_file post units = drive_pass ~ffc ~dir ~trace_file ~clients:w.clients ~post units in
  let streams, probes =
    List.split
      (List.init n (fun k ->
           let s = (100 * seed) + k in
           let ((units, _, _) as g) = generate w ~seed:s in
           (* Set-up alone: spawn a daemon, serve the first unit, stop. *)
           let probes =
             List.init ((setup_probes + n - 1) / n) (fun _ -> pass [] [| units.(0) |])
           in
           (((s, g), pass [ "stats" ] units), probes)))
  in
  let probes = List.concat probes in
  let first = match streams with ((_, (units, _, _)), _) :: _ -> units | [] -> assert false in
  let trace_file = Filename.concat dir "gateway.trace.jsonl" in
  let traced_fields =
    if not trace then []
    else
      [
        ("traced", pass_json (pass ~trace_file [ "stats"; "metrics" ] first));
        ("trace_file", jstr trace_file);
        ("parse_us", jfloat (parse_us first));
      ]
  in
  let stream_json (s, (units, stats, expected_stats)) p =
    jobj
      [
        ("seed", jint s);
        ("expected_stats", jstr expected_stats);
        ("units", jint (Array.length units));
        ("requests", jint (Array.fold_left (fun a u -> a + u.members) 0 units));
        ("arrivals", jint stats.Churn.arrivals);
        ("departures", jint stats.Churn.departures);
        ("queries", jint stats.Churn.queries);
        ("expected_counts", jcounts (reply_counts units));
        ("pass", pass_json p);
      ]
  in
  print_endline
    (jobj
       ([
          ("mode", jstr "gateway");
          ("streams", jarr (List.map (fun (s, p) -> stream_json s p) streams));
          ("setup_probes_s", jarr (List.map (fun p -> jfloat p.setup_s) probes));
          ("probe_attempted", jint (List.fold_left (fun a p -> a + p.attempted) 0 probes));
          ("probe_failed", jint (List.fold_left (fun a p -> a + p.failed) 0 probes));
          ("latency_ms", jarr (List.concat_map (fun (_, p) -> List.map jfloat p.samples) streams));
        ]
       @ traced_fields))

(* ------------------------------------------------------------------ *)
(* repro-all: Registry.run_all ~jobs:2                                 *)
(* ------------------------------------------------------------------ *)

(* Every experiment alone through [Registry.run_one], in registry order:
   (id, seconds, length, digest) of each render, and the controller
   steps they took. *)
let run_each () =
  let ctx = Ffc_obs.Ctx.make () in
  let renders =
    Ffc_obs.Ctx.with_ctx ctx (fun () ->
        List.map
          (fun e ->
            let id = e.Ffc_experiments.Exp_common.id in
            let t0 = now () in
            let r = match Ffc_experiments.Registry.run_one id with Ok r -> r | Error e -> e in
            (id, Some (now () -. t0), String.length r, Digest.to_hex (Digest.string r)))
          Ffc_experiments.Registry.all)
  in
  let steps =
    match List.assoc_opt "controller.steps" (Ffc_obs.Metrics.snapshot (Ffc_obs.Ctx.metrics ctx)) with
    | Some (Ffc_obs.Metrics.Counter_v n) -> n
    | _ -> 0
  in
  (renders, steps)

(* The run_one renders depend only on the sources, so they are stored
   beside the other run files under a name that carries the source digest
   ("steps N", then one "id length digest" line per experiment), and an
   untraced run on the same sources checks run_all against them instead
   of rendering every experiment again. *)
let write_renders path renders steps =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      Printf.fprintf oc "steps %d\n" steps;
      List.iter (fun (id, len, d) -> Printf.fprintf oc "%s %d %s\n" id len d) renders);
  Sys.rename tmp path

let read_renders path =
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_text path (fun ic ->
        let steps = Scanf.sscanf (input_line ic) "steps %d" Fun.id in
        let rec lines acc =
          match input_line ic with
          | l -> lines (Scanf.sscanf l "%s %d %s" (fun id len d -> (id, len, d)) :: acc)
          | exception End_of_file -> List.rev acc
        in
        Some (lines [], steps))

let repro ~trace ~dir ~renders_file =
  Ffc_numerics.Pool.set_default_jobs jobs;
  let c0 = cpu_s () and t0 = now () in
  let out = Ffc_experiments.Registry.run_all ~jobs () in
  let wall = now () -. t0 and cpu = cpu_s () -. c0 in
  let rss_kb = vm_hwm_kb "self" in
  let traced_fields =
    if not trace then []
    else begin
      let path = Filename.concat dir "repro.trace.jsonl" in
      (* The traced run is set beside a warm untraced one, not the first. *)
      let t0 = now () in
      ignore (Ffc_experiments.Registry.run_all ~jobs () : string);
      let warm_wall = now () -. t0 in
      let out', ctx, wall =
        traced ~path (fun () ->
            Ffc_obs.Span.with_span "bench.run_all" (fun () ->
                Ffc_experiments.Registry.run_all ~jobs ()))
      in
      [
        ("warm_wall_s", jfloat warm_wall);
        ("traced_wall_s", jfloat wall);
        ("traced_identical", string_of_bool (out' = out));
        ("trace_file", jstr path);
        ("trace_metrics", metrics_json ctx);
      ]
    end
  in
  (* Each experiment's run_one render must equal its slice of the
     run_all output. *)
  let renders, steps, fresh =
    match if trace then None else read_renders renders_file with
    | Some (renders, steps) -> (List.map (fun (id, len, d) -> (id, None, len, d)) renders, steps, false)
    | None ->
      let renders, steps = run_each () in
      write_renders renders_file (List.map (fun (id, _, len, d) -> (id, len, d)) renders) steps;
      (renders, steps, true)
  in
  let off = ref 0 and failed = ref 0 in
  List.iter
    (fun (_, _, len, d) ->
      let same =
        !off + len <= String.length out && Digest.to_hex (Digest.string (String.sub out !off len)) = d
      in
      if not same then incr failed;
      off := !off + len + 1)
    renders;
  if !off - 1 <> String.length out then incr failed;
  print_endline
    (jobj
       ([
          ("mode", jstr "repro");
          ("wall_s", jfloat wall);
          ("cpu_s", jfloat cpu);
          ("rss_kb", jint rss_kb);
          ("attempted", jint (List.length renders));
          ("failed", jint (min !failed (List.length renders)));
          ( "experiments",
            jarr
              (List.map
                 (fun (id, dt, _, d) ->
                   jobj
                     ([ ("id", jstr id); ("digest", jstr d) ]
                     @ match dt with Some dt -> [ ("s", jfloat dt) ] | None -> []))
                 renders) );
          ("controller_steps", jint steps);
          ("renders", jstr (if fresh then "run_one" else "stored"));
        ]
       @ traced_fields))

(* ------------------------------------------------------------------ *)
(* desim-1e5: E27's 10^5-flow row                                      *)
(* ------------------------------------------------------------------ *)

let desim_lots = 25_000

(* E27's per-connection offered load: long flows 0.25, cross flows
   0.21–0.27. *)
let rate_of i = if i mod (hops + 1) = 0 then 0.25 else 0.21 +. (0.03 *. float_of_int (i mod 3))

let desim_setup () =
  let net =
    Ffc_obs.Span.with_span "bench.topology" (fun () ->
        Topologies.multi_parking_lot ~mu:1. ~latency:0.05 ~lots:desim_lots ~hops ())
  in
  (net, Array.init (Network.num_connections net) rate_of)

let desim_run ~seed ~shards (net, rates) =
  Ffc_obs.Span.with_span "bench.netsim" (fun () ->
      Ffc_desim.Netsim.run ~net ~rates ~discipline:Ffc_desim.Netsim.Fs_priority ~seed
        ~shards ~jobs ~horizon:20. ())

(* Events, deliveries, drops and every connection's mean delay (as IEEE
   bits): what must not depend on the shard count. *)
let fingerprint (net, _) r =
  let n = Network.num_connections net in
  let deliveries = ref 0 and drops = ref 0 in
  let delays = Buffer.create (n * 8) in
  for conn = 0 to n - 1 do
    deliveries := !deliveries + Ffc_desim.Netsim.deliveries r ~conn;
    drops := !drops + Ffc_desim.Netsim.drops r ~conn;
    Buffer.add_int64_le delays (Int64.bits_of_float (Ffc_desim.Netsim.delay_mean r ~conn))
  done;
  [
    ("events", jint (Ffc_desim.Netsim.events r));
    ("deliveries", jint !deliveries);
    ("drops", jint !drops);
    ("components", jint (Ffc_desim.Netsim.components r));
    ("delay_digest", jstr (Digest.to_hex (Digest.string (Buffer.contents delays))));
  ]

let desim ~seed ~seconds ~trace ~dir =
  Ffc_numerics.Pool.set_default_jobs jobs;
  let one () =
    let t0 = now () in
    let s = desim_setup () in
    let t1 = now () and c1 = cpu_s () in
    let r = desim_run ~seed ~shards:2 s in
    let t2 = now () and c2 = cpu_s () in
    jobj
      ([ ("setup_s", jfloat (t1 -. t0)); ("wall_s", jfloat (t2 -. t1)); ("cpu_s", jfloat (c2 -. c1)) ]
      @ fingerprint s r)
  in
  let t0 = now () in
  let first = one () in
  (* Peak memory of one pass in a fresh process: later passes only add
     heap growth that depends on how many passes fit in [seconds]. *)
  let rss_kb = vm_hwm_kb "self" in
  (* A traced run needs only a warm untraced pass to set beside the traced one. *)
  let rec loop acc =
    let fin = if trace then List.length acc >= 2 else now () -. t0 >= seconds in
    if fin then List.rev acc else loop (one () :: acc)
  in
  let passes = loop [ first ] in
  let traced_fields =
    if not trace then []
    else begin
      let path = Filename.concat dir "desim.trace.jsonl" in
      let j, ctx, _ = traced ~path one in
      [
        ("traced", j);
        ("trace_file", jstr path);
        ("trace_metrics", metrics_json ctx);
      ]
    end
  in
  (* The shard-invariance reference, outside the timed passes. *)
  let s = desim_setup () in
  let reference = jobj (fingerprint s (desim_run ~seed ~shards:1 s)) in
  print_endline
    (jobj
       ([
          ("mode", jstr "desim");
          ("passes", jarr passes);
          ("rss_kb", jint rss_kb);
          ("reference", reference);
        ]
       @ traced_fields))

let () =
  let argv = Array.to_list Sys.argv |> List.tl in
  let flag s = s = "1" in
  match argv with
  | [ "gateway"; workload; seed; seconds; trace; ffc; dir ] ->
    gateway ~workload ~seed:(int_of_string seed) ~seconds:(float_of_string seconds)
      ~trace:(flag trace) ~ffc ~dir
  | [ "repro"; trace; dir; renders_file ] -> repro ~trace:(flag trace) ~dir ~renders_file
  | [ "desim"; seed; seconds; trace; dir ] ->
    desim ~seed:(int_of_string seed) ~seconds:(float_of_string seconds) ~trace:(flag trace)
      ~dir
  | _ ->
    prerr_endline "usage: see the header of perfbench/perfbench.ml";
    exit 2
