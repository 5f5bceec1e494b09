(* Aggregate a JSONL trace into a per-phase breakdown: for every span
   name, how many spans closed and how much wall time / minor-heap
   allocation they covered ("where did the admission budget go").
   Service decisions are tallied by tier and by decision alongside, so
   the report can be cross-checked against the daemon's own `stats`
   counters.

   Works line by line — every event this repo emits is a one-line JSON
   object, parsed with Jsonf.of_string — so it handles multi-gigabyte
   traces in constant memory.  Wall totals are *inclusive*: a parent
   span's time contains its children's (the spans nest, the table does
   not). *)

type phase = {
  ph_name : string;
  ph_count : int; (* span.end events *)
  ph_wall_ns : int; (* total inclusive wall time *)
  ph_alloc_w : int; (* total minor words allocated *)
}

type acc = {
  phases : (string, int * int * int) Hashtbl.t; (* name -> count, wall, alloc *)
  tiers : (string, int) Hashtbl.t; (* svc.decision tier -> count *)
  decisions : (string, int) Hashtbl.t; (* svc.decision decision -> count *)
  mutable events : int; (* parseable event lines *)
  mutable starts : int; (* span.start events *)
  mutable ends : int; (* span.end events *)
  mutable other : int; (* non-event / unparseable lines *)
}

let create () =
  {
    phases = Hashtbl.create 32;
    tiers = Hashtbl.create 8;
    decisions = Hashtbl.create 8;
    events = 0;
    starts = 0;
    ends = 0;
    other = 0;
  }

let bump tbl key =
  Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))

let add_line acc line =
  if String.trim line <> "" then
    let ev = Result.to_option (Jsonf.of_string line) in
    let field conv key = Option.bind ev (Jsonf.get conv key) in
    match field Jsonf.as_string "ev" with
    | None -> acc.other <- acc.other + 1
    | Some kind ->
      acc.events <- acc.events + 1;
      let count key = int_of_float (Option.value ~default:0. (field Jsonf.as_float key)) in
      (match kind with
      | "span.start" -> acc.starts <- acc.starts + 1
      | "span.end" -> (
        acc.ends <- acc.ends + 1;
        match field Jsonf.as_string "name" with
        | None -> ()
        | Some name ->
          let c, w, a =
            Option.value ~default:(0, 0, 0) (Hashtbl.find_opt acc.phases name)
          in
          Hashtbl.replace acc.phases name
            (c + 1, w + count "wall_ns", a + count "alloc_w"))
      | "svc.decision" ->
        Option.iter (bump acc.tiers) (field Jsonf.as_string "tier");
        Option.iter (bump acc.decisions) (field Jsonf.as_string "decision")
      | _ -> ())

let of_lines lines =
  let acc = create () in
  List.iter (add_line acc) lines;
  acc

(* Sorted heaviest-first (ties and the all-zero --trace-deterministic
   case fall back to name order, keeping the table reproducible). *)
let phases acc =
  Hashtbl.fold
    (fun name (c, w, a) rows ->
      { ph_name = name; ph_count = c; ph_wall_ns = w; ph_alloc_w = a } :: rows)
    acc.phases []
  |> List.sort (fun x y ->
         match compare y.ph_wall_ns x.ph_wall_ns with
         | 0 -> String.compare x.ph_name y.ph_name
         | c -> c)

let assoc_sorted tbl =
  Hashtbl.fold (fun k v rows -> (k, v) :: rows) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let tiers acc = assoc_sorted acc.tiers
let decisions acc = assoc_sorted acc.decisions
let events acc = acc.events
let unmatched_starts acc = acc.starts - acc.ends

let render acc =
  let buf = Buffer.create 1024 in
  let rows = phases acc in
  Printf.bprintf buf "%-28s %10s %14s %14s\n" "phase" "count" "wall_ms"
    "alloc_kw";
  List.iter
    (fun p ->
      Printf.bprintf buf "%-28s %10d %14.3f %14.1f\n" p.ph_name p.ph_count
        (float_of_int p.ph_wall_ns /. 1e6)
        (float_of_int p.ph_alloc_w /. 1e3))
    rows;
  if rows = [] then Buffer.add_string buf "(no spans in trace)\n";
  Printf.bprintf buf "spans: %d closed" acc.ends;
  let dangling = unmatched_starts acc in
  if dangling > 0 then Printf.bprintf buf " (%d unmatched starts)" dangling;
  Printf.bprintf buf "; events: %d" acc.events;
  if acc.other > 0 then Printf.bprintf buf "; non-event lines: %d" acc.other;
  Buffer.add_char buf '\n';
  let tier_rows = tiers acc in
  if tier_rows <> [] then begin
    Buffer.add_string buf "service tiers:";
    List.iter (fun (t, n) -> Printf.bprintf buf " %s=%d" t n) tier_rows;
    Buffer.add_char buf '\n'
  end;
  let dec_rows = decisions acc in
  if dec_rows <> [] then begin
    Buffer.add_string buf "service decisions:";
    List.iter (fun (d, n) -> Printf.bprintf buf " %s=%d" d n) dec_rows;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let render_json acc =
  let counts rows = Jsonf.Object (List.map (fun (k, n) -> (k, Jsonf.int n)) rows) in
  let phase p =
    Jsonf.Object
      [
        ("name", String p.ph_name);
        ("count", Jsonf.int p.ph_count);
        ("wall_ns", Jsonf.int p.ph_wall_ns);
        ("alloc_w", Jsonf.int p.ph_alloc_w);
      ]
  in
  Jsonf.to_string
    (Object
       [
         ("phases", Array (List.map phase (phases acc)));
         ("tiers", counts (tiers acc));
         ("decisions", counts (decisions acc));
         ("spans", Jsonf.int acc.ends);
         ("unmatched_starts", Jsonf.int (Stdlib.max 0 (unmatched_starts acc)));
         ("events", Jsonf.int acc.events);
       ])
