(* The OCaml half of the benchmark (see README.md next to this file).

   run.py builds this executable next to the thinslice CLI and calls it:

     perfbench prepare --dir D --seed N --stmts S
         generate the seeded program, its query lines, edit sites and
         reference answers into D (untimed, before any timed process)
     perfbench setup --dir D --workload W --setups K
         time K set-ups of D's program in a process of their own
     perfbench cold-op --dir D --line L --spans 0|1
         one one-shot slice; with spans, the load and the query replayed
         as their public calls, each wrapped in a benchmark span
     perfbench run --dir D --workload W --seconds S --trace 0|1 --setups K
         the in-process workloads serve-hot and edit-30k

   Every command prints one JSON line of raw samples; run.py turns them
   into metrics.  Spans are recorded here, around calls into each
   layer's public functions, never inside the program. *)

open Slice_core
module Json = Slice_obs.Json
module Gen_tj = Slice_fuzz.Gen_tj
module Rng = Slice_fuzz.Fuzz_rng

let file = "prog.tj"
let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.

(* ------------------------------------------------------------------ *)
(* Command line, files, JSON access                                    *)
(* ------------------------------------------------------------------ *)

let args =
  let rec pairs acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      pairs ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> failwith ("perfbench: unexpected argument " ^ x)
  in
  lazy (pairs [] (List.tl (List.tl (Array.to_list Sys.argv))))

let arg k =
  match List.assoc_opt k (Lazy.force args) with
  | Some v -> v
  | None -> failwith ("perfbench: missing --" ^ k)

let int_arg k = int_of_string (arg k)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let member k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith ("perfbench: missing JSON member " ^ k)

let to_int = function Json.Int i -> i | _ -> failwith "perfbench: expected int"
let to_str = function Json.Str s -> s | _ -> failwith "perfbench: expected string"
let to_list = function Json.List l -> l | _ -> failwith "perfbench: expected list"
let floats l = Json.List (List.map (fun x -> Json.Float x) l)
let print_json j = print_endline (Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024. /. 1e6)

let words_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6

(* OCaml live heap after a full major collection, in MB. *)
let live_mb () =
  Gc.full_major ();
  words_mb (float_of_int (Gc.stat ()).Gc.live_words)

let top_heap_mb () = words_mb (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)
let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* One seeded edit: replace [old_] at byte offset [at] by [new_].  Both
   kinds keep every line where it was, so the delta sees a body edit:
   - "patched": the constant of a [cur.fi = a % 1001;] line — the
     constraint summary is unchanged, the Patched tier;
   - "resolved": the class of a [new S<f>_<0|1>()] allocation — the
     summary moves inside one method, the Resolved_incremental tier. *)
type edit = { at : int; old_ : string; new_ : string }

let apply src e =
  String.concat ""
    [ String.sub src 0 e.at; e.new_;
      String.sub src (e.at + String.length e.old_)
        (String.length src - e.at - String.length e.old_) ]

let find_all ~sub s =
  let n = String.length sub in
  let rec go i acc =
    if i > String.length s - n then List.rev acc
    else if s.[i] = sub.[0] && String.sub s i n = sub then go (i + n) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []

let patched_sites src =
  let pat = "cur.fi = a % 1001;" in
  List.map
    (fun i -> { at = i + 13; old_ = "1001"; new_ = "1002" })
    (find_all ~sub:pat src)

let resolved_sites src =
  List.map
    (fun i ->
      let at = i + 6 in
      let close = String.index_from src at '(' in
      let cls = String.sub src at (close - at) in
      let last = cls.[String.length cls - 1] in
      let flipped = if last = '0' then '1' else '0' in
      { at; old_ = cls;
        new_ = String.sub cls 0 (String.length cls - 1) ^ String.make 1 flipped })
    (find_all ~sub:"= new S" src)

(* Seeded choice of [k] distinct elements, in a seeded order. *)
let seeded_sample rng k l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

let thin_at line = Engine.Q_slice { line; mode = Slicer.Thin; forward = false }

(* The answer bytes a user receives: the thinslice.query/v1 payload, as
   [thinslice slice --json] prints it and the serve result carries it. *)
let answer h q = Json.to_string (Engine.query_result_to_json h q (Engine.run_query h q))

let countable_lines (a : Engine.analysis) =
  let seen = Hashtbl.create 4096 in
  for n = 0 to Sdg.num_nodes a.Engine.sdg - 1 do
    if Sdg.node_countable a.Engine.sdg n then
      Hashtbl.replace seen (Sdg.node_loc a.Engine.sdg n).Slice_ir.Loc.line ()
  done;
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) seen [])

let edit_json e = Json.List [ Json.Int e.at; Json.Str e.old_; Json.Str e.new_ ]

let edit_of_json j =
  match to_list j with
  | [ at; o; n ] -> { at = to_int at; old_ = to_str o; new_ = to_str n }
  | _ -> failwith "perfbench: bad edit"

(* Query lines are seeded among the countable lines whose thin slice has
   at least [wide_slice] lines: the value-flow queries through the
   accumulator every part threads.  Pointer-only lines (cur = o3, new
   R0()) slice to 1-5 lines and cost a fraction as much; mixing the two
   makes the median jump between the modes with the seed's mix. *)
let query_lines = 48
let wide_slice = 1000
let sites_per_kind = 16

let prepare () =
  let dir = arg "dir" and seed = int_arg "seed" and stmts = int_arg "stmts" in
  let sc = Gen_tj.generate_scaled ~seed ~stmts in
  let src = sc.Gen_tj.sc_src in
  let rng = Rng.make seed in
  let patched = seeded_sample rng sites_per_kind (patched_sites src) in
  let resolved = seeded_sample rng sites_per_kind (resolved_sites src) in
  if List.length patched < 4 || List.length resolved < 4 then
    failwith "perfbench: too few edit sites";
  let h = Engine.load [ (file, src) ] in
  let candidates =
    seeded_sample rng max_int (countable_lines h.Engine.h_analysis)
  in
  let rec wide acc n = function
    | [] -> List.rev acc
    | _ when n = query_lines -> List.rev acc
    | l :: rest -> (
      match Engine.run_query h (thin_at l) with
      | Engine.R_lines ls as r when List.length ls >= wide_slice ->
        let a = Json.to_string (Engine.query_result_to_json h (thin_at l) r) in
        wide ((l, a) :: acc) (n + 1) rest
      | _ -> wide acc n rest)
  in
  let picked = wide [] 0 candidates in
  if List.length picked < query_lines then failwith "perfbench: too few query lines";
  let lines = List.map fst picked in
  let answers = List.map (fun (_, a) -> Json.Str a) picked in
  let seed_line = sc.Gen_tj.sc_seed_line in
  let base_answer = answer h (thin_at seed_line) in
  (* One seeded edited state of each kind, answered by a fresh load: the
     workloads compare what [Engine.update] answered for it. *)
  let check kind sites =
    let i = Rng.int rng (List.length sites) in
    let fresh = Engine.load [ (file, apply src (List.nth sites i)) ] in
    Json.Obj
      [ ("kind", Json.Str kind); ("index", Json.Int i);
        ("answer", Json.Str (answer fresh (thin_at seed_line))) ]
  in
  let checks = [ check "patched" patched; check "resolved" resolved ] in
  write_file (Filename.concat dir file) src;
  write_file (Filename.concat dir "meta.json")
    (Json.to_string
       (Json.Obj
          [ ("seed", Json.Int seed); ("stmts", Json.Int stmts);
            ("stmt_count", Json.Int sc.Gen_tj.sc_stmt_count);
            ("digest", Json.Str (Digest.to_hex (Digest.string src)));
            ("bytes", Json.Int (String.length src));
            ("seed_line", Json.Int seed_line);
            ("lines", Json.List (List.map (fun l -> Json.Int l) lines));
            ("answers", Json.List answers);
            ("base_answer", Json.Str base_answer);
            ("patched", Json.List (List.map edit_json patched));
            ("resolved", Json.List (List.map edit_json resolved));
            ("checks", Json.List checks) ]))

type input = {
  src : string;
  meta : Json.t;
  seed_line : int;
  lines : int array;
  answers : string array;
  base_answer : string;
}

let read_input () =
  let dir = arg "dir" in
  let meta =
    match Json.of_string (read_file (Filename.concat dir "meta.json")) with
    | Ok j -> j
    | Error e -> failwith ("perfbench: meta.json: " ^ e)
  in
  { src = read_file (Filename.concat dir file);
    meta;
    seed_line = to_int (member "seed_line" meta);
    lines = Array.of_list (List.map to_int (to_list (member "lines" meta)));
    answers = Array.of_list (List.map to_str (to_list (member "answers" meta)));
    base_answer = to_str (member "base_answer" meta) }

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

(* Benchmark-side spans, kept in memory and printed when the run ends.
   Each wraps one call into a layer's public function; none nest, so a
   span's duration is its layer's self time. *)
type span = {
  sp_op : int;
  sp_name : string;
  sp_start : float;  (* seconds since the tracer started *)
  sp_ms : float;
  sp_alloc_mw : float;  (* minor words allocated, millions *)
  sp_counts : (string * Json.t) list;
}

type tracer = { mutable spans : span list; mutable op : int; t_base : float }

let tracer () = { spans = []; op = 0; t_base = now () }

(* [counters] names program counters whose change across the call is
   recorded; they are read outside the timed region. *)
let span tr name ?(counters = []) ?(counts = fun _ -> []) f =
  let before = List.map Slice_obs.counter_value counters in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let ms = ms_since t0 in
  let words = Gc.minor_words () -. w0 in
  let deltas =
    List.map2 (fun c v -> (c, Json.Int (Slice_obs.counter_value c - v))) counters before
  in
  tr.spans <-
    { sp_op = tr.op; sp_name = name; sp_start = t0 -. tr.t_base; sp_ms = ms;
      sp_alloc_mw = words /. 1e6; sp_counts = deltas @ counts r }
    :: tr.spans;
  r

let span_json s =
  Json.Obj
    [ ("op", Json.Int s.sp_op); ("name", Json.Str s.sp_name);
      ("start_s", Json.Float s.sp_start); ("ms", Json.Float s.sp_ms);
      ("alloc_mw", Json.Float s.sp_alloc_mw); ("counts", Json.Obj s.sp_counts) ]

let ints l = List.map (fun (k, v) -> (k, Json.Int v)) l

(* A load replayed in [Engine.analyze]'s order: front, pta, arena, sdg
   build, freeze.  The handle is assembled as [Engine.load] does. *)
let traced_load tr src : Engine.handle =
  let program =
    span tr "front"
      ~counters:[ "front.tokens" ]
      ~counts:(fun p -> ints [ ("stmts", Slice_ir.Program.stmt_count p) ])
      (fun () -> Slice_front.Frontend.load_many_exn [ (file, src) ])
  in
  let pta =
    span tr "pta"
      ~counters:[ "pta.worklist_iterations" ]
      ~counts:(fun r ->
        ints
          [ ("objects", Slice_pta.Andersen.num_objects r);
            ("contexts", Slice_pta.Andersen.num_call_graph_nodes r) ])
      (fun () -> Slice_pta.Andersen.analyze ~opts:Slice_pta.Andersen.default_opts program)
  in
  let arena =
    span tr "ir.arena"
      ~counts:(fun ar -> ints [ ("bytes", Slice_ir.Arena.bytes ar) ])
      (fun () -> Slice_ir.Arena.build program)
  in
  let sdg =
    span tr "sdg.build"
      ~counters:[ "sdg.heap_pairs_emitted"; "sdg.heap_pairs_considered" ]
      ~counts:(fun g -> ints [ ("edges", Sdg.num_edges g) ])
      (fun () -> Sdg.build ~arena program pta)
  in
  span tr "sdg.freeze"
    ~counts:(fun () -> [ ("csr_bytes", Json.Float (Slice_obs.gauge_value "sdg.csr_bytes")) ])
    (fun () -> Sdg.freeze sdg);
  let a = { Engine.program; pta; sdg; arena; obj_sens = true } in
  { Engine.h_analysis = a; h_stats = Engine.stats_of a; h_sources = [ (file, src) ];
    h_container_classes = None; h_obj_sens = true; h_solver = `Bitset }

(* A thin slice replayed in [Engine.run_query]'s order: seed lookup,
   walk, line projection, encoding.  Returns the answer bytes. *)
let traced_query tr (h : Engine.handle) ~line =
  let g = h.Engine.h_analysis.Engine.sdg in
  let seeds = span tr "sdg.lookup" (fun () -> Sdg.nodes_at_line g ~file:None ~line) in
  if seeds = [] then raise (Engine.No_seed line);
  let nodes =
    span tr "slicer.walk"
      ~counters:
        [ "slicer.nodes_visited"; "slicer.edges_followed"; "slicer.edges_skipped";
          "slicer.edges_costly" ]
      (fun () -> Slicer.slice g ~seeds Slicer.Thin)
  in
  let lines =
    span tr "slicer.lines"
      ~counts:(fun ls -> ints [ ("slice_lines", List.length ls) ])
      (fun () -> Slicer.locs_to_line_numbers (Slicer.nodes_to_lines g nodes))
  in
  span tr "engine.encode"
    ~counts:(fun s -> ints [ ("bytes", String.length s) ])
    (fun () ->
      Json.to_string (Engine.query_result_to_json h (thin_at line) (Engine.R_lines lines)))

(* ------------------------------------------------------------------ *)
(* Op bookkeeping                                                      *)
(* ------------------------------------------------------------------ *)

type op = {
  kind : string;
  ms : float;
  traced : bool;
  majors : int;  (* major collections during the op *)
  ok : bool;
  tier_ok : bool;  (* an update landed on the tier its edit was designed for *)
}

type recorder = {
  mutable ops : op list;
  mutable n_ops : int;
  mutable failures : string list;
  tr : tracer;
}

let recorder () = { ops = []; n_ops = 0; failures = []; tr = tracer () }

let fail rc msg =
  if List.length rc.failures < 5 then rc.failures <- msg :: rc.failures

(* Time [f], the op itself, then judge its result with [check] untimed;
   [check] returns (ok, tier_ok).  An exception is a failed op.  The
   program's own span trees are dropped after every op, as the serve
   daemon does, so a long run does not accumulate them. *)
let timed_op rc ~kind ~traced f check =
  rc.tr.op <- rc.n_ops;
  let m0 = major_collections () in
  let t0 = now () in
  let result = try Ok (f ()) with e -> Error e in
  let ms = ms_since t0 in
  let majors = major_collections () - m0 in
  let failed e =
    fail rc (kind ^ ": " ^ Printexc.to_string e);
    (false, true)
  in
  let ok, tier_ok =
    match result with
    | Ok r -> ( try check r with e -> failed e)
    | Error e -> failed e
  in
  rc.ops <- { kind; ms; traced; majors; ok; tier_ok } :: rc.ops;
  rc.n_ops <- rc.n_ops + 1;
  Slice_obs.reset_spans ()

let ops_json rc =
  Json.List
    (List.rev_map
       (fun o ->
         Json.List
           [ Json.Str o.kind; Json.Float o.ms; Json.Bool o.traced;
             Json.Int o.majors; Json.Bool o.ok; Json.Bool o.tier_ok ])
       rc.ops)

(* Traced set-ups: [k] load replays, each from a compacted heap, recorded
   as "setup" ops.  Returns the last replayed handle. *)
let replayed_setups rc ~k src =
  let last = ref None in
  for _ = 1 to k do
    last := None;
    Gc.compact ();
    timed_op rc ~kind:"setup" ~traced:true
      (fun () -> traced_load rc.tr src)
      (fun h ->
        last := Some h;
        (true, true))
  done;
  !last

let request id meth params =
  Json.to_string
    (Json.Obj [ ("id", Json.Int id); ("method", Json.Str meth); ("params", Json.Obj params) ])

let handle st line =
  match Slice_serve.Serve.handle_line st line with
  | Some o ->
    let r = o.Slice_serve.Serve.resp in
    (r, Json.to_string r)
  | None -> failwith "no response"

(* serve-hot's set-up: a fresh daemon state and a [load] request carrying
   the source; returns the state and the resident program key. *)
let serve_load src =
  let st = Slice_serve.Serve.create_state Slice_serve.Serve.default_config in
  let resp, _ =
    handle st (request 0 "load" [ ("file", Json.Str file); ("source", Json.Str src) ])
  in
  (st, to_str (member "program" (member "result" resp)))

let engine_load src = Engine.load [ (file, src) ]

let result_json ~workload ~setup ~live ~peak rc =
  Json.Obj
    [ ("workload", Json.Str workload);
      ("ocaml", Json.Str Sys.ocaml_version);
      ("profile", Json.Str Build_profile.profile);
      ("setup_s", floats setup);
      ("live_mb", Json.Float live);
      ("peak_rss_mb", Json.Float peak);
      ("top_heap_mb", Json.Float (top_heap_mb ()));
      ("ops", ops_json rc);
      ("failures", Json.List (List.rev_map (fun s -> Json.Str s) rc.failures));
      ("spans", Json.List (List.rev_map span_json rc.tr.spans)) ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* The memory metrics of the in-process workloads are taken after a fixed
   window of work, not at the end of the run: OCaml 5.1 does not give
   memory back, so the resident set creeps with every op at a rate set by
   where the GC's cycles fall, and the incremental solver's live heap grows
   with every resolved update.  An end-of-run figure would depend on how
   many ops fit in the run.  The windows (serve-hot requests, edit-30k
   cycles) each include every op kind of their workload; a run too short
   to reach its window measures at its end. *)
let serve_window = 32
let edit_window = 4

(* serve-hot: thin-slice requests through [Serve.handle_line] by resident
   program key, cycling through the seeded query lines.  An op is the
   daemon's work for one request line: handle it and encode the
   response.  The traced run alternates blocks of [block] plain ops and
   [block] ops wrapped in one span each; after a traced block, the same
   requests' lookup, walk, lines and encode are replayed as a shadow
   measurement (not part of the op) against a second copy of the
   analysis, loaded by [Engine.load] just before the daemon's.  Blocks
   keep each copy warm in cache while it is measured, as the daemon's is
   in the untraced run. *)
let block = 16

let serve_hot inp ~seconds ~trace ~k =
  let rc = recorder () in
  let replay =
    if trace then begin
      ignore (replayed_setups rc ~k inp.src);
      Gc.compact ();
      Some (engine_load inp.src)
    end
    else None
  in
  let st, key = serve_load inp.src in
  let reqs =
    Array.mapi
      (fun i line -> request (i + 1) "slice" [ ("program", Json.Str key); ("line", Json.Int line) ])
      inp.lines
  in
  let shadows = ref [] in
  let flush_shadows () =
    List.iter
      (fun (op, i) ->
        rc.tr.op <- op;
        match Option.map (fun h -> traced_query rc.tr h ~line:inp.lines.(i)) replay with
        | Some a when a <> inp.answers.(i) -> fail rc "shadow replay: wrong answer"
        | _ -> ()
        | exception e -> fail rc ("shadow replay: " ^ Printexc.to_string e))
      (List.rev !shadows);
    shadows := [];
    Slice_obs.reset_spans ()
  in
  let t_end = now () +. seconds in
  let n = ref 0 and peak = ref 0. in
  while now () < t_end do
    let i = !n mod Array.length reqs in
    let traced = trace && !n / block mod 2 = 1 in
    let op () =
      if traced then
        span rc.tr "serve.handle_line"
          ~counts:(fun (resp, s) ->
            [ ("hit",
               Json.Bool
                 (Option.map (member "cache") (Json.member "telemetry" resp)
                 = Some (Json.Str "hit")));
              ("bytes", Json.Int (String.length s)) ])
          (fun () -> handle st reqs.(i))
      else handle st reqs.(i)
    in
    let check (resp, _) =
      let ok =
        match Json.member "result" resp with
        | Some r -> Json.to_string r = inp.answers.(i)
        | None -> false
      in
      if not ok then fail rc ("query line " ^ string_of_int inp.lines.(i) ^ ": wrong answer");
      if traced then shadows := (rc.n_ops, i) :: !shadows;
      (ok, true)
    in
    timed_op rc ~kind:"query" ~traced op check;
    incr n;
    if !n = serve_window then peak := peak_rss_mb ();
    if traced && !n mod block = 0 then flush_shadows ()
  done;
  flush_shadows ();
  if !n < serve_window then peak := peak_rss_mb ();
  let peak = !peak in
  ignore (Sys.opaque_identity st);
  result_json ~workload:"serve-hot" ~setup:[] ~live:0. ~peak rc

(* edit-30k: the watch-mode write path.  An op is one
   edit or revert applied by [Engine.update] to the resident handle,
   followed by the thin slice at the program's seed line, encoded.  Ops
   are grouped by the tier the edit was designed for.  A cycle is three
   patched pairs and one resolved pair (the resolved revert rebuilds the
   graph, so patch overlays and tombstones stay bounded).  Every revert
   must answer like the base program, and one seeded edited state per
   kind like a fresh load. *)
let edit_workload inp ~seconds ~trace ~k =
  let rc = recorder () in
  if trace then ignore (replayed_setups rc ~k inp.src);
  let h0 = engine_load inp.src in
  let sites kind = Array.of_list (List.map edit_of_json (to_list (member kind inp.meta))) in
  let patched = sites "patched" and resolved = sites "resolved" in
  let checks =
    List.map
      (fun c ->
        ((to_str (member "kind" c), to_int (member "index" c)), to_str (member "answer" c)))
      (to_list (member "checks" inp.meta))
  in
  let q = thin_at inp.seed_line in
  let h = ref h0 in
  let update ~kind ~traced src' expect =
    let designed = if kind = "patched" then Engine.Patched else Engine.Resolved_incremental in
    let op () =
      if traced then begin
        let h', rep =
          span rc.tr "engine.update"
            ~counts:(fun (_, r) ->
              [ ("kind", Json.Str kind);
                ("path", Json.Str (Engine.update_path_to_string r.Engine.up_path));
                ("relowered", Json.Int r.Engine.up_relowered);
                ("segments_refrozen", Json.Int r.Engine.up_segments_refrozen);
                ("segments_total", Json.Int r.Engine.up_segments_total) ])
            (fun () -> Engine.update !h [ (file, src') ])
        in
        h := h';
        (rep, traced_query rc.tr h' ~line:inp.seed_line)
      end
      else begin
        let h', rep = Engine.update !h [ (file, src') ] in
        h := h';
        (rep, answer h' q)
      end
    in
    let check (rep, ans) =
      let ok = match expect with None -> true | Some a -> a = ans in
      if not ok then fail rc (kind ^ " update: wrong answer");
      (ok, rep.Engine.up_path = designed)
    in
    timed_op rc ~kind ~traced op check
  in
  let pair kind sites i ~traced =
    let i = i mod Array.length sites in
    update ~kind ~traced (apply inp.src sites.(i)) (List.assoc_opt (kind, i) checks);
    update ~kind ~traced inp.src (Some inp.base_answer)
  in
  let cycle c ~traced =
    for j = 0 to 2 do pair "patched" patched ((3 * c) + j) ~traced done;
    pair "resolved" resolved c ~traced
  in
  let memory () = (peak_rss_mb (), if trace then 0. else live_mb ()) in
  let t_end = now () +. seconds in
  let c = ref 0 and mem = ref (0., 0.) in
  while now () < t_end do
    cycle !c ~traced:(trace && !c mod 2 = 1);
    incr c;
    if !c = edit_window then mem := memory ()
  done;
  if !c < edit_window then mem := memory ();
  let peak, live = !mem in
  ignore (Sys.opaque_identity !h);
  result_json ~workload:"edit-30k" ~setup:[] ~live ~peak rc

(* ------------------------------------------------------------------ *)
(* Set-up timing and the traced one-shot                               *)
(* ------------------------------------------------------------------ *)

(* [k] timed set-ups, each from a compacted heap, in a process of their
   own: the time until the first query can be answered.  serve-hot's is a
   serve [load] request; the others' is [Engine.load], which is also what
   a one-shot slice pays before it can answer.  The live heap is taken
   with the last set-up's program resident. *)
let setup () =
  let inp = read_input () in
  let k = int_arg "setups" in
  let timed load =
    let samples = ref [] and last = ref None in
    for _ = 1 to k do
      last := None;
      Gc.compact ();
      let t0 = now () in
      last := Some (load inp.src);
      samples := (now () -. t0) :: !samples
    done;
    let live = live_mb () in
    ignore (Sys.opaque_identity !last);
    (List.rev !samples, live)
  in
  let setup, live =
    if arg "workload" = "serve-hot" then timed serve_load else timed engine_load
  in
  print_json (result_json ~workload:(arg "workload") ~setup ~live ~peak:(peak_rss_mb ()) (recorder ()))

(* One one-shot slice in a fresh process, like the [thinslice slice
   --json] it shadows: read the file, load, answer.  With [--spans 1] the
   load and the query are replayed under spans; with [--spans 0] they are
   the plain [Engine] calls, the untraced side of the tracing overhead.
   run.py times the process. *)
let cold_op () =
  let rc = recorder () in
  let src = read_file (Filename.concat (arg "dir") file) in
  let line = int_arg "line" in
  let ans =
    if int_arg "spans" = 1 then traced_query rc.tr (traced_load rc.tr src) ~line
    else answer (engine_load src) (thin_at line)
  in
  print_json
    (Json.Obj
       [ ("answer", Json.Str ans);
         ("ocaml", Json.Str Sys.ocaml_version);
         ("profile", Json.Str Build_profile.profile);
         ("majors", Json.Int (major_collections ()));
         ("top_heap_mb", Json.Float (top_heap_mb ()));
         ("spans", Json.List (List.rev_map span_json rc.tr.spans)) ])

let run () =
  let inp = read_input () in
  let seconds = float_of_int (int_arg "seconds") in
  let trace = int_arg "trace" = 1 and k = int_arg "setups" in
  let r =
    match arg "workload" with
    | "serve-hot" -> serve_hot inp ~seconds ~trace ~k
    | "edit-30k" -> edit_workload inp ~seconds ~trace ~k
    | w -> failwith ("perfbench: unknown workload " ^ w)
  in
  print_json r

let () =
  match Array.to_list Sys.argv with
  | _ :: "prepare" :: _ -> prepare ()
  | _ :: "setup" :: _ -> setup ()
  | _ :: "cold-op" :: _ -> cold_op ()
  | _ :: "run" :: _ -> run ()
  | _ ->
    prerr_endline "usage: perfbench (prepare|setup|cold-op|run) --dir DIR ...";
    exit 2
