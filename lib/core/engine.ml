(* End-to-end pipeline: program -> points-to -> SDG -> slicers.
   This is the public entry point a tool embeds. *)

open Slice_ir
open Slice_pta

type analysis = {
  program : Program.t;
  pta : Andersen.result;
  sdg : Sdg.t;
  arena : Arena.t;
      (* the flat int-indexed statement store: every SDG pass and every
         statement lookup reads it, and the statement counts in [stats]
         come from its spans.  The SDG keeps it too, and a patched update
         re-lowers the edited methods into it ([stats.arena_bytes] is its
         footprint) *)
  obj_sens : bool;
}

let g_arena_bytes = Slice_obs.gauge "ir.arena_bytes"

(* Points-to, then the arena and the SDG over it.  The arena is lowered
   whole here; a Patched update instead re-lowers only the edited
   methods, inside [Sdg.patch]. *)
let analyze ?(obj_sens = true) (program : Program.t) : analysis =
  let opts =
    if obj_sens then Andersen.default_opts else Andersen.no_obj_sens_opts
  in
  let pta = Andersen.analyze ~opts program in
  (* Lower every method body into the flat arena before the SDG passes
     read it: strings interned once, operands packed into int arrays,
     each block's governors computed once per method.  [Sdg.build] walks
     only the arena columns. *)
  let arena =
    Slice_obs.span "ir.arena" (fun () ->
        let ar = Arena.build program in
        Slice_obs.max_gauge g_arena_bytes (float_of_int (Arena.bytes ar));
        ar)
  in
  let sdg =
    Slice_obs.span "sdg.build" (fun () -> Sdg.build ~arena program pta)
  in
  { program; pta; sdg; arena; obj_sens }

let of_source ?container_classes ?obj_sens ~(file : string)
    (src : string) : analysis =
  analyze ?obj_sens
    (Slice_front.Frontend.load_exn ?container_classes ~file src)

(* Multi-file variant: the units are loaded as one program (see
   [Frontend.load_many_exn]) so slices can span files while every
   location keeps the file it came from. *)
let of_sources ?container_classes ?obj_sens
    (units : (string * string) list) : analysis =
  analyze ?obj_sens
    (Slice_front.Frontend.load_many_exn ?container_classes units)

(* Seed selection: all SDG nodes for statements on a source line.  When the
   line holds several statements, [prefer] can narrow to one kind. *)
type seed_filter =
  | Any
  | Only_loads          (* field/array reads *)
  | Only_calls
  | Only_casts
  | Only_conditionals
  | Only_throws

let matches_filter (a : analysis) (f : seed_filter) (n : Sdg.node) : bool =
  match f with
  | Any -> true
  | _ -> (
    match Option.bind (Sdg.node_stmt a.sdg n) (Sdg.stmt_site a.sdg) with
    | None -> false
    | Some site -> (
      match (f, site) with
      | Only_loads, Program.Site_instr i -> (
        match i.Instr.i_kind with
        | Instr.Load _ | Instr.Array_load _ | Instr.Static_load _ -> true
        | _ -> false)
      | Only_calls, Program.Site_instr i -> (
        match i.Instr.i_kind with Instr.Call _ -> true | _ -> false)
      | Only_casts, Program.Site_instr i -> (
        match i.Instr.i_kind with Instr.Cast _ -> true | _ -> false)
      | Only_conditionals, Program.Site_term t -> (
        match t.Instr.t_kind with Instr.If _ -> true | _ -> false)
      | Only_throws, Program.Site_term t -> (
        match t.Instr.t_kind with Instr.Throw _ -> true | _ -> false)
      | _, (Program.Site_instr _ | Program.Site_term _) -> false))

let seeds_at_line ?(filter = Any) (a : analysis) (line : int) : Sdg.node list =
  List.filter (matches_filter a filter)
    (Sdg.nodes_at_line a.sdg ~file:None ~line)

exception No_seed of int

let seeds_at_line_exn ?filter (a : analysis) (line : int) : Sdg.node list =
  match seeds_at_line ?filter a line with
  | [] -> raise (No_seed line)
  | seeds -> seeds

(* Slice from a line, reported as source line numbers. *)
let slice_from_line ?filter (a : analysis) ~(line : int) (mode : Slicer.mode) :
    int list =
  Slicer.slice_line_numbers ~forward:false a.sdg
    ~seeds:(seeds_at_line_exn ?filter a line)
    mode

(* Many slices over one graph: seed resolution per line, then one batched
   walk with reused scratch buffers.  Returns, per input line (in input
   order), the sorted distinct source line numbers of the slice. *)
let slice_batch ?filter ?(forward = false) (a : analysis) ~(lines : int list)
    (mode : Slicer.mode) : (int * int list) list =
  let seeds_list = List.map (fun l -> seeds_at_line_exn ?filter a l) lines in
  let slices =
    if forward then Slicer.forward_slice_batch a.sdg ~seeds_list mode
    else Slicer.slice_batch a.sdg ~seeds_list mode
  in
  List.map2
    (fun line nodes -> (line, Slicer.node_line_numbers a.sdg nodes))
    lines slices

(* Inspection simulation (the paper's BFS metric) from a line seed. *)
let inspect_from_line ?filter (a : analysis) ~(line : int)
    ~(desired : int list) (mode : Slicer.mode) : Inspect.report =
  Inspect.bfs a.sdg ~seeds:(seeds_at_line_exn ?filter a line) ~desired mode

(* ------------------------------------------------------------------ *)
(* Provenance queries: witness paths and layered explain reports       *)
(* ------------------------------------------------------------------ *)

let explain_schema_version = "thinslice.explain/v1"

(* Per-report layer sizes (lines), the per-query telemetry of ISSUE 6. *)
let c_report_producers = Slice_obs.counter "engine.report.producer_lines"
let c_report_alias = Slice_obs.counter "engine.report.alias_explainer_lines"
let c_report_control = Slice_obs.counter "engine.report.control_explainer_lines"

(* The data-only companion of a mode: same flow edges, no control.  The
   control-explainer layer of a report is what [mode] slices BEYOND its
   companion; modes that already skip control are their own. *)
let data_submode = function
  | Slicer.Traditional_full -> Slicer.Traditional_data
  | (Slicer.Thin | Slicer.Thin_with_aliasing _ | Slicer.Traditional_data) as m
    -> m

(* Witness: the dependence path by which the [mode] slice seeded at
   [seed_line] reaches [line].  Walks with a fresh provenance, then
   explains the target-line node with the smallest (distance, node id) —
   the hop-shortest recorded path, deterministically tie-broken.  [None]
   when the line has nodes but none is a member; [No_seed] (of the
   offending line) when either line has no nodes at all. *)
let witness_from_line ?filter (a : analysis) ~(seed_line : int)
    ~(line : int) (mode : Slicer.mode) : Slicer.witness_step list option =
  let seeds = seeds_at_line_exn ?filter a seed_line in
  let targets = Sdg.nodes_at_line a.sdg ~file:None ~line in
  if targets = [] then raise (No_seed line);
  let prov = Slicer.create_provenance a.sdg in
  ignore (Slicer.slice ~prov a.sdg ~seeds mode);
  let best =
    List.fold_left
      (fun acc n ->
        match Slicer.distance prov n with
        | None -> acc
        | Some d -> (
          match acc with
          | Some (d', n') when (d', n') <= (d, n) -> acc
          | Some _ | None -> Some (d, n)))
      None targets
  in
  match best with
  | None -> None
  | Some (_, n) -> Slicer.witness prov n

(* ----- layered explain report ----- *)

type explain_layer = Producers | Alias_explainers | Control_explainers

let layer_to_string = function
  | Producers -> "producers"
  | Alias_explainers -> "alias-explainers"
  | Control_explainers -> "control-explainers"

(* Innermost layer wins when a line has nodes in several. *)
let layer_order = function
  | Producers -> 0
  | Alias_explainers -> 1
  | Control_explainers -> 2

type report_line = {
  rl_loc : string * int;  (* (file, line) *)
  rl_rank : int;          (* min BFS distance over the line's member nodes *)
  rl_layer : explain_layer;
  rl_explains : (string * int) list;
      (* lines this explainer directly serves (sorted distinct; empty
         for producers) *)
}

type slice_report = {
  sr_seed_line : int;
  sr_mode : Slicer.mode;
  sr_layer_sizes : int * int * int;
      (* (producer, alias-explainer, control-explainer) line counts *)
  sr_lines : report_line list;  (* sorted by (rank, file, line) *)
}

(* The layered report of a [mode] slice seeded at [line]:

   - producers        = members of the THIN slice (the paper's relevant
                        statements);
   - alias explainers = members of the data companion's slice beyond
                        thin (base-pointer / index / call-closure flow);
   - control explainers = members beyond the data companion (reached
                        only through control dependences).

   Every line is ranked by the provenance BFS distance of its closest
   member node — the paper's section 5 inspection metric — and explainer
   lines carry the member lines they DIRECTLY explain, computed with the
   {!Expansion} explain primitives (base/index defs, call actuals,
   direct control). *)
let slice_report ?filter (a : analysis) ~(line : int)
    (mode : Slicer.mode) : slice_report =
  let seeds = seeds_at_line_exn ?filter a line in
  Slice_obs.span
    ~args:
      [ ("seed_line", string_of_int line);
        ("mode", Slicer.mode_to_string mode) ]
    "engine.slice_report"
    (fun () ->
      let prov = Slicer.create_provenance a.sdg in
      let sub = data_submode mode in
      let boundary_modes =
        List.filter (fun m -> m <> mode)
          (List.sort_uniq compare [ Slicer.Thin; sub ])
      in
      (* The mode walk records provenance; the boundary walks only need
         membership. *)
      let walks =
        (mode, true) :: List.map (fun m -> (m, false)) boundary_modes
      in
      let run (m, with_prov) =
        if with_prov then Slicer.slice ~prov a.sdg ~seeds m
        else Slicer.slice a.sdg ~seeds m
      in
      let results = List.map run walks in
      let members = List.hd results in
      let boundary = List.combine boundary_modes (List.tl results) in
      let nodes_of m = if m = mode then members else List.assoc m boundary in
      let as_set nodes =
        let t = Hashtbl.create (2 * List.length nodes) in
        List.iter (fun n -> Hashtbl.replace t n ()) nodes;
        t
      in
      let thin_set = as_set (nodes_of Slicer.Thin) in
      let sub_set = as_set (nodes_of sub) in
      let member_set = as_set members in
      let layer_of n =
        if Hashtbl.mem thin_set n then Producers
        else if Hashtbl.mem sub_set n then Alias_explainers
        else Control_explainers
      in
      (* Aggregate member nodes to (file, line): min distance, innermost
         layer. *)
      let line_tbl : (string * int, int * explain_layer) Hashtbl.t =
        Hashtbl.create 64
      in
      List.iter
        (fun n ->
          if Sdg.node_countable a.sdg n then begin
            let loc = Sdg.node_loc a.sdg n in
            let key = (loc.Loc.file, loc.Loc.line) in
            let d =
              match Slicer.distance prov n with Some d -> d | None -> 0
            in
            let ly = layer_of n in
            match Hashtbl.find_opt line_tbl key with
            | None -> Hashtbl.replace line_tbl key (d, ly)
            | Some (d0, ly0) ->
              Hashtbl.replace line_tbl key
                ( min d d0,
                  if layer_order ly < layer_order ly0 then ly else ly0 )
          end)
        members;
      (* Direct-explainer attribution: for every member, its Expansion
         explainers that are themselves non-producer members explain it. *)
      let explains : (string * int, (string * int, unit) Hashtbl.t) Hashtbl.t
          =
        Hashtbl.create 32
      in
      List.iter
        (fun m ->
          if Sdg.node_countable a.sdg m then begin
            let mloc = Sdg.node_loc a.sdg m in
            let mkey = (mloc.Loc.file, mloc.Loc.line) in
            let direct =
              Expansion.base_defs a.sdg m
              @ Expansion.index_defs a.sdg m
              @ Expansion.call_actuals a.sdg m
              @ Expansion.explain_control a.sdg m
            in
            List.iter
              (fun x ->
                if
                  Hashtbl.mem member_set x
                  && (not (Hashtbl.mem thin_set x))
                  && Sdg.node_countable a.sdg x
                then begin
                  let xloc = Sdg.node_loc a.sdg x in
                  let xkey = (xloc.Loc.file, xloc.Loc.line) in
                  if xkey <> mkey then begin
                    let t =
                      match Hashtbl.find_opt explains xkey with
                      | Some t -> t
                      | None ->
                        let t = Hashtbl.create 8 in
                        Hashtbl.replace explains xkey t;
                        t
                    in
                    Hashtbl.replace t mkey ()
                  end
                end)
              direct
          end)
        members;
      let lines =
        Hashtbl.fold
          (fun key (rank, layer) acc ->
            let ex =
              match Hashtbl.find_opt explains key with
              | None -> []
              | Some t ->
                List.sort compare
                  (Hashtbl.fold (fun k () acc -> k :: acc) t [])
            in
            { rl_loc = key; rl_rank = rank; rl_layer = layer;
              rl_explains = ex }
            :: acc)
          line_tbl []
      in
      let lines =
        List.sort
          (fun x y -> compare (x.rl_rank, x.rl_loc) (y.rl_rank, y.rl_loc))
          lines
      in
      let count ly =
        List.length (List.filter (fun l -> l.rl_layer = ly) lines)
      in
      let np = count Producers in
      let na = count Alias_explainers in
      let nc = count Control_explainers in
      Slice_obs.add c_report_producers np;
      Slice_obs.add c_report_alias na;
      Slice_obs.add c_report_control nc;
      Slice_obs.add_span_arg "slice_lines" (string_of_int (List.length lines));
      { sr_seed_line = line;
        sr_mode = mode;
        sr_layer_sizes = (np, na, nc);
        sr_lines = lines })

(* ----- thinslice.explain/v1 JSON ----- *)

let loc_json ((file, line) : string * int) : Slice_obs.Json.t =
  Slice_obs.Json.Obj
    [ ("file", Slice_obs.Json.Str file); ("line", Slice_obs.Json.Int line) ]

let report_to_json (r : slice_report) : Slice_obs.Json.t =
  let open Slice_obs.Json in
  let np, na, nc = r.sr_layer_sizes in
  Obj
    [ ("schema", Str explain_schema_version);
      ("result", Str "report");
      ("query",
       Obj
         [ ("seed_line", Int r.sr_seed_line);
           ("mode", Str (Slicer.mode_to_string r.sr_mode)) ]);
      ("layers",
       Obj
         [ ("producers", Int np);
           ("alias-explainers", Int na);
           ("control-explainers", Int nc) ]);
      ("lines",
       List
         (List.map
            (fun rl ->
              let file, line = rl.rl_loc in
              Obj
                [ ("file", Str file);
                  ("line", Int line);
                  ("rank", Int rl.rl_rank);
                  ("layer", Str (layer_to_string rl.rl_layer));
                  ("explains", List (List.map loc_json rl.rl_explains)) ])
            r.sr_lines)) ]

let witness_to_json (a : analysis) ~(seed_line : int) ~(line : int)
    (mode : Slicer.mode) (steps : Slicer.witness_step list) : Slice_obs.Json.t
    =
  let open Slice_obs.Json in
  Obj
    [ ("schema", Str explain_schema_version);
      ("result", Str "witness");
      ("query",
       Obj
         [ ("seed_line", Int seed_line);
           ("line", Int line);
           ("mode", Str (Slicer.mode_to_string mode)) ]);
      ("path",
       List
         (List.map
            (fun (s : Slicer.witness_step) ->
              let loc = Sdg.node_loc a.sdg s.Slicer.wit_node in
              Obj
                [ ("node", Int s.Slicer.wit_node);
                  ("file", Str loc.Loc.file);
                  ("line", Int loc.Loc.line);
                  ("label",
                   Str
                     (Format.asprintf "%a" (Sdg.pp_node a.sdg)
                        s.Slicer.wit_node));
                  ("kind",
                   (match s.Slicer.wit_kind with
                   | None -> Null
                   | Some k -> Str (Sdg.edge_kind_to_string k)));
                  ("budget", Int s.Slicer.wit_budget);
                  ("dist", Int s.Slicer.wit_dist) ])
            steps)) ]

(* All unverified ("tough") casts of the program: the pointer analysis
   cannot prove them safe (section 6.3). *)
let tough_casts (a : analysis) : (Instr.method_qname * Instr.instr) list =
  let out = ref [] in
  List.iter
    (fun mq ->
      let m = Program.find_method_exn a.program mq in
      if Instr.has_body m then
        Instr.iter_instrs m (fun _ i ->
            match i.Instr.i_kind with
            | Instr.Cast _ ->
              if not (Andersen.cast_verified a.pta mq i) then out := (mq, i) :: !out
            | _ -> ()))
    (Andersen.reachable_methods a.pta);
  List.rev !out

(* Program statistics in the shape of the paper's Table 1, plus the
   telemetry snapshot captured when the stats were taken. *)
type stats = {
  classes : int;
  methods : int;                 (* reachable methods with bodies *)
  ir_statements : int;           (* "bytecode statements" analogue *)
  call_graph_nodes : int;        (* method contexts *)
  sdg_statements : int;
  sdg_nodes : int;               (* including context clones and formals *)
  abstract_objects : int;
  arena_bytes : int;             (* flat-IR footprint; deterministic *)
  pta_set_bytes : int;           (* points-to rows and dedup; deterministic *)
  heap_index_bytes : int;        (* SDG heap access index; deterministic *)
  obs : Slice_obs.snapshot;      (* counters, gauges, spans at capture *)
}

(* The snapshot member of a patched handle's stats cannot come from
   [Slice_obs.snapshot ()] (process-cumulative, conflates programs) nor
   from the load-time scoped capture (its edge counters describe the
   PRE-edit graph).  Read the per-kind edge census the graph keeps and
   present it in snapshot shape, so [resident_stats_to_json] keeps
   reading ["sdg.edge.<kind>"] counters unchanged. *)
let edge_census_snapshot (g : Sdg.t) : Slice_obs.snapshot =
  let counters =
    List.filter_map
      (fun (k, n) ->
        if n = 0 then None
        else Some ("sdg.edge." ^ Sdg.edge_kind_to_string k, n))
      (Sdg.edge_kind_counts g)
  in
  { Slice_obs.snap_counters = List.sort compare counters;
    snap_gauges = [];
    snap_hists = [];
    snap_hist_buckets = [];
    snap_spans = [] }

(* Statements of method [mq]'s arena span, 0 without a body. *)
let ir_count (a : analysis) (mq : Instr.method_qname) : int =
  match Arena.method_id a.arena mq with
  | Some am -> Arena.num_stmts a.arena am
  | None -> 0

let stats_of ?obs (a : analysis) : stats =
  (* the arena holds exactly the methods with a body *)
  let with_body =
    List.filter
      (fun mq -> Arena.method_id a.arena mq <> None)
      (Andersen.reachable_methods a.pta)
  in
  let ir_statements =
    List.fold_left (fun acc mq -> acc + ir_count a mq) 0 with_body
  in
  let classes = ref 0 in
  Program.iter_classes a.program (fun ci ->
      if not ci.Program.c_builtin then incr classes);
  { classes = !classes;
    methods = List.length with_body;
    ir_statements;
    call_graph_nodes = Andersen.num_call_graph_nodes a.pta;
    sdg_statements = Sdg.num_scalar_statements a.sdg;
    sdg_nodes = Sdg.num_live_nodes a.sdg;
    abstract_objects = Andersen.num_objects a.pta;
    arena_bytes = Arena.bytes a.arena;
    pta_set_bytes = Andersen.set_bytes a.pta;
    heap_index_bytes = Sdg.heap_index_bytes a.sdg;
    obs = (match obs with Some s -> s | None -> Slice_obs.snapshot ()) }

(* JSON export of the stats + telemetry — the payload behind [thinslice
   --stats-json] and one entry of BENCH_results.json.  Schema documented
   in README "Observability". *)
let stats_schema_version = "thinslice.stats/v1"

let program_stats_json (s : stats) : Slice_obs.Json.t =
  let open Slice_obs.Json in
  Obj
    [ ("classes", Int s.classes);
      ("methods", Int s.methods);
      ("ir_statements", Int s.ir_statements);
      ("call_graph_nodes", Int s.call_graph_nodes);
      ("sdg_statements", Int s.sdg_statements);
      ("sdg_nodes", Int s.sdg_nodes);
      ("abstract_objects", Int s.abstract_objects) ]

(* Group the "sdg.edge.<kind>" counters into an object keyed by kind. *)
let edges_by_kind_json (snap : Slice_obs.snapshot) : Slice_obs.Json.t =
  let prefix = "sdg.edge." in
  let plen = String.length prefix in
  Slice_obs.Json.Obj
    (List.filter_map
       (fun (name, v) ->
         if
           String.length name > plen
           && String.equal (String.sub name 0 plen) prefix
         then Some (String.sub name plen (String.length name - plen),
                    Slice_obs.Json.Int v)
         else None)
       snap.Slice_obs.snap_counters)

(* The memory block holds ONLY deterministic, analysis-derived figures
   (arithmetic over array lengths, never [Obj.reachable_words] or live
   process state): it appears in byte-compared output, so two processes
   analyzing the same sources must emit identical bytes.  Live peaks
   (scratch growth, GC heap) are telemetry gauges instead. *)
let memory_json (s : stats) : Slice_obs.Json.t =
  let open Slice_obs.Json in
  Obj
    [ ("arena_bytes", Int s.arena_bytes);
      ("pta_set_bytes", Int s.pta_set_bytes);
      ("heap_index_bytes", Int s.heap_index_bytes) ]

let stats_to_json (s : stats) : Slice_obs.Json.t =
  let open Slice_obs.Json in
  Obj
    [ ("schema", Str stats_schema_version);
      ("program", program_stats_json s);
      ("sdg.edges_by_kind", edges_by_kind_json s.obs);
      ("memory", memory_json s);
      ("telemetry", Slice_obs.snapshot_to_json s.obs) ]

(* ------------------------------------------------------------------ *)
(* Canonical analysis dumps                                            *)
(* ------------------------------------------------------------------ *)

(* Site labels for oracle dumps: each statement rendered as its
   per-method body-order ordinal ("<method>#<ix>").  Raw statement ids
   diverge between a patched analysis and a fresh rebuild (a re-lower
   draws fresh ids), and source locations collide on synthetic
   statements (the [$clinit] prepend, default constructors share
   [Loc.none]) — the ordinal is the one key both sides agree on.
   Synthetic intrinsic sites (negative ids, never in any body) render
   verbatim. *)
let site_label (a : analysis) : int -> string =
  let tbl : (int, string) Hashtbl.t = Hashtbl.create 256 in
  let ar = a.arena in
  Program.iter_methods a.program (fun m ->
      Option.iter
        (fun am ->
          let mq = Instr.method_qname_to_string m.Instr.m_qname in
          let lo, hi = Arena.instr_span ar am and tlo, _ = Arena.term_span ar am in
          for r = 0 to Arena.num_stmts ar am - 1 do
            let s =
              if lo + r < hi then Arena.instr_stmt ar (lo + r)
              else Arena.term_stmt ar (tlo + r - (hi - lo))
            in
            Hashtbl.replace tbl s (Printf.sprintf "%s#%d" mq r)
          done)
        (Arena.method_id ar m.Instr.m_qname));
  fun s ->
    match Hashtbl.find_opt tbl s with
    | Some l -> l
    | None -> string_of_int s

(* Points-to / call-graph dumps comparable across an incremental update
   and a from-scratch load of the same sources — the fuzz oracle's
   equality check for the analysis layer. *)
let pts_dump_canonical (a : analysis) : (string * string list) list =
  Andersen.pts_dump_loc ~site_label:(site_label a) a.pta

let call_graph_dump_canonical (a : analysis) : (string * string list) list =
  Andersen.call_graph_dump_loc ~site_label:(site_label a) a.pta

(* ------------------------------------------------------------------ *)
(* Resident-analysis handles and the unified query API                 *)
(* ------------------------------------------------------------------ *)

(* A handle is an analysis meant to OUTLIVE one query: the serve daemon
   keeps handles resident in its program cache, and the one-shot CLI
   builds one and throws it away — both answer queries through the same
   [run_query], which is what makes serve-vs-CLI byte parity a
   tautology instead of a test burden.

   [h_stats] is captured inside [Slice_obs.scoped] at load time, so its
   snapshot covers exactly this handle's load pipeline (front/pta/sdg
   spans, edge-kind counters).  In a process that loads many programs
   the process-cumulative snapshot would conflate them; the scoped
   capture keeps per-program stats deterministic — equal to what a
   fresh one-shot process reports. *)
type handle = {
  h_analysis : analysis;
  h_stats : stats;
  (* The load-time configuration, retained so {!update} can classify an
     edit against the exact sources this handle analyzed and can rebuild
     under identical options when the delta is not patchable. *)
  h_sources : (string * string) list;
  h_container_classes : string list option;
  h_obj_sens : bool;
  h_solver : [ `Bitset ];  (* read by nothing; see engine.mli *)
}

let load ?container_classes ?(obj_sens = true)
    (units : (string * string) list) : handle =
  let h, snap =
    Slice_obs.scoped (fun () ->
        let a = of_sources ?container_classes ~obj_sens units in
        { h_analysis = a;
          h_stats = stats_of a;
          h_sources = units;
          h_container_classes = container_classes;
          h_obj_sens = obj_sens;
          h_solver = `Bitset })
  in
  ignore snap;
  h

(* ------------------------------------------------------------------ *)
(* Incremental update: edit -> delta -> patched analysis               *)
(* ------------------------------------------------------------------ *)

(* How far an edit forced the pipeline to re-run, cheapest first:
   - [Noop]: byte-identical sources, nothing ran;
   - [Patched]: changed bodies re-lowered, points-to re-keyed in place,
     SDG patched (constraint summaries unchanged);
   - [Resolved_incremental]: some constraint summary moved: changed
     bodies re-lowered in place (the frontend is incremental), then
     points-to, arena and SDG built afresh over the mutated program;
   - [Rebuilt]: full reload from the new sources (structural edit,
     whole methods added or removed included);
   - [Rebuilt_fallback]: the same reload after an incremental tier
     raised part-way, carrying the exception's text.

   The ladder is monotone in correctness: every tier answers queries
   byte-identically to a fresh load of the new sources (the fuzz
   oracle's edit battery enforces this per tier). *)
type update_path =
  | Noop
  | Patched
  | Resolved_incremental
  | Rebuilt
  | Rebuilt_fallback of string

let update_path_to_string = function
  | Noop -> "noop"
  | Patched -> "patched"
  | Resolved_incremental -> "resolved-incremental"
  | Rebuilt -> "rebuilt"
  | Rebuilt_fallback msg -> "rebuilt (fallback: " ^ msg ^ ")"

type update_report = {
  up_path : update_path;
  up_relowered : int;  (* method bodies re-lowered (Rebuilt: all) *)
  up_segments_refrozen : int;  (* SDG segments whose rows moved *)
  up_segments_total : int;
  up_nodes_dead : int;
  up_nodes_new : int;
}

let c_update_noop = Slice_obs.counter "engine.update.noop"
let c_update_patched = Slice_obs.counter "engine.update.patched"

let c_update_resolved_incr =
  Slice_obs.counter "engine.update.resolved_incremental"

let c_update_rebuilt = Slice_obs.counter "engine.update.rebuilt"

let update (h : handle) (new_sources : (string * string) list) :
    handle * update_report =
  Slice_obs.span "engine.update" (fun () ->
      let rebuilt up_path =
        Slice_obs.bump c_update_rebuilt;
        Slice_obs.add_span_arg "path" "rebuilt";
        let h' =
          load ?container_classes:h.h_container_classes ~obj_sens:h.h_obj_sens
            new_sources
        in
        let total = Andersen.num_call_graph_nodes h'.h_analysis.pta in
        ( h',
          { up_path;
            up_relowered = h'.h_stats.methods;
            up_segments_refrozen = total;
            up_segments_total = total;
            up_nodes_dead = 0;
            up_nodes_new = 0 } )
      in
      let fall_back e =
        let msg = Printexc.to_string e in
        Slice_obs.add_span_arg "fallback" msg;
        rebuilt (Rebuilt_fallback msg)
      in
      match Slice_front.Delta.diff ~old_sources:h.h_sources ~new_sources with
      | Slice_front.Delta.Same ->
        Slice_obs.bump c_update_noop;
        Slice_obs.add_span_arg "path" "noop";
        ( h,
          { up_path = Noop;
            up_relowered = 0;
            up_segments_refrozen = 0;
            up_segments_total =
              Andersen.num_call_graph_nodes h.h_analysis.pta;
            up_nodes_dead = 0;
            up_nodes_new = 0 } )
      | Slice_front.Delta.Structural -> rebuilt Rebuilt
      | Slice_front.Delta.Bodies changed -> (
        try
          let a = h.h_analysis in
          let p = a.program in
          (* Locate every changed method and snapshot the OLD bodies'
             constraint summaries before any mutation. *)
          let resolved =
            Slice_obs.span "delta.resolve" (fun () ->
                List.map (Slice_front.Delta.resolve p) changed)
          in
          let summary_of (r : Slice_front.Delta.resolved) =
            Andersen.method_summary_sites
              (Program.find_method_exn p r.Slice_front.Delta.rv_mq)
          in
          (* IR-statement count of the changed bodies' arena spans, old
             before the patch re-lowers them and new after, for the
             Patched path's stats.  [stats_of] only counts REACHABLE
             bodies, so unreachable edits contribute zero — reachability
             cannot change on the Patched path. *)
          let counted =
            List.filter
              (fun (r : Slice_front.Delta.resolved) ->
                Andersen.mctxs_of_method a.pta r.Slice_front.Delta.rv_mq <> [])
              resolved
          in
          let ir_of rs =
            List.fold_left
              (fun acc (r : Slice_front.Delta.resolved) ->
                acc + ir_count a r.Slice_front.Delta.rv_mq)
              0 rs
          in
          (* The old bodies' summaries and IR count, under their own span:
             a patched update's commit is short enough that this work
             shows in its wall time. *)
          let old_summaries, old_ir =
            Slice_obs.span "delta.summary" (fun () ->
                (List.map summary_of resolved, ir_of counted))
          in
          (* Re-lower in place: from here on [p] holds the new bodies and
             any failure falls through to the rebuild handler below. *)
          Slice_obs.span "delta.relower" (fun () ->
              List.iter (Slice_front.Delta.relower_resolved p) resolved);
          let new_summaries =
            Slice_obs.span "delta.summary" (fun () ->
                List.map summary_of resolved)
          in
          let summaries_equal =
            List.for_all2
              (fun (s_old, _) (s_new, _) -> String.equal s_old s_new)
              old_summaries new_summaries
          in
          let n_changed = List.length changed in
          let changed_mqs =
            List.map
              (fun (r : Slice_front.Delta.resolved) -> r.Slice_front.Delta.rv_mq)
              resolved
          in
          if summaries_equal then begin
            (* Patch in place: the old and new site lists zip
               positionally into a remap (summary equality guarantees
               equal length and matching roles), the solved points-to
               result is re-keyed onto the fresh ids, and only the
               changed methods' SDG segments are rewritten. *)
            let remap : (int, int) Hashtbl.t = Hashtbl.create 64 in
            let site_remap s = Hashtbl.find_opt remap s in
            Slice_obs.span "pta.rekey" (fun () ->
                List.iter2
                  (fun (_, old_sites) (_, new_sites) ->
                    List.iter2
                      (fun o n -> if o <> n then Hashtbl.replace remap o n)
                      old_sites new_sites)
                  old_summaries new_summaries;
                Andersen.rekey_sites a.pta ~changed:changed_mqs site_remap);
            let ps = Sdg.patch a.sdg ~changed:changed_mqs ~site_remap in
            Slice_obs.bump c_update_patched;
            Slice_obs.add_span_arg "path" "patched";
            (* Incremental stats: only the edited bodies' IR counts and
               the SDG-derived numbers can move on this path — classes,
               reachable methods, call-graph nodes, abstract objects and
               the points-to sets are pinned by summary equality.  Avoids
               the O(program) [stats_of] re-count, which would otherwise
               rival the patch itself. *)
            let stats' =
              Slice_obs.span "engine.stats" (fun () ->
                  { h.h_stats with
                    ir_statements =
                      h.h_stats.ir_statements + ir_of counted - old_ir;
                    sdg_statements = Sdg.num_scalar_statements a.sdg;
                    sdg_nodes = Sdg.num_live_nodes a.sdg;
                    arena_bytes = Arena.bytes a.arena;
                    heap_index_bytes = Sdg.heap_index_bytes a.sdg;
                    obs = edge_census_snapshot a.sdg })
            in
            ( { h with h_sources = new_sources; h_stats = stats' },
              { up_path = Patched;
                up_relowered = n_changed;
                up_segments_refrozen = ps.Sdg.ps_segments_refrozen;
                up_segments_total = ps.Sdg.ps_segments_total;
                up_nodes_dead = ps.Sdg.ps_nodes_dead;
                up_nodes_new = ps.Sdg.ps_nodes_new } )
          end
          else begin
            (* The edit moved some constraint summary: analyze the
               mutated program afresh.  The frontend ran only on the
               changed bodies. *)
            let a' = analyze ~obj_sens:a.obj_sens p in
            Slice_obs.bump c_update_resolved_incr;
            Slice_obs.add_span_arg "path" "resolved-incremental";
            let total = Andersen.num_call_graph_nodes a'.pta in
            ( { h with
                h_analysis = a';
                h_sources = new_sources;
                h_stats = stats_of ~obs:(edge_census_snapshot a'.sdg) a' },
              { up_path = Resolved_incremental;
                up_relowered = n_changed;
                up_segments_refrozen = total;
                up_segments_total = total;
                up_nodes_dead = 0;
                up_nodes_new = 0 } )
          end
        with e ->
          (* A mid-incremental failure (mini-unit parse error, lowering
             error, violated patch invariant) may leave the program
             half-mutated — the stored sources rebuild it whole. *)
          fall_back e))

(* One heap read/write pair of an expand query, with the flows of their
   common object(s) to each base (see [Expansion.explain_aliasing]). *)
type expand_flow = {
  ef_read : Sdg.node;
  ef_write : Sdg.node;
  ef_read_flow : Sdg.node list;
  ef_write_flow : Sdg.node list;
}

(* Heap read/write pairs connected by producer-heap edges within the
   thin slice seeded at [line], each with its aliasing explanation.
   Pair order is the discovery order of the old CLI loop (slice order
   outer, [deps_iter] order inner, then reversed) — pinned so the
   pretty rendering's bytes survive the extraction. *)
let expand_at_line ?filter (a : analysis) ~(line : int) : expand_flow list =
  let seeds = seeds_at_line_exn ?filter a line in
  let g = a.sdg in
  let slice = Slicer.slice g ~seeds Slicer.Thin in
  let pairs = ref [] and heap = Sdg.edge_kind_tag Sdg.Producer_heap in
  List.iter
    (fun n ->
      Sdg.deps_iter g n (fun dep t ->
          if t = heap && List.mem dep slice then
            pairs := (n, dep) :: !pairs))
    slice;
  List.map
    (fun (read, write) ->
      let e = Expansion.explain_aliasing g ~read ~write in
      { ef_read = read;
        ef_write = write;
        ef_read_flow = e.Expansion.read_flow;
        ef_write_flow = e.Expansion.write_flow })
    !pairs

(* ----- the one query type (ISSUE 7: "dispatched by mode") ----- *)

type query =
  | Q_slice of { line : int; mode : Slicer.mode; forward : bool }
  | Q_chop of { line : int; sink_line : int; mode : Slicer.mode }
  | Q_expand of { line : int }
  | Q_explain of { seed_line : int; line : int; mode : Slicer.mode }
  | Q_report of { line : int; mode : Slicer.mode }
  | Q_stats

type query_result =
  | R_lines of int list
  | R_expand of expand_flow list
  | R_witness of Slicer.witness_step list option
  | R_report of slice_report
  | R_stats of stats

let run_query (h : handle) (q : query) : query_result =
  let a = h.h_analysis in
  match q with
  | Q_slice { line; mode; forward } ->
    R_lines
      (Slicer.slice_line_numbers ~forward a.sdg
         ~seeds:(seeds_at_line_exn a line) mode)
  | Q_chop { line; sink_line; mode } ->
    let source = seeds_at_line_exn a line in
    let sink = seeds_at_line_exn a sink_line in
    R_lines
      (Slicer.node_line_numbers a.sdg (Slicer.chop a.sdg ~source ~sink mode))
  | Q_expand { line } -> R_expand (expand_at_line a ~line)
  | Q_explain { seed_line; line; mode } ->
    R_witness (witness_from_line a ~seed_line ~line mode)
  | Q_report { line; mode } -> R_report (slice_report a ~line mode)
  | Q_stats -> R_stats h.h_stats

(* ----- thinslice.query/v1 JSON ----- *)

let query_schema_version = "thinslice.query/v1"

let node_json (a : analysis) (n : Sdg.node) : Slice_obs.Json.t =
  let open Slice_obs.Json in
  let loc = Sdg.node_loc a.sdg n in
  Obj
    [ ("node", Int n);
      ("file", Str loc.Loc.file);
      ("line", Int loc.Loc.line);
      ("label", Str (Format.asprintf "%a" (Sdg.pp_node a.sdg) n)) ]

let expand_to_json (a : analysis) ~(line : int) (flows : expand_flow list) :
    Slice_obs.Json.t =
  let open Slice_obs.Json in
  let countable = List.filter (Sdg.node_countable a.sdg) in
  Obj
    [ ("schema", Str query_schema_version);
      ("result", Str "expand");
      ("query", Obj [ ("line", Int line) ]);
      ("flows",
       List
         (List.map
            (fun f ->
              Obj
                [ ("read", node_json a f.ef_read);
                  ("write", node_json a f.ef_write);
                  ("read_flow",
                   List (List.map (node_json a) (countable f.ef_read_flow)));
                  ("write_flow",
                   List (List.map (node_json a) (countable f.ef_write_flow))) ])
            flows)) ]

let lines_to_json ~(result : string) ~(query : (string * Slice_obs.Json.t) list)
    (lines : int list) : Slice_obs.Json.t =
  let open Slice_obs.Json in
  Obj
    [ ("schema", Str query_schema_version);
      ("result", Str result);
      ("query", Obj query);
      ("lines", List (List.map (fun l -> Int l) lines)) ]

(* The resident-stats export: program shape + per-program edge-kind
   counters, NO telemetry snapshot.  [stats_to_json]'s telemetry member
   is process-cumulative by design (counters, spans at capture), which
   is exactly wrong for a daemon answering for ONE resident program —
   and per-query walls live in the serve response envelope instead. *)
let resident_stats_to_json (s : stats) : Slice_obs.Json.t =
  let open Slice_obs.Json in
  Obj
    [ ("schema", Str stats_schema_version);
      ("program", program_stats_json s);
      ("sdg.edges_by_kind", edges_by_kind_json s.obs);
      ("memory", memory_json s) ]

(* Witness queries keep the [thinslice.explain/v1] payload for members
   (byte-compatible with pre-serve [explain --json]); a non-member
   answer is a RESULT in the serve protocol — the query succeeded, the
   line just is not in the slice — so it gets a structured shape here
   while the CLI keeps its exit-1 contract. *)
let non_member_to_json ~(seed_line : int) ~(line : int) (mode : Slicer.mode) :
    Slice_obs.Json.t =
  let open Slice_obs.Json in
  Obj
    [ ("schema", Str explain_schema_version);
      ("result", Str "witness");
      ("query",
       Obj
         [ ("seed_line", Int seed_line);
           ("line", Int line);
           ("mode", Str (Slicer.mode_to_string mode)) ]);
      ("member", Bool false) ]

let query_result_to_json (h : handle) (q : query) (r : query_result) :
    Slice_obs.Json.t =
  let a = h.h_analysis in
  let open Slice_obs.Json in
  match (q, r) with
  | Q_slice { line; mode; forward }, R_lines lines ->
    lines_to_json
      ~result:(if forward then "forward" else "slice")
      ~query:
        [ ("line", Int line); ("mode", Str (Slicer.mode_to_string mode)) ]
      lines
  | Q_chop { line; sink_line; mode }, R_lines lines ->
    lines_to_json ~result:"chop"
      ~query:
        [ ("line", Int line);
          ("to", Int sink_line);
          ("mode", Str (Slicer.mode_to_string mode)) ]
      lines
  | Q_expand { line }, R_expand flows -> expand_to_json a ~line flows
  | Q_explain { seed_line; line; mode }, R_witness (Some steps) ->
    witness_to_json a ~seed_line ~line mode steps
  | Q_explain { seed_line; line; mode }, R_witness None ->
    non_member_to_json ~seed_line ~line mode
  | Q_report _, R_report rep -> report_to_json rep
  | Q_stats, R_stats s -> resident_stats_to_json s
  | ( ( Q_slice _ | Q_chop _ | Q_expand _ | Q_explain _ | Q_report _
      | Q_stats ),
      _ ) ->
    invalid_arg "Engine.query_result_to_json: result does not match query"
