(** End-to-end pipeline: program -> points-to analysis -> SDG -> slicers.
    This is the entry point a tool embeds. *)

open Slice_ir
open Slice_pta

type analysis = {
  program : Program.t;
  pta : Andersen.result;
  sdg : Sdg.t;
  arena : Arena.t;
      (** the flat int-indexed statement store of every method body
          (see {!Arena}): the SDG's pass 1 reads it at build time, and a
          [Patched] {!update} re-lowers the edited methods into it, so
          it always describes the current bodies *)
  obj_sens : bool;
}

(** Run the points-to analysis (object-sensitive container cloning on by
    default, as in the paper's section 6.1) and build the dependence
    graph, whose adjacency {!Sdg.build} writes once, in its final
    compressed-sparse-row layout.  The points-to solver is
    {!Andersen.analyze}, the bitset worklist solver. *)
val analyze :
  ?obj_sens:bool ->
  Program.t ->
  analysis

(** Parse, typecheck, lower and analyze a TJ source text. *)
val of_source :
  ?container_classes:string list ->
  ?obj_sens:bool ->
  file:string ->
  string ->
  analysis

(** Analyze several [(file, src)] units as one program (see
    {!Slice_front.Frontend.load_many_exn}): slices may span files, and
    every reported location keeps the file it came from. *)
val of_sources :
  ?container_classes:string list ->
  ?obj_sens:bool ->
  (string * string) list ->
  analysis

(** Narrow seed selection when a line holds several statements. *)
type seed_filter =
  | Any
  | Only_loads
  | Only_calls
  | Only_casts
  | Only_conditionals
  | Only_throws

val matches_filter : analysis -> seed_filter -> Sdg.node -> bool
val seeds_at_line : ?filter:seed_filter -> analysis -> int -> Sdg.node list

exception No_seed of int

val seeds_at_line_exn : ?filter:seed_filter -> analysis -> int -> Sdg.node list

(** Slice from a source line, reported as sorted line numbers. *)
val slice_from_line :
  ?filter:seed_filter -> analysis -> line:int -> Slicer.mode -> int list

(** Many slices over one graph: seeds are resolved per line, then a single
    batched walk reuses scratch buffers across all seeds (see
    {!Slicer.slice_batch}).  Returns, per input line in input order, the
    sorted distinct source line numbers of its slice (deduplicated across
    files — see {!Slicer.locs_to_line_numbers}).  [forward:true] slices
    forward (impact analysis).  Raises {!No_seed} for a line with no
    statements. *)
val slice_batch :
  ?filter:seed_filter ->
  ?forward:bool ->
  analysis ->
  lines:int list ->
  Slicer.mode ->
  (int * int list) list

(** The paper's BFS inspection simulation from a line seed. *)
val inspect_from_line :
  ?filter:seed_filter ->
  analysis ->
  line:int ->
  desired:int list ->
  Slicer.mode ->
  Inspect.report

(** {2 Provenance queries}

    Built on {!Slicer.witness}: answer "why is this statement in my
    slice?" with evidence instead of membership. *)

(** Schema tag of {!report_to_json} / {!witness_to_json} payloads. *)
val explain_schema_version : string

(** The data-only companion of a mode (drop control dependences, keep
    every flow edge): [Traditional_full] maps to [Traditional_data], the
    other modes are their own companion.  This is the boundary between a
    report's alias-explainer and control-explainer layers. *)
val data_submode : Slicer.mode -> Slicer.mode

(** [witness_from_line a ~seed_line ~line mode] slices from [seed_line]
    recording provenance, then returns the dependence path (seed first)
    by which the slice reached [line] — the target-line node with the
    smallest (BFS distance, node id) is explained, so the answer is the
    hop-shortest recorded path and deterministic.  [None] when [line]
    has nodes but none is a member; raises [No_seed] (carrying the
    offending line) when either line has no statements. *)
val witness_from_line :
  ?filter:seed_filter ->
  analysis ->
  seed_line:int ->
  line:int ->
  Slicer.mode ->
  Slicer.witness_step list option

(** The three layers of an explain report, innermost first: thin-slice
    members (the paper's producers), members added by base-pointer /
    index / call-closure flow, members reached only through control
    dependences. *)
type explain_layer = Producers | Alias_explainers | Control_explainers

val layer_to_string : explain_layer -> string

type report_line = {
  rl_loc : string * int;  (** (file, line) *)
  rl_rank : int;
      (** min provenance BFS distance over the line's member nodes — the
          paper's section 5 inspection rank *)
  rl_layer : explain_layer;
  rl_explains : (string * int) list;
      (** member lines this line's non-producer nodes DIRECTLY explain
          (via {!Expansion.base_defs} / [index_defs] / [call_actuals] /
          [explain_control]); sorted distinct.  Usually empty for
          producer lines, but a line hosting both a producer and an
          explainer node keeps its explanations *)
}

type slice_report = {
  sr_seed_line : int;
  sr_mode : Slicer.mode;
  sr_layer_sizes : int * int * int;
      (** (producer, alias-explainer, control-explainer) line counts *)
  sr_lines : report_line list;  (** sorted by (rank, file, line) *)
}

(** Layered explain report of the [mode] slice seeded at [line]:
    members partitioned producers / alias explainers / control
    explainers (layer boundaries are the thin slice and the
    {!data_submode} slice), ranked by provenance BFS distance. *)
val slice_report :
  ?filter:seed_filter ->
  analysis ->
  line:int ->
  Slicer.mode ->
  slice_report

(** [thinslice.explain/v1] encodings (see README "Explaining slices"). *)
val report_to_json : slice_report -> Slice_obs.Json.t

val witness_to_json :
  analysis ->
  seed_line:int ->
  line:int ->
  Slicer.mode ->
  Slicer.witness_step list ->
  Slice_obs.Json.t

(** Downcasts the pointer analysis cannot prove safe — the "tough casts"
    of the paper's section 6.3. *)
val tough_casts : analysis -> (Instr.method_qname * Instr.instr) list

(** Program statistics in the shape of the paper's Table 1, plus the
    process telemetry snapshot captured when the stats were taken. *)
type stats = {
  classes : int;
  methods : int;           (** reachable methods with bodies *)
  ir_statements : int;     (** the "bytecode statements" analogue *)
  call_graph_nodes : int;  (** method contexts *)
  sdg_statements : int;    (** scalar statements, heap params excluded *)
  sdg_nodes : int;         (** including context clones and formals *)
  abstract_objects : int;
  arena_bytes : int;
      (** {!Arena.bytes} of the flat IR — arithmetic over array
          capacities, so deterministic and safe in byte-compared output.
          A Patched incremental update reports the arena after its
          re-lower. *)
  pta_set_bytes : int;
      (** {!Andersen.set_bytes}: the points-to rows and the solver's
          dedup table, from their capacities.  A Patched update keeps
          it (the sets do not move). *)
  heap_index_bytes : int;
      (** {!Sdg.heap_index_bytes}: the SDG's retained heap access
          index, from the binding and cell counts it keeps. *)
  obs : Slice_obs.snapshot;
      (** counters, gauges, histograms and spans at capture time *)
}

(** Statistics of an analysis.  [sdg_nodes] counts LIVE nodes — equal to
    {!Sdg.num_nodes} until an incremental patch retires some.  [?obs]
    substitutes the snapshot member ({!update} passes a per-graph edge
    census instead of the process-cumulative registry). *)
val stats_of : ?obs:Slice_obs.snapshot -> analysis -> stats

(** Schema identifier emitted in the JSON export ("thinslice.stats/v1"). *)
val stats_schema_version : string

(** The Table-1 numbers alone, as a JSON object. *)
val program_stats_json : stats -> Slice_obs.Json.t

(** The "sdg.edge.<kind>" counters of a snapshot, as an object keyed by
    edge kind (the Figure 2/3 classification). *)
val edges_by_kind_json : Slice_obs.snapshot -> Slice_obs.Json.t

(** Full JSON export: [{"schema", "program", "sdg.edges_by_kind",
    "telemetry"}] — the payload behind [thinslice --stats-json] and the
    per-benchmark entries of BENCH_results.json. *)
val stats_to_json : stats -> Slice_obs.Json.t

(** Per-kind edge census of a graph ({!Sdg.edge_kind_counts}, kept by
    the graph, so reading it costs nothing) presented in snapshot shape
    (only ["sdg.edge.<kind>"] counters, everything else empty) — the [?obs]
    {!stats_of} wants for a patched graph, where the load-time scoped
    snapshot describes the pre-edit edges. *)
val edge_census_snapshot : Sdg.t -> Slice_obs.snapshot

(** {2 Canonical analysis dumps}

    {!Andersen.pts_dump_loc} / {!Andersen.call_graph_dump_loc} with
    every site rendered as its per-method body-order ordinal
    (["<method>#<ix>"]).  Raw statement ids diverge between a patched
    analysis and a fresh rebuild, and source locations collide on
    synthetic statements; the ordinal is the key both sides agree on —
    the fuzz oracle compares these dumps for byte equality. *)
val pts_dump_canonical : analysis -> (string * string list) list

val call_graph_dump_canonical : analysis -> (string * string list) list

(** {2 Resident-analysis handles and the unified query API}

    One code path for every driver: the serve daemon keeps handles
    resident in its program cache, the one-shot CLI builds one and
    throws it away, and both answer through {!run_query} /
    {!query_result_to_json} — serve-vs-CLI byte parity by
    construction. *)

type handle = {
  h_analysis : analysis;
  h_stats : stats;
      (** captured under {!Slice_obs.scoped} at load time: the snapshot
          covers exactly this handle's load pipeline, so per-program
          stats stay deterministic in a process that loads many
          programs *)
  h_sources : (string * string) list;
      (** the exact units this handle analyzed — what {!update} diffs
          a new version against *)
  h_container_classes : string list option;
  h_obj_sens : bool;
  h_solver : [ `Bitset ];
      (** read by nothing: there is one solver.  Kept only because the
          benchmark builds handle literals that name it *)
}

(** Analyze [(file, src)] units into a resident handle.  The load runs
    inside {!Slice_obs.scoped} (merged back into the caller's registry),
    so [h_stats] equals what a fresh one-shot process would report. *)
val load :
  ?container_classes:string list ->
  ?obj_sens:bool ->
  (string * string) list ->
  handle

(** {2 Incremental update}

    [update h new_sources] re-analyzes an edited version of a handle's
    program, doing work proportional to the edit where possible.  The
    edit is classified by {!Slice_front.Delta.diff}; the returned
    {!update_path} records how far the pipeline re-ran. *)

(** Cheapest first:
    - [Noop]: byte-identical sources — the handle is returned as-is;
    - [Patched]: only method bodies changed AND their constraint
      summaries are unchanged — bodies re-lowered in place, points-to
      re-keyed ({!Andersen.rekey_sites}), SDG patched
      ({!Sdg.patch});
    - [Resolved_incremental]: only method bodies changed, but some
      constraint summary moved — only the changed bodies are
      re-lowered (the frontend is incremental), then points-to, the
      arena and the SDG are built afresh over the mutated program
      ({!analyze});
    - [Rebuilt]: structural edit — a signature, class or field edit,
      or a whole method added or removed — full {!load} from the new
      sources under the handle's stored options;
    - [Rebuilt_fallback msg]: the same full {!load}, taken because an
      incremental tier raised [msg] part-way.  The answer is still
      exact, but the tier the edit was meant for did not run; printed
      as ["rebuilt (fallback: <msg>)"], and a violation under the fuzz
      edit battery.

    The ladder is monotone in correctness: every tier's handle answers
    queries identically to a fresh load of the new sources. *)
type update_path =
  | Noop
  | Patched
  | Resolved_incremental
  | Rebuilt
  | Rebuilt_fallback of string

val update_path_to_string : update_path -> string

type update_report = {
  up_path : update_path;
  up_relowered : int;  (** method bodies re-lowered (Rebuilt: all) *)
  up_segments_refrozen : int;
      (** SDG method-context segments whose adjacency rows moved *)
  up_segments_total : int;
  up_nodes_dead : int;
  up_nodes_new : int;
}

(** Apply an edit.  On the [Patched] path the returned handle SHARES
    state with the input handle (graph, points-to result and program
    are mutated in place); on [Resolved_incremental] only the program
    is shared and mutated, and the points-to result, arena and graph
    are new.  After any non-[Noop], non-[Rebuilt] update, query only
    the RETURNED handle.  Queries answered through it agree with a
    fresh load of [new_sources] — the property the fuzz oracle's edit
    battery enforces per tier.  Recorded under the ["engine.update"]
    span with a ["path"] arg and per-path ["engine.update.<path>"]
    counters (["resolved_incremental"] for the resolved tier). *)
val update : handle -> (string * string) list -> handle * update_report

(** One heap read/write pair of an expand query: the pair is connected
    by a producer-heap edge inside the thin slice, and the flows carry
    the common object(s) to each access's base pointer (see
    {!Expansion.explain_aliasing}). *)
type expand_flow = {
  ef_read : Sdg.node;
  ef_write : Sdg.node;
  ef_read_flow : Sdg.node list;
  ef_write_flow : Sdg.node list;
}

(** All such pairs for the thin slice seeded at [line], in discovery
    order, each explained.  Raises {!No_seed} like the other line
    queries. *)
val expand_at_line :
  ?filter:seed_filter -> analysis -> line:int -> expand_flow list

(** The one query type every driver dispatches on (the serve protocol's
    methods map onto it 1:1; [forward] distinguishes the forward
    method from slice). *)
type query =
  | Q_slice of { line : int; mode : Slicer.mode; forward : bool }
  | Q_chop of { line : int; sink_line : int; mode : Slicer.mode }
  | Q_expand of { line : int }
  | Q_explain of { seed_line : int; line : int; mode : Slicer.mode }
  | Q_report of { line : int; mode : Slicer.mode }
  | Q_stats

type query_result =
  | R_lines of int list  (** slice / forward / chop: sorted line numbers *)
  | R_expand of expand_flow list
  | R_witness of Slicer.witness_step list option
      (** [None]: the line is not a member — a successful answer in the
          serve protocol, exit 1 in the CLI *)
  | R_report of slice_report
  | R_stats of stats

(** Answer a query against a resident handle.  Raises {!No_seed} when a
    referenced line has no statements. *)
val run_query : handle -> query -> query_result

(** Schema tag of slice/forward/chop/expand result payloads
    ("thinslice.query/v1"; explain/report keep [thinslice.explain/v1],
    stats keeps [thinslice.stats/v1]). *)
val query_schema_version : string

(** Encode a result.  Must be called with the query that produced the
    result (the encodings echo the query); raises [Invalid_argument]
    on a mismatched pair.  Stats results encode program shape +
    per-program edge-kind counters WITHOUT the process-cumulative
    telemetry member of {!stats_to_json} — per-query walls belong to
    the serve response envelope. *)
val query_result_to_json : handle -> query -> query_result -> Slice_obs.Json.t
