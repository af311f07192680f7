(** Backward and forward slicing as graph reachability over the classified
    SDG (paper, section 5.2). *)

(** Which dependence edges a traversal follows:
    - [Thin]: producer edges only — the thin slice of the paper;
    - [Thin_with_aliasing k]: additionally crosses up to [k] base-pointer
      or index edges along any path — the controlled one-level aliasing
      expansion used for nanoxml-5 in the evaluation (section 6.2);
    - [Traditional_data]: all flow dependences including base pointers,
      indices, and Weiser statement closure over call arguments, but no
      control — the "traditional data slicer" the paper compares against;
    - [Traditional_full]: also follows control dependences. *)
type mode =
  | Thin
  | Thin_with_aliasing of int
  | Traditional_data
  | Traditional_full

val mode_to_string : mode -> string

(** Parse a mode name.  Accepts both the CLI spellings ([thin], [trad],
    [traditional], [full], [alias:K]) and the {!mode_to_string}
    round-trip forms ([traditional-data], [traditional-full],
    [thin+aliasK]) so every driver — cmdliner conv, serve protocol,
    repro files — parses through one place.  [None] on anything else. *)
val mode_of_string : string -> mode option

(** How a given edge kind is treated under a mode: followed freely,
    followed at the cost of one unit of aliasing budget, or skipped.
    Exposed for the BFS inspection metric, which must traverse with the
    same discipline. *)
val edge_policy : mode -> Sdg.edge_kind -> [ `Follow | `Costly | `Skip ]

(** The saturation point of the aliasing budget: [Thin_with_aliasing k]
    behaves as [min k max_aliasing_budget] in EVERY traversal (CSR walk,
    the [Slice_oracle.Reference_walk] oracle, BFS inspection) — the
    clamp is applied centrally in {!initial_budget} so implementations
    cannot disagree at the boundary. *)
val max_aliasing_budget : int

(** Starting budget of a mode, clamped to {!max_aliasing_budget}. *)
val initial_budget : mode -> int

(** Every traversal walks on one shared set of buffers (budget/visited
    byte table, entry-unique ring, touched-node log), grown on demand and
    never released by a walk.  [shared_scratch_capacity ()] is the number
    of nodes they cover: 0 until the first traversal. *)
val shared_scratch_capacity : unit -> int

(** Release the shared buffers above [keep] nodes (clamped to at least
    1; no-op when already at or below).  Without it a single
    mega-program query would pin peak memory for the process's
    lifetime — a real leak in a long-lived daemon, which calls this when
    it evicts or shrinks a program.  Safe at any point between walks;
    the next walk regrows. *)
val shrink_shared_scratch : keep:int -> unit

(** {2 Provenance}

    Opt-in per-walk evidence: flat side tables (discovering parent node,
    discovering edge kind, remaining aliasing budget on arrival, BFS
    layer at first visit) recorded when a traversal entry point is given
    a [?prov] handle.  Grow-only and generation-stamped — a new recorded
    walk invalidates the previous one's records in O(1) — and, unlike
    the walk buffers, caller-owned and readable AFTER the walk via
    {!witness} and {!distance}.  Recording is a branch inside the one
    walk: without [?prov] it writes no record and computes no edge-kind
    tag.

    Records are also stamped with the graph's {!Sdg.generation} at walk
    time: after an incremental update patches the graph, {!witness} and
    {!distance} answer [None] (the recorded path may pass through
    retired nodes) until a new recorded walk runs. *)
type provenance

(** A provenance sized for [g] (grow-only; any graph may use it later). *)
val create_provenance : Sdg.t -> provenance

(** Mode of the last recorded walk, [None] if none has run yet. *)
val provenance_mode : provenance -> mode option

(** BFS layer of a node in the last recorded walk ([Some 0] exactly for
    seeds), [None] when the node was not a member of that slice.  In
    budget-free modes this equals the {!Inspect} layer index. *)
val distance : provenance -> Sdg.node -> int option

(** One step of a witness path.  [wit_kind] is the kind of the dependence
    edge from the PREVIOUS step to this one ([None] at the seed);
    [wit_budget] the best remaining aliasing budget on arrival;
    [wit_dist] the BFS layer at first visit. *)
type witness_step = {
  wit_node : Sdg.node;
  wit_kind : Sdg.edge_kind option;
  wit_budget : int;
  wit_dist : int;
}

(** The dependence path by which the last recorded walk reached [node]:
    seed first, queried node last, each step depending on the next via
    the next step's [wit_kind] (for a backward walk; a forward walk's
    path reads in the reverse dependence direction).  The recorded chain
    replays under the walk's budget discipline — every `Costly hop had
    budget — because discovery records follow every budget improvement.
    [None] when [node] was not in the last recorded slice (so
    [witness p n <> None] iff [n] is a member). *)
val witness : provenance -> Sdg.node -> witness_step list option

(** Backward slice: every node the seeds transitively depend on under the
    mode's edge discipline, sorted.  The walk runs over
    {!Sdg.deps_iter} — allocation-free flat CSR arrays — with a
    byte-array budget/visited table and an entry-unique
    int ring deque (each node occupies at most one queue slot; a budget
    improvement for a queued node only updates the table).  [?prov]
    records the walk's discovery tree in the handle. *)
val slice :
  ?prov:provenance ->
  Sdg.t -> seeds:Sdg.node list -> mode -> Sdg.node list

(** Forward slice: every node that transitively consumes the seeds' values
    — impact analysis, the dual of the paper's backward producer chains. *)
val forward_slice :
  ?prov:provenance ->
  Sdg.t -> seeds:Sdg.node list -> mode -> Sdg.node list

(** Many backward slices over one graph on the shared walk buffers: build
    the graph once, then call this with one seed set per wanted slice.  Result lists are in input order.  Recorded under
    the ["slicer.slice_batch"] span. *)
val slice_batch :
  Sdg.t -> seeds_list:Sdg.node list list -> mode -> Sdg.node list list

(** Forward mirror of {!slice_batch}, recorded under its own
    ["slicer.forward_batch"] span. *)
val forward_slice_batch :
  Sdg.t -> seeds_list:Sdg.node list list -> mode -> Sdg.node list list

(** Chop: the nodes on producer paths from [source] to [sink] — how a
    value travels between two program points.  Computed as the sorted
    merge intersection of the forward walk from [source] and the
    backward walk from [sink]; symmetric in which walk is enumerated, and
    sorted-unique. *)
val chop :
  Sdg.t -> source:Sdg.node list -> sink:Sdg.node list -> mode -> Sdg.node list

(** Distinct source locations of countable nodes, sorted — the projection
    {!slice_lines} applies to a slice.  The first location seen per
    (file, line) is kept.  The graph's dense line keys are stamped in a
    resident scratch and emitted in key order, which is [Loc.compare]
    order: no comparison sort, and no allocation beyond the result. *)
val nodes_to_lines : Sdg.t -> Sdg.node list -> Slice_ir.Loc.t list

(** Sorted distinct line NUMBERS of a node list: the numbers of
    {!nodes_to_lines}, through the same stamp, without building the
    locations.  Distinct files can repeat a line number; it is reported
    once. *)
val node_line_numbers : Sdg.t -> Sdg.node list -> int list

(** Project locations to sorted-distinct line NUMBERS.  Distinct files can
    repeat a line number, so the dedup happens after the file component is
    dropped — a two-file program whose slices touch [a.tj:4] and [b.tj:4]
    reports line 4 once.  A strictly ascending input (one file, in
    {!nodes_to_lines} order) costs one linear check. *)
val locs_to_line_numbers : Slice_ir.Loc.t list -> int list

(** Slice contents as distinct source locations of countable nodes — the
    granularity a user reads (a source statement lowered to several IR
    instructions is reported once). *)
val slice_lines : Sdg.t -> seeds:Sdg.node list -> mode -> Slice_ir.Loc.t list

(** The sorted distinct line numbers of a backward slice, or of a forward
    slice under [~forward:true]: the answer of a slice query.  The walk's
    touched log is projected directly, so no node list is built.
    Recorded under the same span as {!slice} (or {!forward_slice}). *)
val slice_line_numbers :
  forward:bool -> Sdg.t -> seeds:Sdg.node list -> mode -> int list
