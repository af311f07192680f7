(** The dependence-graph representation shared by both slicers: a variant
    of the system dependence graph [11] in which

    - nodes are statements qualified by the points-to analysis context of
      their method, so container methods cloned per receiver object appear
      once per clone (as in WALA's CGNode-based SDG);
    - every dependence edge is classified, so that thin slicing can follow
      only producer edges (paper, section 3) while traditional slicing
      also follows base-pointer, index, statement-closure and control
      edges;
    - heap dependences are direct store-to-load edges computed from the
      points-to result — the scalable context-insensitive representation
      of section 5.2.  The heap-parameter representation for the
      context-sensitive algorithm lives in {!Tabulation}.

    Edges are stored backwards: [deps g n] lists what [n] depends on,
    the direction slicing traverses; [uses g n] is the forward view. *)

open Slice_ir
open Slice_pta

type edge_kind =
  | Producer_local  (** SSA def-use, value position *)
  | Producer_heap   (** field/array/static store -> may-aliased load *)
  | Param_in        (** formal -> actual argument definition *)
  | Return_value    (** call -> return statement of callee *)
  | Base_pointer    (** def-use into a dereferenced base pointer *)
  | Index           (** def-use into an array index *)
  | Call_actual
      (** call statement -> its actual-in nodes.  Not value flow: a
          Weiser-style (executable) slice containing a call must also
          compute the call's arguments; thin slicing's relevance notion
          drops exactly this closure. *)
  | Control         (** control dependence *)

(** Producer edges are the ones a thin slice follows (paper, section 3). *)
val is_producer : edge_kind -> bool

val edge_kind_to_string : edge_kind -> string

(** Edge kinds as dense int tags [0..7] (the packed CSR encoding) and the
    inverse table.  Exposed so flat side tables — the slicer's provenance
    scratch, JSON encoders — can store kinds unboxed.
    [edge_kind_of_tag] raises [Invalid_argument] outside [0..7]. *)
val edge_kind_tag : edge_kind -> int

val edge_kind_of_tag : int -> edge_kind

type node_desc =
  | Stmt of int * Instr.stmt_id  (** method context, statement *)
  | Formal of int * int          (** method context, parameter index *)
  | Actual_in of int * Instr.stmt_id * int
      (** the i-th actual argument of a call statement; belongs to the
          call statement for display, so a call through which a value
          flows appears in the slice (like line 17 of the paper's
          Figure 1) *)

type node = int
type t

(** Build the graph for every reachable method context.

    [arena] is the flat int-indexed statement store ({!Arena.build}) of
    [p], and the only one the graph reads: every pass walks its packed
    columns (intraprocedural and heap rows, call rows, block and
    governor spans), statement lookups read its records, and the graph
    keeps it: {!patch} re-lowers the changed methods into it, so after a
    patch it describes the new bodies.  The build reads no record body
    of [p].

    Nodes are interned by packed int descriptor keys through one
    {!Slice_util.Imap}, in first-intern order; {!node_desc} decodes a
    node's key columns on demand.

    Pass 3 (heap wiring) gathers the distinct candidate (write, read)
    node pairs in one int buffer and emits them in sorted (write node,
    read node) order, so the adjacency does not depend on hash-table
    iteration order.  {!patch} wires its new accesses the same way.

    The passes append every edge to a flat log; one count-then-fill pass
    at the end writes the compressed-sparse-row adjacency (flat [int]
    arrays of offsets, targets and kind tags, backward and forward) that
    every reader walks.  A repeated (from, on, kind) edge keeps its
    first emission, and each row lists its edges in reverse order of
    first emission.  Recorded under the ["sdg.csr"] span, with the
    [sdg.csr_nodes]/[sdg.csr_edges] counters and the [sdg.csr_bytes]
    footprint gauge. *)
val build : arena:Arena.t -> Program.t -> Andersen.result -> t

(** Does nothing.  {!build} writes the final adjacency itself; this is
    kept, idempotent, for callers that still time a freeze phase. *)
val freeze : t -> unit

(** Number of (backward) dependence edges in the graph. *)
val num_edges : t -> int

val program : t -> Program.t
val pta : t -> Andersen.result

(** The record of statement [s], read through the graph's arena
    ({!Arena.stmt_site}): [None] for a negative (synthetic intrinsic)
    id, an unknown id, or one a {!patch} retired. *)
val stmt_site : t -> Instr.stmt_id -> Program.site option

val node_desc : t -> node -> node_desc
val num_nodes : t -> int

(** Backward adjacency iteration: the nodes [n] depends on, in row
    order, each with its edge's kind as an {!edge_kind_tag}.  The
    hot-path accessor: allocation-free over the CSR arrays (or a patch
    overlay row). *)
val deps_iter : t -> node -> (node -> int -> unit) -> unit

(** Forward adjacency iteration: the nodes that depend on [n], each with
    its edge's kind tag. *)
val uses_iter : t -> node -> (node -> int -> unit) -> unit

(** Backward adjacency as a list: {!deps_iter}'s row, in the same order.
    Allocates a fresh list per call; prefer {!deps_iter} on hot paths. *)
val deps : t -> node -> (node * edge_kind) list

(** Forward adjacency as a list: the nodes that depend on [n] (prefer
    {!uses_iter}). *)
val uses : t -> node -> (node * edge_kind) list

(** {2 Locations}

    The graph owns dense per-node location columns, derived from the
    arena's statement records: {!build} writes every node's, {!patch} clears its
    retired nodes' and writes its new nodes' (all of them only when a
    new location falls outside the line-key space).  The accessors below are array reads.  The
    columns cost 16 bytes per node, recorded by the [sdg.loc_bytes]
    gauge. *)

(** Source location of a node ([Loc.none] for formals). *)
val node_loc : t -> node -> Loc.t

val node_stmt : t -> node -> Instr.stmt_id option

(** Statements a user would read: real instructions with a source
    location, excluding phis and compiler-internal statements. *)
val node_countable : t -> node -> bool

(** Dense key of a countable node's (file, line) pair, [-1] for a node
    that is not {!node_countable}.  Keys lie in [0, num_line_keys g) and
    order like (file, line) under [String.compare] then line, so two
    nodes share a key iff their locations share file and line. *)
val line_key : t -> node -> int

val num_line_keys : t -> int

val pp_node : t -> Format.formatter -> node -> unit

(** All live statement nodes whose source line matches (and whose file
    is [f] under [~file:(Some f)]), ascending.  A scan of an unboxed
    key column: no hashing. *)
val nodes_at_line : t -> file:string option -> line:int -> node list

(** Distinct statement ids appearing as live nodes (context clones
    counted once) — the paper's Table 1 "SDG Statements".  Counted by
    {!build} and kept by {!patch}, so reading it costs nothing. *)
val num_scalar_statements : t -> int

(** Bytes of the retained heap access index (the store/load index a
    {!patch} wires new accesses against), computed from its key table's
    size and its cell columns' lengths: O(1), and the same in every
    process for the same program and edits.  Reads are indexed once
    each, under their base's points-to representative, so the index
    grows with the accesses, not with their points-to sets. *)
val heap_index_bytes : t -> int

(** Cells on the heap index's chains.  A patch frees the retired
    accesses' cells and reuses them first, so an edit and its revert
    leave this and {!heap_index_bytes} as they were. *)
val heap_index_cells : t -> int

(** The heap index itself, for tests that hold {!heap_index_bytes} to
    [Obj.reachable_words]. *)
val heap_index_repr : t -> Obj.t

(** {2 Incremental patches}

    After an incremental re-lower of a few method bodies (see
    {!Delta}/{!Engine}), the graph can be PATCHED in place rather
    than rebuilt: the changed methods' statement-bound nodes are retired
    (ids never reused, so resident scratch and provenance buffers stay
    valid), their [Formal] nodes survive (signatures are stable under
    the summary-equality precondition, so caller-side edges hold), the
    shared per-method passes re-run over just the new bodies, new heap
    accesses wire against the retained access index, and the touched
    rows are committed as overlays over the immutable CSR.  Row lookup
    on a patched graph checks the overlay first — one extra branch, paid
    only after the first patch. *)

type patch_stats = {
  ps_nodes_dead : int;        (** nodes retired by this patch *)
  ps_nodes_new : int;         (** nodes interned for the new bodies *)
  ps_rows_touched : int;      (** adjacency rows rewritten (either direction) *)
  ps_segments_refrozen : int; (** method contexts whose rows moved *)
  ps_segments_total : int;    (** reachable method contexts *)
}

(** Patch a graph onto re-lowered method bodies.  Preconditions (the
    [Engine] P0 path establishes them): the program already holds the
    new bodies, each changed method's constraint summary is unchanged,
    and the points-to result was re-keyed with {!Andersen.rekey_sites}
    using the same [site_remap].  [changed] names every method whose
    body was re-lowered; each one was in the program before the edit
    and still is (a whole method added or removed reloads instead).
    The patch first re-lowers them into the graph's arena
    ({!Arena.relower}), which also retires the old bodies' statement
    ids from its index and indexes the new ones, then re-runs the
    per-method passes over the arena rows of their method contexts.

    The work is bounded by the edit, not the program: the retired nodes
    are found through the old bodies' arena rows, the heap index is
    purged under the retired accesses' keys only, and the location
    columns, the edge census ({!edge_kind_counts}) and the
    scalar-statement count are adjusted in place.  Traced under
    ["sdg.patch"], with children [sdg.patch.disconnect], [.intra],
    [.heap], [.control], [.commit] and [.locs]. *)
val patch :
  t ->
  changed:Instr.method_qname list ->
  site_remap:(Instr.stmt_id -> Instr.stmt_id option) ->
  patch_stats

(** Number of committed patches — provenance captured against an older
    generation refuses to answer (see {!Slicer}). *)
val generation : t -> int

(** Node retired by a patch?  Dead nodes keep their ids but have empty
    rows, and their statements answer {!stmt_site} with [None]. *)
val is_dead : t -> node -> bool

(** [num_nodes] minus retired nodes — the node count a patched handle
    reports. *)
val num_live_nodes : t -> int

(** Check node identity: every live node's {!node_desc} leads back to
    it through the graph's descriptor index, and no two nodes, live or
    retired, share a descriptor.  Returns an error naming the first
    failure found. *)
val check_index : t -> (unit, string) result

(** Census of live edges by kind: counted by {!build} and adjusted by
    every {!patch} (the process-wide build counters overcount after a
    patch). *)
val edge_kind_counts : t -> (edge_kind * int) list

(** GraphViz export; producer edges solid, explainer edges dashed/dotted
    (the paper's Figure 3 conventions).  [?witness] overlays a dependence
    path as consecutive [(node, arrival_kind)] steps — seed first, [None]
    kind at the seed, each later step carrying the kind of the edge from
    its predecessor: path nodes and exactly those hop edges are
    highlighted red/bold, which is how [thinslice explain --dot] renders
    a {!Slicer.witness} on top of the full graph. *)
val to_dot : ?witness:(node * edge_kind option) list -> t -> string
