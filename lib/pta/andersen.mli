(** Andersen-style (subset-based) points-to analysis with on-the-fly call
    graph construction, a field-sensitive heap, and optional
    object-sensitive cloning of container-class methods and their
    allocations — the analysis configuration of the paper's section 6.1
    ("a variant of Andersen's analysis with on-the-fly call graph
    construction, with fully object-sensitive cloning for objects of key
    collections classes").

    The main solver is a difference-propagation worklist over an
    interned node universe with a bitset data plane: points-to sets and
    accumulated per-node deltas are growable dense bitsets
    ([Slice_util.Bits]), the worklist is an entry-unique FIFO int ring,
    and unfiltered copy cycles are collapsed online (union-find with
    lazy cycle detection), so every node of a copy cycle shares one
    points-to set.  Complex constraints (field loads/stores, virtual
    dispatch) are attached to base-pointer nodes and processed as their
    points-to sets grow.

    This is the only solver the pipeline runs.  The original list/tree
    solver survives as a test and fuzz oracle
    ([Slice_oracle.Reference_pta]), compared against this one through
    the shared {!Pta_dump} keys. *)

open Slice_ir

module ObjSet : Set.S with type elt = int

type opts = {
  obj_sens_containers : bool;
      (** clone container-class methods per receiver object *)
  max_ctx_depth : int;
      (** cap on nested receiver contexts (containers inside containers) *)
}

val default_opts : opts
val no_obj_sens_opts : opts

(** The array-contents pseudo-field of the heap abstraction. *)
val elem_field : string

type result

(** Solve from the program's entry method.  The entry's [String[]]
    parameter is seeded with synthetic argument objects. *)
val analyze : ?opts:opts -> Program.t -> result

val contexts : result -> Context.t

(** Reachable method contexts: (context id, method, receiver context). *)
val method_contexts : result -> (int * Instr.method_qname * Context.ctx) list

val mctx_info : result -> int -> Instr.method_qname * Context.ctx
val mctxs_of_method : result -> Instr.method_qname -> int list
val reachable_methods : result -> Instr.method_qname list

(** Points-to set of a variable in one method context. *)
val pts_of_var : result -> mctx:int -> Instr.var -> ObjSet.t

(** Allocation-free iteration over a variable's points-to set (used by
    the SDG's heap-indexing pass and the mod-ref direct pass). *)
val pts_iter_var : result -> mctx:int -> Instr.var -> (int -> unit) -> unit

(** Context-insensitive projection: union over the method's contexts. *)
val pts_of_var_ci : result -> Instr.method_qname -> Instr.var -> ObjSet.t

val pts_of_field : result -> obj:int -> field:string -> ObjSet.t
val pts_of_static : result -> Types.class_name -> Types.field_name -> ObjSet.t

(** Call graph: context-qualified callees of a call site. *)
val call_targets : result -> mctx:int -> stmt:Instr.stmt_id -> int list

val intrinsic_targets :
  result -> mctx:int -> stmt:Instr.stmt_id -> Instr.method_qname list

val call_targets_ci :
  result -> Instr.method_qname -> stmt:Instr.stmt_id -> Instr.method_qname list

val intrinsic_targets_ci :
  result -> Instr.method_qname -> stmt:Instr.stmt_id -> Instr.method_qname list

val num_call_graph_nodes : result -> int
val num_objects : result -> int

(** Can the pointer analysis prove the cast never fails?  The tough-cast
    experiment (section 6.3) slices from casts where this is [false]. *)
val cast_verified : result -> Instr.method_qname -> Instr.instr -> bool

(** Canonical, interning-order-independent dump of every node's
    points-to set ({!Pta_dump.pts}): variables, return values, fields
    and statics.  Byte-comparable across solvers — the parity oracle. *)
val pts_dump : result -> (string * string list) list

(** Canonical dump of the on-the-fly call graph ({!Pta_dump.call_graph}):
    context-qualified call edges and intrinsic targets, comparable
    across solvers. *)
val call_graph_dump : result -> (string * string list) list

(** {2 Incremental re-analysis support}

    A re-lowered method body carries fresh statement ids.  When its
    constraint summary is UNCHANGED (same {!method_summary_sites}
    string), the solved analysis can be patched in place: the site
    lists of the old and new body zip positionally into a remap, and
    {!rekey_sites} moves every site-keyed structure (call-graph edges,
    wiring dedup, dispatch records, allocation-site identities) onto
    the new ids.  Anything else requires a fresh solve. *)

(** Canonical string of exactly the facts constraint generation reads
    from one method body (variable ints, refness, classes, callee
    names — statement ids, locations and plain values excluded), plus
    the allocation/call sites in deterministic body order. *)
val method_summary_sites : Instr.meth -> string * Instr.stmt_id list

(** Patch a solved analysis onto re-lowered statement ids.  [remap old]
    is [Some fresh] for a moved site, [None] to keep.  Sound only under
    summary equality (see above). *)
val rekey_sites : result -> (Instr.stmt_id -> Instr.stmt_id option) -> unit

(** Enumerate resolved call edges (caller context, call site, callee
    contexts) — the SDG patch recovers a re-lowered method's entry
    callers from this without re-running dispatch. *)
val iter_call_sites :
  result -> (caller:int -> stmt:Instr.stmt_id -> callees:int list -> unit) -> unit

(** {2 Delta-native incremental re-solve}

    The main solver logs per-method constraint provenance as it
    generates constraints (which seed/copy/load/store/call obligations
    each method context contributed — never the solve-derived work).
    {!resolve_delta} uses the log to retract a changed method's
    constraints by delete-and-rederive: it computes the affected cone
    (every node whose points-to set may depend on a retracted
    constraint, plus field nodes of objects whose allocation sites are
    gone), conservatively splits cycle-collapse classes inside the
    cone, clears the cone's points-to bits and ALL derived rows, then
    replays the surviving methods' logs — re-walking retracted-but-
    reachable methods' (new) bodies — straight into the
    difference-propagation worklist and re-solves to the fixpoint. *)

type delta_stats = {
  ds_retracted_mctxs : int;  (** contexts whose constraints were dropped *)
  ds_cone_nodes : int;       (** nodes whose points-to sets were rederived *)
  ds_total_nodes : int;
  ds_replayed_mctxs : int;   (** surviving contexts replayed from the log *)
}

(** Retract [retracted] methods' constraints and re-solve incrementally,
    mutating the result in place.  [added] names methods whose bodies
    are new in the program (they contribute constraints on demand).
    The program held by the result must already reflect the edit.
    Fails with [`Cone_too_big] when the affected cone exceeds half the
    node universe (a fresh solve is cheaper); the result is then
    untouched and a fresh solve is required. *)
val resolve_delta :
  result ->
  retracted:Instr.method_qname list ->
  added:Instr.method_qname list ->
  (delta_stats, [ `Cone_too_big ]) Stdlib.result

(** {!pts_dump} / {!call_graph_dump} with sites rendered through
    [site_label] instead of raw statement ids: canonical across a
    patched analysis and a fresh rebuild of the same program, whose
    statement numberings differ but whose source locations coincide. *)
val pts_dump_loc :
  site_label:(int -> string) -> result -> (string * string list) list

val call_graph_dump_loc :
  site_label:(int -> string) -> result -> (string * string list) list
