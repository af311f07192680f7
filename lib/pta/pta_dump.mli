(** Canonical, solver-independent dumps of a points-to result: the one
    spelling of every node, object and method-context key that the
    bitset solver ({!Andersen}) and the test oracle solver share, so a
    parity failure can only come from a difference in the facts.

    Interning ORDER differs between solvers (their worklists reach
    allocation sites in different orders), so raw object, node and
    method-context ids are not comparable.  Keys are built from the
    underlying (site, class, context) and (method, context) identities
    instead.  [site] renders an allocation or call site id: two runs of
    the same program use the default [string_of_int]; a patched
    analysis against a fresh one keys sites by source location, because
    a re-lowered method's statements carry fresh ids. *)

open Slice_ir

(** A constraint node of the points-to graph. *)
type node_desc =
  | Nvar of int * Instr.var              (** method-context id, variable *)
  | Nstatic of Types.class_name * Types.field_name
  | Nfield of int * string               (** abstract object id, field *)
  | Nret of int                          (** return value of a method context *)

(** Key of a method context: [qname@<receiver object key>...]. *)
val mctx_key :
  ?site:(int -> string) ->
  Context.t -> Instr.method_qname -> Context.ctx -> string

(** Every node with a non-empty points-to set, as [(node key, sorted
    object keys)], sorted by node key.  Nodes [0 .. num_nodes - 1] are
    read through [desc_of] and [objs_of]; [mctx_of] names a context id. *)
val pts :
  ?site:(int -> string) ->
  Context.t ->
  mctx_of:(int -> Instr.method_qname * Context.ctx) ->
  num_nodes:int ->
  desc_of:(int -> node_desc) ->
  objs_of:(int -> int list) ->
  (string * string list) list

(** The on-the-fly call graph: one [C:caller#site] entry per resolved
    call site with its sorted callee-context keys, and one
    [I:caller#site] entry per intrinsic call site with its sorted
    intrinsic names, sorted by key.  [calls f] and [intrinsics f] call
    [f caller stmt targets] once per site. *)
val call_graph :
  ?site:(int -> string) ->
  Context.t ->
  mctx_of:(int -> Instr.method_qname * Context.ctx) ->
  calls:((int -> Instr.stmt_id -> int list -> unit) -> unit) ->
  intrinsics:((int -> Instr.stmt_id -> Instr.method_qname list -> unit) -> unit) ->
  (string * string list) list
