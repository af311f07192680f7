(* Hierarchical expansion of thin slices (paper, section 4).

   Two explainer questions are answered on demand:
   1. aliasing — given a heap read and a heap write in the thin slice that
      touch the same abstract location, why are their base pointers
      aliased?  Answered with two more thin slices, seeded at the base
      pointers' definitions and filtered to the flow of objects that reach
      BOTH pointers (section 4.1);
   2. control — under which conditions does a slice statement execute?
      Answered by exposing its direct control dependences (section 4.2).

   Iterating expansion to a fixed point recovers the traditional slice
   ("in the limit"), which the test suite checks. *)

open Slice_ir
open Slice_pta

(* Dependences of [n] of one kind, in adjacency order, over the row
   iteration API (no per-row list allocation). *)
let deps_of_kind (g : Sdg.t) (want : Sdg.edge_kind) (n : Sdg.node) :
    Sdg.node list =
  let acc = ref [] in
  let want = Sdg.edge_kind_tag want in
  Sdg.deps_iter g n (fun dep t -> if t = want then acc := dep :: !acc);
  List.rev !acc

(* Direct control dependences of a node: the conditionals (or call sites)
   that govern it. *)
let explain_control (g : Sdg.t) (n : Sdg.node) : Sdg.node list =
  deps_of_kind g Sdg.Control n

(* Base-pointer definition nodes of a heap access node. *)
let base_defs (g : Sdg.t) (n : Sdg.node) : Sdg.node list =
  deps_of_kind g Sdg.Base_pointer n

(* Index definition nodes of an array access node. *)
let index_defs (g : Sdg.t) (n : Sdg.node) : Sdg.node list =
  deps_of_kind g Sdg.Index n

(* Actual-argument nodes of a call statement (Weiser statement closure). *)
let call_actuals (g : Sdg.t) (n : Sdg.node) : Sdg.node list =
  deps_of_kind g Sdg.Call_actual n

(* The abstract objects pointed to by the base pointer of a heap access. *)
let base_points_to (g : Sdg.t) (n : Sdg.node) : Andersen.ObjSet.t =
  match Sdg.node_desc g n with
  | Sdg.Formal _ | Sdg.Actual_in _ -> Andersen.ObjSet.empty
  | Sdg.Stmt (mc, s) -> (
    match Sdg.stmt_site g s with
    | None | Some (Program.Site_term _) -> Andersen.ObjSet.empty
    | Some (Program.Site_instr i) -> (
      let pts v = Andersen.pts_of_var (Sdg.pta g) ~mctx:mc v in
      match i.Instr.i_kind with
      | Instr.Load (_, y, _) -> pts y
      | Instr.Store (x, _, _) -> pts x
      | Instr.Array_load (_, a, _) | Instr.Array_store (a, _, _) -> pts a
      | Instr.Array_length (_, a) -> pts a
      | _ -> Andersen.ObjSet.empty))

(* Does node [n] handle (define or carry a variable pointing to) one of
   [objs]?  Used to restrict aliasing explanations to the flow of the
   common objects (paper, section 4.1 "filtering"). *)
let node_flows_object (g : Sdg.t) (objs : Andersen.ObjSet.t) (n : Sdg.node) :
    bool =
  (* a node's variables are those of its context's method *)
  let meth mc =
    Program.find_method_exn (Sdg.program g) (fst (Andersen.mctx_info (Sdg.pta g) mc))
  in
  let var_overlaps mc v =
    Types.is_reference (Instr.var_info (meth mc) v).Instr.vi_ty
    && not
         (Andersen.ObjSet.is_empty
            (Andersen.ObjSet.inter objs (Andersen.pts_of_var (Sdg.pta g) ~mctx:mc v)))
  in
  match Sdg.node_desc g n with
  | Sdg.Formal (mc, idx) -> (
    match List.nth_opt (meth mc).Instr.m_params idx with
    | Some v -> var_overlaps mc v
    | None -> false)
  | Sdg.Actual_in (mc, s, idx) -> (
    match Sdg.stmt_site g s with
    | Some (Program.Site_instr { Instr.i_kind = Instr.Call { args; _ }; _ }) -> (
      match List.nth_opt args idx with
      | Some v -> var_overlaps mc v
      | None -> false)
    | Some _ | None -> false)
  | Sdg.Stmt (mc, s) -> (
    match Sdg.stmt_site g s with
    | None -> false
    | Some (Program.Site_term _) -> true
    | Some (Program.Site_instr i) -> (
      match Instr.def_of_instr i with
      | None -> true (* stores etc.: retained, they move the object *)
      | Some v -> var_overlaps mc v))

type aliasing_explanation = {
  common_objects : Andersen.ObjSet.t;
  (* statements showing the flow of a common object to the read's base *)
  read_flow : Sdg.node list;
  (* statements showing the flow of a common object to the write's base *)
  write_flow : Sdg.node list;
}

(* Explain why a heap read and a heap write in a thin slice may touch the
   same location: thin slices from each base pointer, filtered to the flow
   of the objects that reach both (section 4.1). *)
let explain_aliasing (g : Sdg.t) ~(read : Sdg.node) ~(write : Sdg.node) :
    aliasing_explanation =
  let common =
    Andersen.ObjSet.inter (base_points_to g read) (base_points_to g write)
  in
  let filtered_thin_slice seeds =
    Slicer.slice g ~seeds Slicer.Thin
    |> List.filter (node_flows_object g common)
  in
  { common_objects = common;
    read_flow = filtered_thin_slice (base_defs g read);
    write_flow = filtered_thin_slice (base_defs g write) }

(* One expansion step: thin-slice closure of [nodes] plus all their direct
   explainers (base pointers, indices, controls). *)
let expand_once (g : Sdg.t) (nodes : Sdg.node list) : Sdg.node list =
  let explainers =
    List.concat_map
      (fun n ->
        base_defs g n @ index_defs g n @ call_actuals g n @ explain_control g n)
      nodes
  in
  Slicer.slice g ~seeds:(nodes @ explainers) Slicer.Thin

(* Expanding hierarchically until nothing is added yields the traditional
   (full) slice in the limit (paper, end of section 2). *)
let expand_to_fixpoint (g : Sdg.t) ~(seeds : Sdg.node list) : Sdg.node list =
  let rec go current =
    let next = expand_once g current in
    if List.length next = List.length current then current else go next
  in
  go (Slicer.slice g ~seeds Slicer.Thin)
