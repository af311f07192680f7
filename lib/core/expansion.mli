(** Hierarchical expansion of thin slices (paper, section 4).

    A thin slice contains only producers; when the user needs to know WHY
    a producer affects the seed, two explainer questions arise:
    + aliasing — given a heap read and write in the slice that touch the
      same location, why are their base pointers aliased?  Answered with
      two further thin slices seeded at the base-pointer definitions and
      filtered to the flow of objects that reach BOTH pointers (4.1);
    + control — under which conditions does a statement execute?
      Answered by exposing its direct control dependences (4.2).

    Iterating expansion to a fixed point recovers the traditional slice
    ("in the limit"), which the test suite verifies. *)

open Slice_pta

(** The conditionals (or call sites) that directly govern a node. *)
val explain_control : Sdg.t -> Sdg.node -> Sdg.node list

(** Base-pointer definition nodes of a heap access node. *)
val base_defs : Sdg.t -> Sdg.node -> Sdg.node list

(** Array-index definition nodes of an array access node. *)
val index_defs : Sdg.t -> Sdg.node -> Sdg.node list

(** Actual-argument nodes of a call statement (Weiser statement closure). *)
val call_actuals : Sdg.t -> Sdg.node -> Sdg.node list

(** The abstract objects the base pointer of a heap access may point to. *)
val base_points_to : Sdg.t -> Sdg.node -> Andersen.ObjSet.t

(** Does the node define or carry a variable that may point to one of the
    given objects?  The filter of section 4.1. *)
val node_flows_object : Sdg.t -> Andersen.ObjSet.t -> Sdg.node -> bool

type aliasing_explanation = {
  common_objects : Andersen.ObjSet.t;
      (** objects that may flow to both base pointers *)
  read_flow : Sdg.node list;
      (** statements moving a common object to the read's base pointer *)
  write_flow : Sdg.node list;
      (** statements moving a common object to the write's base pointer *)
}

(** Explain why a heap [read] and a heap [write] in a thin slice may touch
    the same location: thin slices from each base pointer, filtered to the
    common objects' flow. *)
val explain_aliasing :
  Sdg.t -> read:Sdg.node -> write:Sdg.node -> aliasing_explanation

(** One expansion step: the thin-slice closure of the nodes plus all their
    direct explainers (base pointers, indices, call arguments, controls). *)
val expand_once : Sdg.t -> Sdg.node list -> Sdg.node list

(** Expand hierarchically until nothing is added; equals the traditional
    (full) slice. *)
val expand_to_fixpoint : Sdg.t -> seeds:Sdg.node list -> Sdg.node list
