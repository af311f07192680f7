(** Context-sensitive slicing (paper, section 5.3).

    Unlike the scalable context-insensitive representation (direct heap
    edges, {!Sdg}), this variant models heap accesses as extra parameters
    and return values on each procedure, discovered by the
    interprocedural mod-ref analysis [24], and answers slices as a
    partially balanced-parentheses reachability problem: the classic
    two-phase HRB backward slice over summary edges computed by
    tabulation [20, 21].

    The paper's finding — reproduced by [bench -- scalability] — is that
    the heap-parameter SDG explodes with program size while barely
    changing breadth-first inspection counts, which is why the evaluation
    uses the context-insensitive algorithm.  This module exists to
    measure exactly that, and to provide realizable-path slices where
    they matter. *)

open Slice_ir

type loc = Modref.loc

type node_desc =
  | HStmt of string * Instr.stmt_id  (** method key, statement *)
  | HFormal of string * int
  | HFormal_heap_in of string * loc
  | HFormal_heap_out of string * loc
  | HRet of string
  | HActual_in of string * Instr.stmt_id * int
  | HActual_heap_in of string * Instr.stmt_id * loc
  | HActual_heap_out of string * Instr.stmt_id * loc

type mode = Thin | Traditional

type t

(** Build the heap-parameterized SDG over all reachable methods (one PDG
    per method; context sensitivity comes from parenthesis matching). *)
val build : Program.t -> Slice_pta.Andersen.result -> t

val num_nodes : t -> int
val node_desc : t -> int -> node_desc

(** Two-phase backward slice with summary edges; summaries are computed on
    first use per mode and cached. *)
val slice : t -> seeds:int list -> mode -> int list

(** Statement nodes at a source line, for seeding. *)
val nodes_at_line : t -> line:int -> int list

(** Source lines of a node set.  Scalar actual-in nodes count at their
    call statement's line; heap-parameter nodes are bookkeeping and do
    not count (the paper likewise excludes them from statement counts). *)
val slice_lines : t -> int list -> int list

type stats = {
  total_nodes : int;
  stmt_nodes : int;
  heap_param_nodes : int;
      (** the paper's scalability bottleneck: nodes "introduced to model
          heap parameter-passing" *)
  summary_edges_thin : int;
}

val stats : t -> stats
