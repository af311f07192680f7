(** Control-flow graph views over a method body.

    Blocks are identified by their labels, which index the method's block
    array.  The graph is built once and queried by the dominance, SSA and
    dependence passes. *)

type t = {
  meth : Instr.meth;
  succ : int list array;
  pred : int list array;
  entry : Instr.label;
  exits : Instr.label list;
      (** labels of blocks whose terminator leaves the method *)
}

(** Build the CFG of a method.  Raises [Invalid_argument] on intrinsic or
    abstract methods (no body). *)
val build : Instr.meth -> t

val num_blocks : t -> int
val successors : t -> Instr.label -> Instr.label list
val predecessors : t -> Instr.label -> Instr.label list

(** Depth-first reverse postorder from the entry; blocks unreachable from
    the entry are excluded. *)
val reverse_postorder : t -> Instr.label list
