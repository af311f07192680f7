(** Flat int-indexed arena view of a program's IR — the one statement
    store the SDG reads (the Koika-style lowering of a typed AST into
    dense indexed form).

    The frontend, the points-to solver and the interpreter operate on the
    record IR ({!Instr}, {!Program}); {!build} and {!relower} are the only
    readers of record bodies on the SDG's side.  The arena packs
    everything the dependence passes walk per statement into flat,
    growable columns:

    - strings (field names, class names) interned once in a side table;
    - defs, classified uses and term uses as packed CSR int spans
      (no per-statement list/closure allocation when iterated);
    - heap-access, allocation and call descriptors as small opcode tags
      plus operand ints, call-argument lists as CSR spans;
    - blocks: each terminator row (one per block, in block order) knows
      its block's first instruction row and, as a CSR span, the
      terminator rows of the blocks governing it;
    - a statement index from statement id to live row, and per row a
      pointer to its {!Instr.instr} or {!Instr.term} record
      ({!stmt_site}).

    Each method's rows are contiguous and follow {!Instr.iter_instrs} /
    {!Instr.iter_terms} order, uses in {!Instr.classified_uses} order.
    A method's instruction, terminator and parameter spans are its own
    [lo, hi) pairs, so {!relower} can append fresh rows for an edited
    method and repoint its spans; the rows it leaves behind are dead
    (unindexed, records dropped) until enough of them pile up for a
    relower to lower the whole program again. *)

open! Types

type t

(** Heap/call/allocation opcode classification of an instruction,
    mirroring the cases the SDG passes switch on.
    Operand accessors: [base] is the pointer variable whose points-to
    set keys the access; [sym]/[sym2] are interned string ids (field
    name, or class + field for statics). *)
type op =
  | Op_other
  | Op_store         (** x.f = y:    base = x, sym = f *)
  | Op_load          (** x = y.f:    base = y, sym = f *)
  | Op_array_store   (** a[i] = x:   base = a *)
  | Op_array_load    (** x = a[i]:   base = a *)
  | Op_new_array     (** x = new T[n]: base = x *)
  | Op_array_length  (** x = a.length: base = a *)
  | Op_static_store  (** C.f = y:    sym = C, sym2 = f *)
  | Op_static_load   (** x = C.f:    sym = C, sym2 = f *)
  | Op_call
      (** args in the call-arg span; base = the receiver of a
          constructor ([Special]) call, -1 for any other call *)
  | Op_new           (** x = new C *)

(** Lower every method of the program that has a body. *)
val build : Program.t -> t

(** [relower ar p mqs] brings the named methods, each a method of [p]
    with a body, up to date with [p]: each gets fresh rows and its spans
    repointed, keeping its method id.  When the dead rows come to
    outnumber the live ones, every method of [p] is lowered again into
    emptied columns, which renumbers the method ids.  Methods not named
    keep their rows, so [mqs] must name every method whose body
    changed. *)
val relower : t -> Program.t -> Instr.method_qname list -> unit

(* --- methods --- *)

(** Arena method index for a qname; only methods with bodies are in the
    arena. *)
val method_id : t -> Instr.method_qname -> int option

val num_vars : t -> int -> int

(** Parameter variables of method [m] in declaration order
    ([param_var t m 0] is [this] for instance methods). *)
val num_params : t -> int -> int

val param_var : t -> int -> int -> Instr.var

(** Instruction plus terminator rows of method [m]: its statements. *)
val num_stmts : t -> int -> int

(* --- instruction columns (global arena indices) --- *)

(** Instruction span of method [m]: indices [fst .. snd - 1]. *)
val instr_span : t -> int -> int * int

val instr_stmt : t -> int -> Instr.stmt_id
val instr_def : t -> int -> Instr.var  (** -1 when the instr defines nothing *)

val instr_op : t -> int -> op
val instr_base : t -> int -> Instr.var
val instr_sym : t -> int -> string
val instr_sym2 : t -> int -> string

(** Classified uses of instruction [ix], in {!Instr.classified_uses}
    order, without allocating: [f var use_class_tag] with the tag 0 =
    value, 1 = base, 2 = index. *)
val uses_iter : t -> int -> (Instr.var -> int -> unit) -> unit

(** Call arguments of instruction [ix] ([Op_call] only; empty span
    otherwise), in order. *)
val args_iter : t -> int -> (Instr.var -> unit) -> unit

(* --- terminator columns --- *)

val term_span : t -> int -> int * int
val term_stmt : t -> int -> Instr.stmt_id

(** True for [Return (Some _)] — the rows the SDG return-value pass
    scans callees for. *)
val term_is_value_return : t -> int -> bool

val term_uses_iter : t -> int -> (Instr.var -> unit) -> unit

(* --- blocks: a terminator row stands for its block --- *)

(** Instruction rows of terminator row [tx]'s block: [fst .. snd - 1]. *)
val block_instrs : t -> int -> int * int

(** Terminator rows of the blocks governing terminator row [tx]'s block
    (its post-dominance frontier, the virtual exit left out), in
    {!Dominance.dominance_frontiers} order.  None: the method's entry
    governs the block. *)
val governors_iter : t -> int -> (int -> unit) -> unit

(* --- statements --- *)

(** The record of the live row holding statement [s]; [None] for an id
    no live row holds: a negative (synthetic intrinsic) id, an id past
    the program's, or one a re-lower retired. *)
val stmt_site : t -> Instr.stmt_id -> Program.site option

(* --- memory accounting --- *)

(** Heap footprint of the arena in bytes, computed arithmetically from
    column capacities and interned string sizes (deterministic across
    processes, unlike [Obj.reachable_words]).  Dead rows and the slack a
    relower reserves count, record pointer slots included; the records
    themselves belong to the program and do not. *)
val bytes : t -> int

(** Verify the arena against a program: every method with a body must
    have a live span whose per-row statement ids, defs, classified uses,
    op descriptors, call args and term uses reproduce the {!Instr}
    accessors exactly, whose block starts and governors equal a fresh
    {!Cfg}/{!Dominance} computation, and each of whose statement ids the
    index maps back to its row and record; the arena must hold no other
    live method, and the index no other id.  Returns an error describing
    the first mismatch. *)
val check_views : Program.t -> t -> (unit, string) result
