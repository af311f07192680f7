(** Imperative construction of method bodies, used by the frontend's
    lowering pass and by tests that build IR directly.

    The builder maintains a current block; emitting after the current
    block has been terminated silently opens a fresh (possibly
    unreachable) block, which matches how lowering handles code after a
    return. *)

type t

val start :
  Program.t ->
  qname:Instr.method_qname ->
  static:bool ->
  params:(string * Types.ty) list ->
  ret:Types.ty ->
  loc:Loc.t ->
  t

(** The method under construction.  Its [m_vars] holds only the
    parameters until [finish] commits the variables allocated since. *)
val meth : t -> Instr.meth
val program : t -> Program.t

val fresh_var :
  t -> name:string -> kind:Instr.var_kind -> ty:Types.ty -> Instr.var

val fresh_temp : t -> Types.ty -> Instr.var
val fresh_local : t -> string -> Types.ty -> Instr.var

val new_block : t -> Instr.label
val switch_to : t -> Instr.label -> unit
val is_terminated : t -> bool

(** Append an instruction to the current block; returns its statement id. *)
val emit : t -> ?loc:Loc.t -> Instr.instr_kind -> Instr.stmt_id

(** Seal the current block.  A terminator after an existing one is parked
    in a fresh dead block (unreachable code after return). *)
val terminate : t -> ?loc:Loc.t -> Instr.term_kind -> Instr.stmt_id

(** {2 Convenience wrappers} *)

val const : t -> ?loc:Loc.t -> Types.const -> ty:Types.ty -> Instr.var
val goto : t -> ?loc:Loc.t -> Instr.label -> unit

val branch :
  t ->
  ?loc:Loc.t ->
  Instr.var ->
  then_:Instr.label ->
  else_:Instr.label ->
  Instr.stmt_id

(** Seal any unterminated block with [return] and install the body into
    the method record, which is returned.  The method is NOT registered in
    the program (lowering fills pre-registered shells). *)
val finish : t -> Instr.meth

(** [finish] plus [Program.add_method]. *)
val finish_and_register : t -> Instr.meth
