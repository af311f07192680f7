(** SSA construction (Cytron et al.): phi insertion at iterated dominance
    frontiers followed by stack-based renaming over the dominator tree.

    After conversion every variable has exactly one definition, so def-use
    chains are exact — the paper computes local data dependences "flow
    sensitively" by operating on SSA form (section 5.1).  Statement ids of
    existing instructions are preserved; phi instructions receive fresh
    ids from the program's counter. *)

(** Internal error for scoping violations that the typechecker should have
    rejected (use of a variable on a path without a definition). *)
exception Ssa_error of string

val is_ssa_var : Instr.meth -> Instr.var -> bool

(** Remove phi instructions whose results never reach a real (non-phi)
    use, including dead phi cycles through loop headers.  Called by
    [convert]; exposed for tests. *)
val prune_dead_phis : Instr.meth -> unit

(** Convert a method to SSA form in place.  No-op on intrinsic and
    abstract methods. *)
val convert : Program.t -> Instr.meth -> unit

(** Check the SSA invariants: every variable is defined at most once;
    every variable an instruction, a terminator or [m_params] mentions
    indexes [m_vars]; every [Vssa o] has an in-range, non-SSA origin [o].
    [Error msg] describes the first violation found. *)
val check : Instr.meth -> (unit, string) result
