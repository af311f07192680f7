(** Type-directed lowering of TJ ASTs into the three-address IR.

    This pass is the typechecker: it elaborates each expression to a
    typed IR variable and rejects ill-typed programs with {!Type_error}.
    It runs after {!Declare} has populated the class table.

    Notable behaviours: short-circuit [&&]/[||] become branches merged by
    SSA phis; constructors chain to [super] implicitly when possible;
    static field initializers are collected into a synthetic
    [$Top.$clinit] called at the start of [main]; all-paths-return is
    checked syntactically (with [while (true)] handling). *)

open Slice_ir

exception Type_error of string * Loc.t

val run : Program.t -> Ast.compilation_unit -> unit

(** Lower ONE method declaration into its pre-registered shell: fresh
    body and variable table, fresh statement ids, class table untouched.
    Used by {!run} for every method, and by {!Delta.relower_resolved}
    to re-lower just the changed methods of an incremental update.  The
    caller is responsible for re-running SSA conversion. *)
val lower_method : Program.t -> cls:Types.class_name -> Ast.method_decl -> unit
