(** First frontend pass: register classes, fields and method signatures in
    the program's class table so lowering can resolve names in any order.
    Validates the hierarchy (known superclasses, no cycles, no duplicate
    members, signature-preserving overrides). *)

open Slice_ir

exception Semantic_error of string * Loc.t

(** Classes treated as containers for object-sensitive points-to cloning
    (paper section 6.1): Vector, ArrayList, HashMap, Hashtable, Stack,
    LinkedList, Queue. *)
val default_container_classes : string list

(** Resolve a surface type against the class table. *)
val resolve_sty : Program.t -> Loc.t -> Ast.sty -> Types.ty

val run : ?container_classes:string list -> Program.t -> Ast.compilation_unit -> unit
