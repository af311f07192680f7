(** Interprocedural mod-ref analysis [24] over the points-to result: for
    each method context, the abstract heap locations it (transitively) may
    write and read.  The context-sensitive slicer uses these sets to
    introduce heap parameters and returns on each procedure (paper,
    section 5.3). *)

open Slice_ir

type loc =
  | Lfield of int * string  (** abstract object, field ($elem for arrays) *)
  | Lstatic of Types.class_name * Types.field_name
  | Larray_len of int       (** length of an abstract array *)

val compare_loc : loc -> loc -> int

module LocSet : Set.S with type elt = loc

type t

(** Direct sets per method context, then transitive closure over the call
    graph to a fixpoint. *)
val compute : Program.t -> Andersen.result -> t

val mod_of : t -> int -> LocSet.t
val ref_of : t -> int -> LocSet.t

(** Context-insensitive projections (union over a method's contexts). *)
val mod_of_method :
  Program.t -> Andersen.result -> t -> Instr.method_qname -> LocSet.t

val ref_of_method :
  Program.t -> Andersen.result -> t -> Instr.method_qname -> LocSet.t
