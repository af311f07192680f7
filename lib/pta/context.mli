(** Abstract objects and analysis contexts for the points-to analysis.

    The heap abstraction is allocation sites, optionally cloned by the
    receiver object of the enclosing method (Milanova-style object
    sensitivity [16], applied selectively to container classes, as the
    paper's section 6.1 prescribes).  Contexts and abstract objects are
    mutually recursive, so both are interned into integer ids. *)

open Slice_ir

(** What an allocation site creates. *)
type alloc_class =
  | Aclass of Types.class_name
  | Aarray of Types.ty            (** element type *)
  | Astring                       (** string literals / string intrinsics *)
  | Aextern of string             (** synthetic roots, e.g. main's args *)

type ctx =
  | Cnone
  | Crecv of int                  (** receiver abstract-object id *)

type obj_info = {
  oi_id : int;
  oi_site : Instr.stmt_id;        (** negative for synthetic roots *)
  oi_cls : alloc_class;
  oi_ctx : ctx;                   (** heap context of the allocation *)
}

type t

val create : unit -> t
val obj : t -> int -> obj_info
val num_objs : t -> int

(** Intern the abstract object for (site, heap context). *)
val intern_obj : t -> site:Instr.stmt_id -> cls:alloc_class -> ctx:ctx -> int

(** [move_site t o site'] moves object [o] to a fresh allocation site
    after an incremental re-lower (changed methods receive fresh
    statement ids).  The object id is stable; its (site, ctx) intern key
    moves with it.  See {!Andersen.rekey_sites}. *)
val move_site : t -> int -> Instr.stmt_id -> unit

(** Nesting depth of receiver contexts (containers inside containers). *)
val ctx_depth : t -> ctx -> int

(** The class a virtual call dispatches on, for an abstract object. *)
val dispatch_class : alloc_class -> Types.class_name option

val pp_ctx : t -> Format.formatter -> ctx -> unit
