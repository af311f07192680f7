(** Whole-program container: class table, method table, hierarchy queries,
    virtual dispatch resolution, and globally unique statement ids with
    their sites.  The analyses look a statement up through the arena's
    statement index ({!Arena.stmt_site}); {!build_stmt_table} is the fresh
    reference the tests check that index against. *)

open Types

type class_info = {
  c_name : class_name;
  c_super : class_name option;  (** [None] only for Object *)
  mutable c_fields : (field_name * ty) list;
  mutable c_static_fields : (field_name * ty) list;
  mutable c_methods : method_name list;  (** own (non-inherited) methods *)
  c_is_container : bool;
      (** flagged for object-sensitive points-to cloning *)
  c_builtin : bool;
  c_loc : Loc.t;
}

type t

(** A fresh program with the built-in classes (Object, String,
    InputStream, $Top with its intrinsics) registered. *)
val create : unit -> t

(** {2 Statement ids} *)

val fresh_stmt_id : t -> Instr.stmt_id
val stmt_count : t -> int

(** {2 Classes and methods} *)

val find_class : t -> class_name -> class_info option
val find_class_exn : t -> class_name -> class_info
val class_exists : t -> class_name -> bool
val find_method : t -> Instr.method_qname -> Instr.meth option
val find_method_exn : t -> Instr.method_qname -> Instr.meth

(** Raises [Invalid_argument] on duplicates. *)
val add_class : t -> class_info -> unit

val add_method : t -> Instr.meth -> unit

(** Iteration in deterministic (sorted) order. *)
val iter_classes : t -> (class_info -> unit) -> unit

val iter_methods : t -> (Instr.meth -> unit) -> unit
val fold_methods : t -> ('a -> Instr.meth -> 'a) -> 'a -> 'a

(** {2 Hierarchy queries} *)

val superclasses : t -> class_name -> class_name list

(** Reflexive subclass check. *)
val is_subclass : t -> sub:class_name -> sup:class_name -> bool

(** Reflexive subtyping; arrays are covariant (as in Java). *)
val is_subtype : t -> sub:ty -> sup:ty -> bool

(** May a value of static type [from] have type [target] at runtime?
    Up- or downcast compatibility. *)
val cast_compatible : t -> from:ty -> target:ty -> bool

val subclasses : t -> class_name -> class_name list

(** Field lookup walks up the hierarchy (no shadowing in TJ). *)
val lookup_field : t -> class_name -> field_name -> ty option

val lookup_static_field :
  t -> class_name -> field_name -> (class_name * ty) option

(** Virtual dispatch: resolve [name] on runtime class [c], walking up. *)
val dispatch : t -> class_name -> method_name -> Instr.meth option

(** Static lookup used by the typechecker (same walk as [dispatch]). *)
val lookup_method : t -> class_name -> method_name -> Instr.meth option

(** {2 Statement sites} *)

(** A statement's record: an instruction or a block terminator. *)
type site =
  | Site_instr of Instr.instr
  | Site_term of Instr.term

type stmt_info = { s_method : Instr.method_qname; s_site : site }

val site_loc : site -> Loc.t
val stmt_loc : stmt_info -> Loc.t

(** A fresh table mapping statement ids to sites, read from the method
    bodies; valid until the next IR rewrite.  The reference that tests
    and the context-sensitive slicer use; the analyses read
    {!Arena.stmt_site}. *)
val build_stmt_table : t -> (Instr.stmt_id, stmt_info) Hashtbl.t

(** {2 Builtins and entry} *)

val entry_method : t -> Instr.method_qname
val set_entry : t -> Instr.method_qname -> unit
