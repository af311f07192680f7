(** The three-address intermediate representation for TJ methods.

    Design notes:
    - every operand of every instruction is a variable; literals are
      materialized by [Const] instructions during lowering, making
      def/use computation uniform for the dependence analyses;
    - every instruction and terminator carries a globally unique statement
      id ([stmt_id]) drawn from the program's counter; SDG nodes reference
      statements by this id;
    - methods start in non-SSA form; {!Ssa} rewrites them so that every
      variable has exactly one definition. *)

type var = int

type var_kind =
  | Vparam of int  (** i-th parameter; 0 = this for instance methods *)
  | Vlocal         (** user-declared local *)
  | Vtemp          (** compiler temporary *)
  | Vssa of var    (** SSA version of the given original variable *)

type var_info = {
  vi_name : string;
  vi_kind : var_kind;
  vi_ty : Types.ty;
}

type stmt_id = int

(** Methods are named by owning class + name; TJ has no overloading. *)
type method_qname = { mq_class : Types.class_name; mq_name : Types.method_name }

val pp_method_qname : Format.formatter -> method_qname -> unit
val method_qname_to_string : method_qname -> string
val equal_method_qname : method_qname -> method_qname -> bool
val compare_method_qname : method_qname -> method_qname -> int

type call_kind =
  | Virtual of Types.method_name  (** dispatch on args.(0) *)
  | Static of method_qname
  | Special of method_qname       (** constructor invocation *)

type label = int

type instr_kind =
  | Const of var * Types.const
  | Move of var * var
  | Binop of var * Types.binop * var * var
  | Unop of var * Types.unop * var
  | New of var * Types.class_name      (** allocation site = statement id *)
  | New_array of var * Types.ty * var  (** element type, length *)
  | Load of var * var * Types.field_name          (** x = y.f *)
  | Store of var * Types.field_name * var         (** x.f = y *)
  | Array_load of var * var * var                 (** x = y[i] *)
  | Array_store of var * var * var                (** x[i] = y *)
  | Static_load of var * Types.class_name * Types.field_name
  | Static_store of Types.class_name * Types.field_name * var
  | Call of { lhs : var option; kind : call_kind; args : var list }
  | Cast of var * Types.ty * var
  | Instance_of of var * Types.ty * var
  | Array_length of var * var                     (** x = y.length *)
  | Phi of var * (label * var) list
  | Nop

type instr = { i_id : stmt_id; i_kind : instr_kind; i_loc : Loc.t }

type term_kind =
  | Goto of label
  | If of var * label * label  (** then-target, else-target *)
  | Return of var option
  | Throw of var

type term = { t_id : stmt_id; t_kind : term_kind; t_loc : Loc.t }

type block = {
  b_label : label;
  mutable b_instrs : instr list;
  mutable b_term : term;
}

(** Built-in method bodies interpreted natively; the points-to analysis
    treats allocating intrinsics as allocation sites at the call. *)
type intrinsic =
  | Str_index_of
  | Str_substring
  | Str_length
  | Str_equals
  | Str_char_at
  | Str_char_code_at
  | Str_starts_with
  | Stream_init
  | Stream_read_line
  | Stream_eof
  | Top_print
  | Top_parse_int
  | Top_itoa
  | Top_random

(** [Some cls] when the intrinsic allocates a fresh object of class [cls]
    for its result. *)
val intrinsic_allocates : intrinsic -> Types.class_name option

type body =
  | Body of { mutable blocks : block array; entry : label }
  | Intrinsic of intrinsic
  | Abstract  (** declared but bodyless (shells during lowering) *)

type meth = {
  m_qname : method_qname;
  m_static : bool;
  m_params : var list;  (** this first for instance methods *)
  m_param_tys : Types.ty list;
  m_ret_ty : Types.ty;
  mutable m_vars : var_info array;  (** indexed by var *)
  mutable m_body : body;
  m_loc : Loc.t;
}

val var_info : meth -> var -> var_info
val var_name : meth -> var -> string

(** Raises [Invalid_argument] on intrinsic/abstract methods. *)
val blocks_exn : meth -> block array

val entry_label : meth -> label
val has_body : meth -> bool

(** {2 Def/use} *)

val def_of_instr : instr -> var option
val uses_of_instr : instr -> var list

(** The use classification at the heart of thin slicing (paper sections 2
    and 3): a statement "directly uses" a location only in value position;
    base pointers and array indices merely address the location. *)
type use_class =
  | Use_value
  | Use_base   (** dereferenced base pointer of a field/array access *)
  | Use_index  (** array index *)

val classified_uses : instr -> (var * use_class) list
val uses_of_term : term -> var list
val term_targets : term -> label list

(** Append-once variable table for a method under construction.
    [add] hands out the next variable id; the method's [m_vars] is
    unchanged until [commit] writes the whole table once, at its exact
    length, so every [Array.length m_vars] reader sees a complete table.
    Lowering ([Builder]) and SSA conversion both allocate through one. *)
module Var_buf : sig
  type t

  (** A buffer holding the method's current [m_vars]. *)
  val create : meth -> t

  (** Number of variables so far, committed or not. *)
  val length : t -> int

  (** Append a variable; returns its id. *)
  val add : t -> var_info -> var

  (** Publish the table as the method's [m_vars]. *)
  val commit : t -> unit
end

val iter_instrs : meth -> (label -> instr -> unit) -> unit
val iter_terms : meth -> (label -> term -> unit) -> unit
