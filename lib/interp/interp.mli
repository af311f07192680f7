(** Concrete interpreter for TJ programs in SSA form.

    Two roles in this reproduction:
    - validating the evaluation workloads: each injected-bug program must
      actually fail (the SIR suites were run to expose failures; the
      interpreter plays that role here);
    - producing dynamic dependence traces ({!Dyntrace}) for dynamic thin
      slicing.

    TJ has no [catch], so any runtime failure (or user [throw]) aborts the
    run and is reported with the failing statement — which debugging tasks
    then use as the slicing seed. *)

open Slice_ir

type value =
  | Vint of int
  | Vbool of bool
  | Vnull
  | Vstr of string
  | Vobj of obj
  | Varr of arr

and obj = {
  o_id : int;
  o_class : Types.class_name;
  o_fields : (Types.field_name, value) Hashtbl.t;
  mutable o_stream : string list option;
      (** remaining input lines, for InputStream objects *)
}

and arr = { a_id : int; a_elem : Types.ty; a_cells : value array }

type failure_kind =
  | Null_pointer
  | Class_cast of Types.class_name * Types.ty
  | Index_out_of_bounds of int * int  (** index, length *)
  | Division_by_zero
  | Negative_array_size of int
  | String_index_out_of_bounds
  | Read_past_eof
  | Parse_int_error of string
  | User_throw of Types.class_name
  | Step_limit_exceeded
  | Stack_overflow_limit
  | Trace_limit_exceeded of int
      (** the {!Dyntrace} event limit was hit mid-run after this many
          events; never surfaced as a raw {!Dyntrace.Trace_overflow}
          exception *)
  | Missing_return
  | Assertion of string  (** internal interpreter invariant violations *)

type failure = {
  f_kind : failure_kind;
  f_stmt : Instr.stmt_id;  (** the failing statement — a natural slicing seed *)
  f_loc : Loc.t;
  f_method : Instr.method_qname;
}

val failure_kind_to_string : failure_kind -> string
val pp_failure : Format.formatter -> failure -> unit

type config = {
  args : string list;  (** main's String[] argument *)
  streams : (string * string list) list;
      (** content for [new InputStream(name)], one string per line *)
  max_steps : int;
  max_depth : int;
  trace : Dyntrace.t option;  (** record dynamic dependences when set *)
}

val default_config : config

type outcome = {
  output : string list;  (** lines printed, in order *)
  result : (unit, failure) Result.t;
  steps : int;
}

val run : config -> Program.t -> outcome
