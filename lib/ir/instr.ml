(* Three-address intermediate representation for TJ methods.

   Design notes:
   - Every operand of every instruction is a variable; literals are
     materialized by [Const] instructions during lowering.  This makes
     def/use computation uniform, which the dependence analyses rely on.
   - Every instruction and every block terminator carries a globally unique
     statement id ([stmt_id]), drawn from a per-program counter.  SDG nodes
     reference statements by this id.
   - Methods start in non-SSA form (variables are mutable slots); [Ssa]
     rewrites them so that every variable has exactly one definition. *)

type var = int

type var_kind =
  | Vparam of int        (* i-th parameter; 0 = this for instance methods *)
  | Vlocal               (* user-declared local *)
  | Vtemp                (* compiler temporary *)
  | Vssa of var          (* SSA version of the given original variable *)

type var_info = {
  vi_name : string;
  vi_kind : var_kind;
  vi_ty : Types.ty;
}

type stmt_id = int

(* Methods are named by owning class + method name; TJ has no overloading. *)
type method_qname = { mq_class : Types.class_name; mq_name : Types.method_name }

let pp_method_qname ppf m =
  Format.fprintf ppf "%s.%s" m.mq_class m.mq_name

let method_qname_to_string m = Format.asprintf "%a" pp_method_qname m

let equal_method_qname a b =
  String.equal a.mq_class b.mq_class && String.equal a.mq_name b.mq_name

let compare_method_qname a b =
  match String.compare a.mq_class b.mq_class with
  | 0 -> String.compare a.mq_name b.mq_name
  | c -> c

type call_kind =
  | Virtual of Types.method_name        (* dispatch on args.(0) *)
  | Static of method_qname
  | Special of method_qname             (* constructor invocation *)

type label = int

type instr_kind =
  | Const of var * Types.const
  | Move of var * var
  | Binop of var * Types.binop * var * var
  | Unop of var * Types.unop * var
  | New of var * Types.class_name
  | New_array of var * Types.ty * var              (* elem type, length *)
  | Load of var * var * Types.field_name           (* x = y.f *)
  | Store of var * Types.field_name * var          (* x.f = y *)
  | Array_load of var * var * var                  (* x = y[i] *)
  | Array_store of var * var * var                 (* x[i] = y *)
  | Static_load of var * Types.class_name * Types.field_name
  | Static_store of Types.class_name * Types.field_name * var
  | Call of { lhs : var option; kind : call_kind; args : var list }
  | Cast of var * Types.ty * var
  | Instance_of of var * Types.ty * var
  | Array_length of var * var                      (* x = y.length *)
  | Phi of var * (label * var) list
  | Nop

type instr = {
  i_id : stmt_id;
  i_kind : instr_kind;
  i_loc : Loc.t;
}

type term_kind =
  | Goto of label
  | If of var * label * label            (* then-target, else-target *)
  | Return of var option
  | Throw of var

type term = {
  t_id : stmt_id;
  t_kind : term_kind;
  t_loc : Loc.t;
}

type block = {
  b_label : label;
  mutable b_instrs : instr list;
  mutable b_term : term;
}

type intrinsic =
  | Str_index_of          (* String.indexOf(String) : int *)
  | Str_substring         (* String.substring(int, int) : String *)
  | Str_length            (* String.length() : int *)
  | Str_equals            (* String.equals(String) : boolean *)
  | Str_char_at           (* String.charAt(int) : String *)
  | Str_char_code_at      (* String.charCodeAt(int) : int *)
  | Str_starts_with       (* String.startsWith(String) : boolean *)
  | Stream_init           (* InputStream.<init>(String) *)
  | Stream_read_line      (* InputStream.readLine() : String *)
  | Stream_eof            (* InputStream.eof() : boolean *)
  | Top_print             (* print(x) *)
  | Top_parse_int         (* parseInt(String) : int *)
  | Top_itoa              (* itoa(int) : String *)
  | Top_random            (* random(int) : int, in [0, n) *)

(* Does the intrinsic allocate a fresh object for its result?  Needed by the
   points-to analysis: such call sites act as allocation sites. *)
let intrinsic_allocates = function
  | Str_substring | Str_char_at | Stream_read_line | Top_itoa -> Some Types.string_class
  | Str_index_of | Str_length | Str_equals | Str_char_code_at
  | Str_starts_with | Stream_init | Stream_eof | Top_print | Top_parse_int
  | Top_random -> None

type body =
  | Body of { mutable blocks : block array; entry : label }
  | Intrinsic of intrinsic
  | Abstract                       (* declared but bodyless (builtins) *)

type meth = {
  m_qname : method_qname;
  m_static : bool;
  m_params : var list;                  (* this first for instance methods *)
  m_param_tys : Types.ty list;
  m_ret_ty : Types.ty;
  mutable m_vars : var_info array;      (* indexed by var *)
  mutable m_body : body;
  m_loc : Loc.t;
}

let var_info (m : meth) (v : var) : var_info = m.m_vars.(v)

let var_name (m : meth) (v : var) : string =
  let vi = var_info m v in
  match vi.vi_kind with
  | Vssa _ -> vi.vi_name
  | Vparam _ | Vlocal | Vtemp -> vi.vi_name

let blocks_exn (m : meth) : block array =
  match m.m_body with
  | Body { blocks; _ } -> blocks
  | Intrinsic _ | Abstract ->
    invalid_arg
      (Printf.sprintf "Instr.blocks_exn: %s has no body"
         (method_qname_to_string m.m_qname))

let entry_label (m : meth) : label =
  match m.m_body with
  | Body { entry; _ } -> entry
  | Intrinsic _ | Abstract -> 0

let has_body (m : meth) : bool =
  match m.m_body with Body _ -> true | Intrinsic _ | Abstract -> false

(* Def/use sets.  [uses_of_instr] returns all variable uses; the dependence
   builder distinguishes base-pointer uses via [classified_uses]. *)

let def_of_instr (i : instr) : var option =
  match i.i_kind with
  | Const (x, _) | Move (x, _) | Binop (x, _, _, _) | Unop (x, _, _)
  | New (x, _) | New_array (x, _, _) | Load (x, _, _)
  | Array_load (x, _, _) | Static_load (x, _, _)
  | Cast (x, _, _) | Instance_of (x, _, _) | Array_length (x, _)
  | Phi (x, _) -> Some x
  | Store _ | Array_store _ | Static_store _ -> None
  | Call { lhs; _ } -> lhs
  | Nop -> None

let uses_of_instr (i : instr) : var list =
  match i.i_kind with
  | Const _ | New _ -> []
  | Move (_, y) | Unop (_, _, y) | Cast (_, _, y) | Instance_of (_, _, y)
  | New_array (_, _, y) | Array_length (_, y) -> [ y ]
  | Binop (_, _, y, z) -> [ y; z ]
  | Load (_, y, _) -> [ y ]
  | Store (x, _, y) -> [ x; y ]
  | Array_load (_, y, idx) -> [ y; idx ]
  | Array_store (a, idx, y) -> [ a; idx; y ]
  | Static_load _ -> []
  | Static_store (_, _, y) -> [ y ]
  | Call { args; _ } -> args
  | Phi (_, ins) -> List.map snd ins
  | Nop -> []

(* A use is either a direct (value) use or a base-pointer / index use in a
   heap dereference.  The distinction is the crux of thin slicing (paper,
   section 2 and 3). *)
type use_class =
  | Use_value
  | Use_base          (* dereferenced base pointer of a field/array access *)
  | Use_index         (* array index *)

let classified_uses (i : instr) : (var * use_class) list =
  match i.i_kind with
  | Const _ | New _ | Static_load _ | Nop -> []
  | Move (_, y) | Unop (_, _, y) | Cast (_, _, y) | Instance_of (_, _, y) ->
    [ (y, Use_value) ]
  | New_array (_, _, n) -> [ (n, Use_value) ]
  | Binop (_, _, y, z) -> [ (y, Use_value); (z, Use_value) ]
  | Load (_, y, _) -> [ (y, Use_base) ]
  | Array_length (_, y) -> [ (y, Use_base) ]
  | Store (x, _, y) -> [ (x, Use_base); (y, Use_value) ]
  | Array_load (_, y, idx) -> [ (y, Use_base); (idx, Use_index) ]
  | Array_store (a, idx, y) -> [ (a, Use_base); (idx, Use_index); (y, Use_value) ]
  | Static_store (_, _, y) -> [ (y, Use_value) ]
  | Call { args; _ } -> List.map (fun a -> (a, Use_value)) args
  | Phi (_, ins) -> List.map (fun (_, v) -> (v, Use_value)) ins

let uses_of_term (t : term) : var list =
  match t.t_kind with
  | Goto _ -> []
  | If (v, _, _) -> [ v ]
  | Return (Some v) -> [ v ]
  | Return None -> []
  | Throw v -> [ v ]

let term_targets (t : term) : label list =
  match t.t_kind with
  | Goto l -> [ l ]
  | If (_, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]
  | Return _ | Throw _ -> []

(* Fresh-variable allocation on a method under construction.  New
   variables collect in amortised-doubling storage and [commit] writes
   [m_vars] once, at its exact length: appending to [m_vars] itself would
   copy the whole table per variable, quadratic in the method's size. *)
module Var_buf = struct
  type t = {
    meth : meth;
    mutable data : var_info array;  (* [0, len) live; the rest is slack *)
    mutable len : int;
  }

  let create (m : meth) : t =
    { meth = m; data = m.m_vars; len = Array.length m.m_vars }

  let length (b : t) : int = b.len

  let add (b : t) (vi : var_info) : var =
    if b.len = Array.length b.data then begin
      let grown = Array.make (max 16 (2 * b.len)) vi in
      Array.blit b.data 0 grown 0 b.len;
      b.data <- grown
    end;
    b.data.(b.len) <- vi;
    b.len <- b.len + 1;
    b.len - 1

  let commit (b : t) : unit =
    if b.len <> Array.length b.meth.m_vars then
      b.meth.m_vars <- Array.sub b.data 0 b.len
end

let iter_instrs (m : meth) (f : label -> instr -> unit) : unit =
  match m.m_body with
  | Intrinsic _ | Abstract -> ()
  | Body { blocks; _ } ->
    Array.iter (fun b -> List.iter (f b.b_label) b.b_instrs) blocks

let iter_terms (m : meth) (f : label -> term -> unit) : unit =
  match m.m_body with
  | Intrinsic _ | Abstract -> ()
  | Body { blocks; _ } -> Array.iter (fun b -> f b.b_label b.b_term) blocks
