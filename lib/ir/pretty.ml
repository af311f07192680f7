(* Human-readable printing of IR statements.  Used by the CLI and the SDG
   to display slices. *)

open Format

let pp_var (m : Instr.meth) ppf (v : Instr.var) =
  fprintf ppf "%s" (Instr.var_name m v)

let pp_call_kind ppf = function
  | Instr.Virtual name -> fprintf ppf "virtual %s" name
  | Instr.Static mq -> fprintf ppf "static %a" Instr.pp_method_qname mq
  | Instr.Special mq -> fprintf ppf "special %a" Instr.pp_method_qname mq

let pp_instr_kind (m : Instr.meth) ppf (k : Instr.instr_kind) =
  let var = pp_var m in
  match k with
  | Instr.Const (x, c) -> fprintf ppf "%a = %a" var x Types.pp_const c
  | Instr.Move (x, y) -> fprintf ppf "%a = %a" var x var y
  | Instr.Binop (x, op, y, z) ->
    fprintf ppf "%a = %a %a %a" var x var y Types.pp_binop op var z
  | Instr.Unop (x, op, y) -> fprintf ppf "%a = %a%a" var x Types.pp_unop op var y
  | Instr.New (x, c) -> fprintf ppf "%a = new %s" var x c
  | Instr.New_array (x, t, n) ->
    fprintf ppf "%a = new %a[%a]" var x Types.pp_ty t var n
  | Instr.Load (x, y, f) -> fprintf ppf "%a = %a.%s" var x var y f
  | Instr.Store (x, f, y) -> fprintf ppf "%a.%s = %a" var x f var y
  | Instr.Array_load (x, y, i) -> fprintf ppf "%a = %a[%a]" var x var y var i
  | Instr.Array_store (a, i, y) -> fprintf ppf "%a[%a] = %a" var a var i var y
  | Instr.Static_load (x, c, f) -> fprintf ppf "%a = %s.%s" var x c f
  | Instr.Static_store (c, f, y) -> fprintf ppf "%s.%s = %a" c f var y
  | Instr.Call { lhs; kind; args } ->
    (match lhs with Some x -> fprintf ppf "%a = " var x | None -> ());
    fprintf ppf "call %a(%a)" pp_call_kind kind
      (pp_print_list ~pp_sep:(fun ppf () -> fprintf ppf ", ") var)
      args
  | Instr.Cast (x, t, y) -> fprintf ppf "%a = (%a) %a" var x Types.pp_ty t var y
  | Instr.Instance_of (x, t, y) ->
    fprintf ppf "%a = %a instanceof %a" var x var y Types.pp_ty t
  | Instr.Array_length (x, y) -> fprintf ppf "%a = %a.length" var x var y
  | Instr.Phi (x, ins) ->
    fprintf ppf "%a = phi(%a)" var x
      (pp_print_list
         ~pp_sep:(fun ppf () -> fprintf ppf ", ")
         (fun ppf (l, v) -> fprintf ppf "B%d:%a" l var v))
      ins
  | Instr.Nop -> fprintf ppf "nop"

let pp_term_kind (m : Instr.meth) ppf (k : Instr.term_kind) =
  let var = pp_var m in
  match k with
  | Instr.Goto l -> fprintf ppf "goto B%d" l
  | Instr.If (v, l1, l2) -> fprintf ppf "if %a then B%d else B%d" var v l1 l2
  | Instr.Return (Some v) -> fprintf ppf "return %a" var v
  | Instr.Return None -> fprintf ppf "return"
  | Instr.Throw v -> fprintf ppf "throw %a" var v

(* One-line rendering of statement [site] of method [m], with source
   location, used when a slice is reported to the user. *)
let site_to_string (m : Instr.meth) (site : Program.site) : string =
  let body =
    match site with
    | Program.Site_instr i -> asprintf "%a" (pp_instr_kind m) i.Instr.i_kind
    | Program.Site_term t -> asprintf "%a" (pp_term_kind m) t.Instr.t_kind
  in
  asprintf "%a: [%a] %s" Loc.pp (Program.site_loc site) Instr.pp_method_qname
    m.Instr.m_qname body
