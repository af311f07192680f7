(* Whole-program container: class table, method table, class hierarchy
   queries, virtual dispatch resolution, and the statement registry that
   maps globally unique statement ids back to their instructions. *)

open Types

type class_info = {
  c_name : class_name;
  c_super : class_name option;            (* None only for Object *)
  mutable c_fields : (field_name * ty) list;
  mutable c_static_fields : (field_name * ty) list;
  mutable c_methods : method_name list;   (* own (non-inherited) methods *)
  c_is_container : bool;
  c_builtin : bool;
  c_loc : Loc.t;
}

type t = {
  classes : (class_name, class_info) Hashtbl.t;
  methods : (string, Instr.meth) Hashtbl.t;   (* key: "Class.method" *)
  mutable next_stmt : int;
  mutable entry : Instr.method_qname option;
}

let method_key (mq : Instr.method_qname) =
  mq.Instr.mq_class ^ "." ^ mq.Instr.mq_name

let fresh_stmt_id (p : t) : Instr.stmt_id =
  let id = p.next_stmt in
  p.next_stmt <- id + 1;
  id

let stmt_count (p : t) = p.next_stmt

let find_class (p : t) (c : class_name) : class_info option =
  Hashtbl.find_opt p.classes c

let find_class_exn (p : t) (c : class_name) : class_info =
  match find_class p c with
  | Some ci -> ci
  | None -> invalid_arg (Printf.sprintf "Program.find_class_exn: %s" c)

let class_exists (p : t) (c : class_name) = Hashtbl.mem p.classes c

let find_method (p : t) (mq : Instr.method_qname) : Instr.meth option =
  Hashtbl.find_opt p.methods (method_key mq)

let find_method_exn (p : t) (mq : Instr.method_qname) : Instr.meth =
  match find_method p mq with
  | Some m -> m
  | None ->
    invalid_arg
      (Printf.sprintf "Program.find_method_exn: %s"
         (Instr.method_qname_to_string mq))

let add_class (p : t) (ci : class_info) : unit =
  if Hashtbl.mem p.classes ci.c_name then
    invalid_arg (Printf.sprintf "Program.add_class: duplicate class %s" ci.c_name);
  Hashtbl.replace p.classes ci.c_name ci

let add_method (p : t) (m : Instr.meth) : unit =
  let key = method_key m.Instr.m_qname in
  if Hashtbl.mem p.methods key then
    invalid_arg (Printf.sprintf "Program.add_method: duplicate method %s" key);
  Hashtbl.replace p.methods key m;
  let ci = find_class_exn p m.Instr.m_qname.Instr.mq_class in
  ci.c_methods <- ci.c_methods @ [ m.Instr.m_qname.Instr.mq_name ]

let iter_classes (p : t) (f : class_info -> unit) : unit =
  let names = Hashtbl.fold (fun n _ acc -> n :: acc) p.classes [] in
  List.iter (fun n -> f (Hashtbl.find p.classes n)) (List.sort String.compare names)

let iter_methods (p : t) (f : Instr.meth -> unit) : unit =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) p.methods [] in
  List.iter (fun k -> f (Hashtbl.find p.methods k)) (List.sort String.compare keys)

let fold_methods (p : t) (f : 'a -> Instr.meth -> 'a) (init : 'a) : 'a =
  let acc = ref init in
  iter_methods p (fun m -> acc := f !acc m);
  !acc

(* ------------------------------------------------------------------ *)
(* Hierarchy queries                                                   *)
(* ------------------------------------------------------------------ *)

let rec superclasses (p : t) (c : class_name) : class_name list =
  match find_class p c with
  | None -> []
  | Some ci -> (
    match ci.c_super with
    | None -> []
    | Some s -> s :: superclasses p s)

(* [is_subclass p ~sub ~sup]: reflexive subclass check. *)
let is_subclass (p : t) ~(sub : class_name) ~(sup : class_name) : bool =
  String.equal sub sup || List.exists (String.equal sup) (superclasses p sub)

(* Reflexive subtyping; arrays are covariant (as in Java). *)
let rec is_subtype (p : t) ~(sub : ty) ~(sup : ty) : bool =
  match (sub, sup) with
  | Tint, Tint | Tbool, Tbool | Tvoid, Tvoid -> true
  | Tnull, (Tclass _ | Tarray _ | Tnull) -> true
  | Tclass c, Tclass d -> is_subclass p ~sub:c ~sup:d
  | Tarray _, Tclass d -> String.equal d object_class
  | Tarray a, Tarray b -> is_subtype p ~sub:a ~sup:b
  | (Tint | Tbool | Tvoid | Tclass _ | Tarray _ | Tnull), _ -> false

(* May a value of declared type [a] also have type [b] at runtime?  Used to
   typecheck casts and instanceof. *)
let cast_compatible (p : t) ~(from : ty) ~(target : ty) : bool =
  is_subtype p ~sub:from ~sup:target || is_subtype p ~sub:target ~sup:from

let subclasses (p : t) (c : class_name) : class_name list =
  let out = ref [] in
  iter_classes p (fun ci ->
      if is_subclass p ~sub:ci.c_name ~sup:c then out := ci.c_name :: !out);
  List.rev !out

(* Field lookup walks up the hierarchy (fields are not overridable). *)
let rec lookup_field (p : t) (c : class_name) (f : field_name) : ty option =
  match find_class p c with
  | None -> None
  | Some ci -> (
    match List.assoc_opt f ci.c_fields with
    | Some ty -> Some ty
    | None -> (
      match ci.c_super with
      | None -> None
      | Some s -> lookup_field p s f))

(* The class that declares field [f], seen from class [c].  Field ids in the
   heap abstraction are (declaring class, name) so that shadowing-free TJ
   fields have a single identity across subclasses. *)
let rec lookup_static_field (p : t) (c : class_name) (f : field_name) :
    (class_name * ty) option =
  match find_class p c with
  | None -> None
  | Some ci -> (
    match List.assoc_opt f ci.c_static_fields with
    | Some ty -> Some (c, ty)
    | None -> (
      match ci.c_super with
      | None -> None
      | Some s -> lookup_static_field p s f))

(* Virtual dispatch: resolve method [name] on runtime class [c], walking up
   the hierarchy. *)
let rec dispatch (p : t) (c : class_name) (name : method_name) :
    Instr.meth option =
  match find_method p { Instr.mq_class = c; mq_name = name } with
  | Some m -> Some m
  | None -> (
    match find_class p c with
    | None -> None
    | Some ci -> (
      match ci.c_super with
      | None -> None
      | Some s -> dispatch p s name))

(* Static lookup used by the typechecker: where is [name] declared, starting
   at class [c]? *)
let lookup_method (p : t) (c : class_name) (name : method_name) :
    Instr.meth option =
  dispatch p c name

(* ------------------------------------------------------------------ *)
(* Statement registry                                                  *)
(* ------------------------------------------------------------------ *)

type site =
  | Site_instr of Instr.instr
  | Site_term of Instr.term

type stmt_info = { s_method : Instr.method_qname; s_site : site }

let site_loc : site -> Loc.t = function
  | Site_instr i -> i.Instr.i_loc
  | Site_term t -> t.Instr.t_loc

let stmt_loc (si : stmt_info) : Loc.t = site_loc si.s_site

(* Builds a fresh table mapping statement ids to their sites.  Callers cache
   the result; the table is only valid until the next IR rewrite. *)
let build_stmt_table (p : t) : (Instr.stmt_id, stmt_info) Hashtbl.t =
  let tbl = Hashtbl.create (max 16 p.next_stmt) in
  iter_methods p (fun m ->
      Instr.iter_instrs m (fun _ i ->
          Hashtbl.replace tbl i.Instr.i_id
            { s_method = m.Instr.m_qname; s_site = Site_instr i });
      Instr.iter_terms m (fun _ t ->
          Hashtbl.replace tbl t.Instr.t_id
            { s_method = m.Instr.m_qname; s_site = Site_term t }));
  tbl

(* ------------------------------------------------------------------ *)
(* Builtin classes                                                     *)
(* ------------------------------------------------------------------ *)

let intrinsic_method (p : t) ~cls ~name ~static ~param_tys ~ret_ty intr :
    unit =
  let params = List.mapi (fun i _ -> i) param_tys in
  let vars =
    Array.of_list
      (List.mapi
         (fun i ty ->
           { Instr.vi_name = (if i = 0 && not static then "this" else Printf.sprintf "p%d" i);
             vi_kind = Instr.Vparam i;
             vi_ty = ty })
         param_tys)
  in
  add_method p
    { Instr.m_qname = { Instr.mq_class = cls; mq_name = name };
      m_static = static;
      m_params = params;
      m_param_tys = param_tys;
      m_ret_ty = ret_ty;
      m_vars = vars;
      m_body = Instr.Intrinsic intr;
      m_loc = Loc.none }

(* An empty concrete body: a single block that just returns. *)
let empty_body (p : t) : Instr.body =
  let term =
    { Instr.t_id = fresh_stmt_id p; t_kind = Instr.Return None; t_loc = Loc.none }
  in
  Instr.Body
    { blocks = [| { Instr.b_label = 0; b_instrs = []; b_term = term } |];
      entry = 0 }

let add_default_constructor (p : t) (cls : class_name) : unit =
  let this_ty = Tclass cls in
  add_method p
    { Instr.m_qname = { Instr.mq_class = cls; mq_name = constructor_name };
      m_static = false;
      m_params = [ 0 ];
      m_param_tys = [ this_ty ];
      m_ret_ty = Tvoid;
      m_vars = [| { Instr.vi_name = "this"; vi_kind = Instr.Vparam 0; vi_ty = this_ty } |];
      m_body = empty_body p;
      m_loc = Loc.none }

let register_builtins (p : t) : unit =
  let mk ?(container = false) ?super name =
    add_class p
      { c_name = name;
        c_super = (if name = object_class then None else Some (Option.value super ~default:object_class));
        c_fields = [];
        c_static_fields = [];
        c_methods = [];
        c_is_container = container;
        c_builtin = true;
        c_loc = Loc.none }
  in
  mk object_class;
  mk string_class;
  mk input_stream_class;
  mk toplevel_class;
  add_default_constructor p object_class;
  let str = Tclass string_class in
  let stream = Tclass input_stream_class in
  let im = intrinsic_method p in
  im ~cls:string_class ~name:"indexOf" ~static:false ~param_tys:[ str; str ]
    ~ret_ty:Tint Instr.Str_index_of;
  im ~cls:string_class ~name:"substring" ~static:false
    ~param_tys:[ str; Tint; Tint ] ~ret_ty:str Instr.Str_substring;
  im ~cls:string_class ~name:"length" ~static:false ~param_tys:[ str ]
    ~ret_ty:Tint Instr.Str_length;
  im ~cls:string_class ~name:"equals" ~static:false ~param_tys:[ str; str ]
    ~ret_ty:Tbool Instr.Str_equals;
  im ~cls:string_class ~name:"charAt" ~static:false ~param_tys:[ str; Tint ]
    ~ret_ty:str Instr.Str_char_at;
  im ~cls:string_class ~name:"charCodeAt" ~static:false
    ~param_tys:[ str; Tint ] ~ret_ty:Tint Instr.Str_char_code_at;
  im ~cls:string_class ~name:"startsWith" ~static:false
    ~param_tys:[ str; str ] ~ret_ty:Tbool Instr.Str_starts_with;
  im ~cls:input_stream_class ~name:constructor_name ~static:false
    ~param_tys:[ stream; str ] ~ret_ty:Tvoid Instr.Stream_init;
  im ~cls:input_stream_class ~name:"readLine" ~static:false
    ~param_tys:[ stream ] ~ret_ty:str Instr.Stream_read_line;
  im ~cls:input_stream_class ~name:"eof" ~static:false ~param_tys:[ stream ]
    ~ret_ty:Tbool Instr.Stream_eof;
  im ~cls:toplevel_class ~name:"print" ~static:true ~param_tys:[ str ]
    ~ret_ty:Tvoid Instr.Top_print;
  im ~cls:toplevel_class ~name:"parseInt" ~static:true ~param_tys:[ str ]
    ~ret_ty:Tint Instr.Top_parse_int;
  im ~cls:toplevel_class ~name:"itoa" ~static:true ~param_tys:[ Tint ]
    ~ret_ty:str Instr.Top_itoa;
  im ~cls:toplevel_class ~name:"random" ~static:true ~param_tys:[ Tint ]
    ~ret_ty:Tint Instr.Top_random

let create () : t =
  let p =
    { classes = Hashtbl.create 64;
      methods = Hashtbl.create 256;
      next_stmt = 0;
      entry = None }
  in
  register_builtins p;
  p

let entry_method (p : t) : Instr.method_qname =
  match p.entry with
  | Some mq -> mq
  | None -> { Instr.mq_class = toplevel_class; mq_name = "main" }

let set_entry (p : t) (mq : Instr.method_qname) : unit = p.entry <- Some mq
