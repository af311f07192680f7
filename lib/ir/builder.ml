(* Imperative construction of method bodies.  Used by the frontend's
   lowering pass and by tests that build IR programs directly.

   The builder maintains a current block; emitting after the current block
   has been terminated silently opens a fresh (possibly unreachable) block,
   which matches how lowering handles code following a return. *)

type proto_block = {
  pb_label : Instr.label;
  mutable pb_instrs : Instr.instr list; (* reversed *)
  mutable pb_term : Instr.term option;
}

type t = {
  program : Program.t;
  meth : Instr.meth;
  vars : Instr.Var_buf.t;               (* committed by [finish] *)
  mutable blocks : proto_block array;   (* indexed by label; [0, nblocks) live *)
  mutable nblocks : int;
  mutable current : proto_block;
  mutable finished : bool;
}

let start (program : Program.t) ~(qname : Instr.method_qname) ~(static : bool)
    ~(params : (string * Types.ty) list) ~(ret : Types.ty) ~(loc : Loc.t) : t =
  let vars =
    Array.of_list
      (List.mapi
         (fun i (name, ty) ->
           { Instr.vi_name = name; vi_kind = Instr.Vparam i; vi_ty = ty })
         params)
  in
  let meth =
    { Instr.m_qname = qname;
      m_static = static;
      m_params = List.mapi (fun i _ -> i) params;
      m_param_tys = List.map snd params;
      m_ret_ty = ret;
      m_vars = vars;
      m_body = Instr.Abstract (* replaced in [finish] *);
      m_loc = loc }
  in
  let entry = { pb_label = 0; pb_instrs = []; pb_term = None } in
  { program;
    meth;
    vars = Instr.Var_buf.create meth;
    blocks = Array.make 8 entry;
    nblocks = 1;
    current = entry;
    finished = false }

let meth (b : t) : Instr.meth = b.meth
let program (b : t) : Program.t = b.program

let fresh_var (b : t) ~(name : string) ~(kind : Instr.var_kind) ~(ty : Types.ty) :
    Instr.var =
  Instr.Var_buf.add b.vars { Instr.vi_name = name; vi_kind = kind; vi_ty = ty }

let fresh_temp (b : t) (ty : Types.ty) : Instr.var =
  let n = Instr.Var_buf.length b.vars in
  fresh_var b ~name:("t" ^ string_of_int n) ~kind:Instr.Vtemp ~ty

let fresh_local (b : t) (name : string) (ty : Types.ty) : Instr.var =
  fresh_var b ~name ~kind:Instr.Vlocal ~ty

let new_block (b : t) : Instr.label =
  let label = b.nblocks in
  let pb = { pb_label = label; pb_instrs = []; pb_term = None } in
  if label = Array.length b.blocks then begin
    let grown = Array.make (2 * label) pb in
    Array.blit b.blocks 0 grown 0 label;
    b.blocks <- grown
  end;
  b.blocks.(label) <- pb;
  b.nblocks <- label + 1;
  label

let switch_to (b : t) (l : Instr.label) : unit =
  if l < 0 || l >= b.nblocks then raise Not_found;
  b.current <- b.blocks.(l)

let is_terminated (b : t) : bool = b.current.pb_term <> None

let emit (b : t) ?(loc = Loc.none) (k : Instr.instr_kind) : Instr.stmt_id =
  if is_terminated b then switch_to b (new_block b);
  let id = Program.fresh_stmt_id b.program in
  b.current.pb_instrs <- { Instr.i_id = id; i_kind = k; i_loc = loc } :: b.current.pb_instrs;
  id

let terminate (b : t) ?(loc = Loc.none) (k : Instr.term_kind) : Instr.stmt_id =
  if is_terminated b then begin
    (* Unreachable terminator (e.g. implicit goto after an explicit return):
       park it in a fresh dead block so ids stay consistent. *)
    switch_to b (new_block b)
  end;
  let id = Program.fresh_stmt_id b.program in
  b.current.pb_term <- Some { Instr.t_id = id; t_kind = k; t_loc = loc };
  id

(* Convenience wrappers used heavily by lowering. *)
let const (b : t) ?loc (c : Types.const) ~(ty : Types.ty) : Instr.var =
  let x = fresh_temp b ty in
  ignore (emit b ?loc (Instr.Const (x, c)));
  x

let goto (b : t) ?loc (l : Instr.label) : unit =
  ignore (terminate b ?loc (Instr.Goto l))

let branch (b : t) ?loc (v : Instr.var) ~(then_ : Instr.label)
    ~(else_ : Instr.label) : Instr.stmt_id =
  terminate b ?loc (Instr.If (v, then_, else_))

(* Seal any unterminated block with [return] (void fall-through) and install
   the body into the method record, which is returned.  The method is NOT
   registered in the program (lowering fills pre-registered shells); direct
   users call [finish_and_register]. *)
let finish (b : t) : Instr.meth =
  if b.finished then invalid_arg "Builder.finish: already finished";
  b.finished <- true;
  let seal pb =
    match pb.pb_term with
    | Some t -> t
    | None ->
      { Instr.t_id = Program.fresh_stmt_id b.program;
        t_kind = Instr.Return None;
        t_loc = Loc.none }
  in
  let blocks =
    Array.init b.nblocks (fun l ->
        let pb = b.blocks.(l) in
        { Instr.b_label = pb.pb_label;
          b_instrs = List.rev pb.pb_instrs;
          b_term = seal pb })
  in
  Instr.Var_buf.commit b.vars;
  b.meth.Instr.m_body <- Instr.Body { blocks; entry = 0 };
  b.meth

let finish_and_register (b : t) : Instr.meth =
  let m = finish b in
  Program.add_method b.program m;
  m
