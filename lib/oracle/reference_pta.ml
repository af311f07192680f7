(* The original list/tree Andersen solver, kept as an oracle for the
   bitset solver ([Slice_pta.Andersen]): [Set.Make(Int)] points-to sets,
   a LIFO [(node, delta)] worklist, no cycle collapsing, no telemetry and
   no call-site log.  It shares the constraint rules, not the code, and
   renders its dumps through the same [Pta_dump] keys, so the two
   results are compared fact for fact.  Only tests, the fuzz battery and
   the bench link it. *)

open Slice_ir
open Slice_pta

module ObjSet = Andersen.ObjSet

type opts = Andersen.opts = {
  obj_sens_containers : bool;
  max_ctx_depth : int;
}

let default_opts = Andersen.default_opts
let elem_field = Andersen.elem_field

type node_desc = Pta_dump.node_desc =
  | Nvar of int * Instr.var
  | Nstatic of Types.class_name * Types.field_name
  | Nfield of int * string
  | Nret of int

(* A call that must be (re-)resolved as receiver objects arrive. *)
type dispatch = {
  d_caller : int;                       (* caller method-context id *)
  d_stmt : Instr.stmt_id;
  d_kind : Instr.call_kind;
  d_args : Instr.var list;
  d_lhs : Instr.var option;
}

type mctx_info = { mi_mq : Instr.method_qname; mi_ctx : Context.ctx }

type t = {
  p : Program.t;
  opts : opts;
  ctxs : Context.t;
  (* method contexts *)
  mutable mctxs : mctx_info array;
  mutable num_mctxs : int;
  mctx_intern : (string * Context.ctx, int) Hashtbl.t;
  mutable processed : bool array;     (* per mctx: constraints generated *)
  (* nodes *)
  mutable node_descs : node_desc array;
  mutable num_nodes : int;
  node_intern : (node_desc, int) Hashtbl.t;
  mutable pts : ObjSet.t array;
  mutable succs : (int * Types.ty option) list array; (* copy edges w/ cast filter *)
  mutable loads : (string * int) list array;          (* field, dst *)
  mutable stores : (string * int) list array;         (* field, src *)
  mutable dispatches : dispatch list array;
  edge_seen : (int * int, unit) Hashtbl.t;
  (* call graph: (caller mctx, stmt) -> callee mctxs; and intrinsic targets *)
  call_edges : (int * Instr.stmt_id, int list ref) Hashtbl.t;
  intrinsic_edges : (int * Instr.stmt_id, Instr.method_qname list ref) Hashtbl.t;
  (* dedup for wiring a call site to a callee context *)
  wired : (int * Instr.stmt_id * int, unit) Hashtbl.t;
  mutable work : (int * ObjSet.t) list; (* worklist: node, delta *)
}

type result = t

(* --- interning --- *)

let mctx_key (mq : Instr.method_qname) (c : Context.ctx) =
  (Instr.method_qname_to_string mq, c)

let intern_mctx (t : t) (mq : Instr.method_qname) (c : Context.ctx) : int =
  let key = mctx_key mq c in
  match Hashtbl.find_opt t.mctx_intern key with
  | Some id -> id
  | None ->
    let id = t.num_mctxs in
    if id = Array.length t.mctxs then begin
      let bigger = Array.make (2 * id) t.mctxs.(0) in
      Array.blit t.mctxs 0 bigger 0 id;
      t.mctxs <- bigger;
      let bigger_p = Array.make (2 * id) false in
      Array.blit t.processed 0 bigger_p 0 id;
      t.processed <- bigger_p
    end;
    t.mctxs.(id) <- { mi_mq = mq; mi_ctx = c };
    t.num_mctxs <- id + 1;
    Hashtbl.replace t.mctx_intern key id;
    id

let grow_nodes (t : t) =
  let n = Array.length t.node_descs in
  let bigger_d = Array.make (2 * n) t.node_descs.(0) in
  Array.blit t.node_descs 0 bigger_d 0 n;
  t.node_descs <- bigger_d;
  let bigger_pts = Array.make (2 * n) ObjSet.empty in
  Array.blit t.pts 0 bigger_pts 0 n;
  t.pts <- bigger_pts;
  let grow a default =
    let b = Array.make (2 * n) default in
    Array.blit a 0 b 0 n;
    b
  in
  t.succs <- grow t.succs [];
  t.loads <- grow t.loads [];
  t.stores <- grow t.stores [];
  t.dispatches <- grow t.dispatches []

let intern_node (t : t) (d : node_desc) : int =
  match Hashtbl.find_opt t.node_intern d with
  | Some id -> id
  | None ->
    let id = t.num_nodes in
    if id = Array.length t.node_descs then grow_nodes t;
    t.node_descs.(id) <- d;
    t.num_nodes <- id + 1;
    Hashtbl.replace t.node_intern d id;
    id

(* --- core propagation --- *)

let obj_passes (t : t) (o : int) (ty : Types.ty) : bool =
  let oi = Context.obj t.ctxs o in
  match (oi.Context.oi_cls, ty) with
  | _, Types.Tclass c when String.equal c Types.object_class -> true
  | Context.Aclass c, Types.Tclass target ->
    Program.is_subclass t.p ~sub:c ~sup:target
  | Context.Astring, Types.Tclass target ->
    Program.is_subclass t.p ~sub:Types.string_class ~sup:target
  | Context.Aarray elem, Types.Tarray telem -> (
    match (elem, telem) with
    | Types.Tclass sub, Types.Tclass sup -> Program.is_subclass t.p ~sub ~sup
    | a, b -> Types.equal_ty a b)
  | Context.Aextern _, _ -> true
  | (Context.Aclass _ | Context.Astring), Types.Tarray _ -> false
  | Context.Aarray _, Types.Tclass _ -> false
  | _, (Types.Tint | Types.Tbool | Types.Tvoid | Types.Tnull) -> false

let filter_delta (t : t) (filter : Types.ty option) (delta : ObjSet.t) :
    ObjSet.t =
  match filter with
  | None -> delta
  | Some ty -> ObjSet.filter (fun o -> obj_passes t o ty) delta

let add_pts (t : t) (n : int) (objs : ObjSet.t) : unit =
  let fresh = ObjSet.diff objs t.pts.(n) in
  if not (ObjSet.is_empty fresh) then begin
    t.pts.(n) <- ObjSet.union t.pts.(n) fresh;
    t.work <- (n, fresh) :: t.work
  end

let add_edge (t : t) ?(filter : Types.ty option) (src : int) (dst : int) :
    unit =
  if src <> dst && not (Hashtbl.mem t.edge_seen (src, dst)) then begin
    Hashtbl.replace t.edge_seen (src, dst) ();
    t.succs.(src) <- (dst, filter) :: t.succs.(src);
    let d = filter_delta t filter t.pts.(src) in
    if not (ObjSet.is_empty d) then add_pts t dst d
  end

let add_load (t : t) ~(base : int) ~(field : string) ~(dst : int) : unit =
  t.loads.(base) <- (field, dst) :: t.loads.(base);
  ObjSet.iter
    (fun o -> add_edge t (intern_node t (Nfield (o, field))) dst)
    t.pts.(base)

let add_store (t : t) ~(base : int) ~(field : string) ~(src : int) : unit =
  t.stores.(base) <- (field, src) :: t.stores.(base);
  ObjSet.iter
    (fun o -> add_edge t src (intern_node t (Nfield (o, field))))
    t.pts.(base)

(* --- method constraint generation --- *)

let is_ref_var (m : Instr.meth) (v : Instr.var) : bool =
  Types.is_reference (Instr.var_info m v).Instr.vi_ty

let heap_ctx (t : t) (mc : int) : Context.ctx = t.mctxs.(mc).mi_ctx

let alloc (t : t) (mc : int) ~(site : Instr.stmt_id)
    ~(cls : Context.alloc_class) : int =
  Context.intern_obj t.ctxs ~site ~cls ~ctx:(heap_ctx t mc)

let is_container_class (t : t) (c : Types.class_name) : bool =
  List.exists
    (fun sup ->
      match Program.find_class t.p sup with
      | Some ci -> ci.Program.c_is_container
      | None -> false)
    (c :: Program.superclasses t.p c)

let callee_ctx (t : t) ~(recv_obj : int) : Context.ctx =
  if not t.opts.obj_sens_containers then Context.Cnone
  else begin
    let oi = Context.obj t.ctxs recv_obj in
    match Context.dispatch_class oi.Context.oi_cls with
    | Some c when is_container_class t c ->
      let cand = Context.Crecv recv_obj in
      if Context.ctx_depth t.ctxs cand > t.opts.max_ctx_depth then
        Context.Cnone
      else cand
    | Some _ | None -> Context.Cnone
  end

let record_call_edge (t : t) ~(caller : int) ~(stmt : Instr.stmt_id)
    ~(callee : int) : unit =
  let key = (caller, stmt) in
  let cell =
    match Hashtbl.find_opt t.call_edges key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.call_edges key r;
      r
  in
  if not (List.mem callee !cell) then cell := callee :: !cell

let record_intrinsic_edge (t : t) ~(caller : int) ~(stmt : Instr.stmt_id)
    ~(callee : Instr.method_qname) : unit =
  let key = (caller, stmt) in
  let cell =
    match Hashtbl.find_opt t.intrinsic_edges key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.intrinsic_edges key r;
      r
  in
  if not (List.mem callee !cell) then cell := callee :: !cell

let rec make_reachable (t : t) (mc : int) : unit =
  if not t.processed.(mc) then begin
    t.processed.(mc) <- true;
    let info = t.mctxs.(mc) in
    let m = Program.find_method_exn t.p info.mi_mq in
    match m.Instr.m_body with
    | Instr.Intrinsic _ | Instr.Abstract -> ()
    | Instr.Body _ ->
      let var v = intern_node t (Nvar (mc, v)) in
      Instr.iter_instrs m (fun _ i ->
          let site = i.Instr.i_id in
          match i.Instr.i_kind with
          | Instr.Const (x, Types.Cstr _) when is_ref_var m x ->
            add_pts t (var x)
              (ObjSet.singleton (alloc t mc ~site ~cls:Context.Astring))
          | Instr.Const _ -> ()
          (* String concatenation produces a fresh string object.  Without
             this allocation a concat-produced receiver has an empty
             points-to set, virtual dispatch on it resolves to nothing,
             and the SDG silently drops the call's argument edges — a
             soundness hole the fuzzer's dyn-thin-within-static-thin
             oracle caught. *)
          | Instr.Binop (x, Types.Concat, _, _) when is_ref_var m x ->
            add_pts t (var x)
              (ObjSet.singleton (alloc t mc ~site ~cls:Context.Astring))
          | Instr.New (x, c) ->
            add_pts t (var x)
              (ObjSet.singleton (alloc t mc ~site ~cls:(Context.Aclass c)))
          | Instr.New_array (x, elem, _) ->
            add_pts t (var x)
              (ObjSet.singleton (alloc t mc ~site ~cls:(Context.Aarray elem)))
          | Instr.Move (x, y) when is_ref_var m x && is_ref_var m y ->
            add_edge t (var y) (var x)
          | Instr.Move _ -> ()
          | Instr.Cast (x, ty, y) when is_ref_var m x && is_ref_var m y ->
            add_edge t ~filter:ty (var y) (var x)
          | Instr.Cast _ -> ()
          | Instr.Phi (x, ins) when is_ref_var m x ->
            List.iter (fun (_, y) -> add_edge t (var y) (var x)) ins
          | Instr.Phi _ -> ()
          | Instr.Load (x, y, f) when is_ref_var m x ->
            add_load t ~base:(var y) ~field:f ~dst:(var x)
          | Instr.Load _ -> ()
          | Instr.Store (x, f, y) when is_ref_var m y ->
            add_store t ~base:(var x) ~field:f ~src:(var y)
          | Instr.Store _ -> ()
          | Instr.Array_load (x, y, _) when is_ref_var m x ->
            add_load t ~base:(var y) ~field:elem_field ~dst:(var x)
          | Instr.Array_load _ -> ()
          | Instr.Array_store (a, _, x) when is_ref_var m x ->
            add_store t ~base:(var a) ~field:elem_field ~src:(var x)
          | Instr.Array_store _ -> ()
          | Instr.Static_load (x, c, f) when is_ref_var m x ->
            add_edge t (intern_node t (Nstatic (c, f))) (var x)
          | Instr.Static_load _ -> ()
          | Instr.Static_store (c, f, y) when is_ref_var m y ->
            add_edge t (var y) (intern_node t (Nstatic (c, f)))
          | Instr.Static_store _ -> ()
          | Instr.Call { lhs; kind; args } -> process_call t mc i lhs kind args
          | Instr.Binop _ | Instr.Unop _ | Instr.Instance_of _
          | Instr.Array_length _ | Instr.Nop -> ());
      Instr.iter_terms m (fun _ term ->
          match term.Instr.t_kind with
          | Instr.Return (Some v) when is_ref_var m v ->
            add_edge t (var v) (intern_node t (Nret mc))
          | Instr.Return _ | Instr.Goto _ | Instr.If _ | Instr.Throw _ -> ())
  end

and process_call (t : t) (mc : int) (i : Instr.instr)
    (lhs : Instr.var option) (kind : Instr.call_kind)
    (args : Instr.var list) : unit =
  let info = t.mctxs.(mc) in
  let m = Program.find_method_exn t.p info.mi_mq in
  match kind with
  | Instr.Static mq ->
    let callee = Program.find_method_exn t.p mq in
    wire_call t ~caller:mc ~stmt:i.Instr.i_id ~caller_meth:m ~callee
      ~callee_ctx:Context.Cnone ~recv_obj:None ~lhs ~args
  | Instr.Special _ | Instr.Virtual _ -> (
    (* dispatch (or context selection, for Special) driven by the receiver *)
    match args with
    | recv :: _ when is_ref_var m recv ->
      let d =
        { d_caller = mc; d_stmt = i.Instr.i_id; d_kind = kind;
          d_args = args; d_lhs = lhs }
      in
      let rnode = intern_node t (Nvar (mc, recv)) in
      t.dispatches.(rnode) <- d :: t.dispatches.(rnode);
      ObjSet.iter (fun o -> process_dispatch t d o) t.pts.(rnode)
    | _ -> ())

and process_dispatch (t : t) (d : dispatch) (recv_obj : int) : unit =
  let oi = Context.obj t.ctxs recv_obj in
  match Context.dispatch_class oi.Context.oi_cls with
  | None -> ()
  | Some cls -> (
    let target =
      match d.d_kind with
      | Instr.Virtual name -> Program.dispatch t.p cls name
      | Instr.Special mq -> Program.find_method t.p mq
      | Instr.Static _ -> None
    in
    match target with
    | None -> ()
    | Some callee ->
      let caller_meth =
        Program.find_method_exn t.p t.mctxs.(d.d_caller).mi_mq
      in
      let cctx = callee_ctx t ~recv_obj in
      wire_call t ~caller:d.d_caller ~stmt:d.d_stmt ~caller_meth ~callee
        ~callee_ctx:cctx ~recv_obj:(Some recv_obj) ~lhs:d.d_lhs
        ~args:d.d_args)

and wire_call (t : t) ~(caller : int) ~(stmt : Instr.stmt_id)
    ~(caller_meth : Instr.meth) ~(callee : Instr.meth)
    ~(callee_ctx : Context.ctx) ~(recv_obj : int option)
    ~(lhs : Instr.var option) ~(args : Instr.var list) : unit =
  match callee.Instr.m_body with
  | Instr.Intrinsic intr ->
    record_intrinsic_edge t ~caller ~stmt ~callee:callee.Instr.m_qname;
    (match (Instr.intrinsic_allocates intr, lhs) with
    | Some _cls, Some x when is_ref_var caller_meth x ->
      let o = alloc t caller ~site:stmt ~cls:Context.Astring in
      add_pts t (intern_node t (Nvar (caller, x))) (ObjSet.singleton o)
    | _ -> ())
  | Instr.Abstract -> ()
  | Instr.Body _ ->
    let cmc = intern_mctx t callee.Instr.m_qname callee_ctx in
    record_call_edge t ~caller ~stmt ~callee:cmc;
    make_reachable t cmc;
    (* Receiver: flows as a single object, keeping obj-sensitivity sharp. *)
    (match (recv_obj, callee.Instr.m_params) with
    | Some o, this_param :: _ ->
      add_pts t (intern_node t (Nvar (cmc, this_param))) (ObjSet.singleton o)
    | _ -> ());
    let key = (caller, stmt, cmc) in
    if not (Hashtbl.mem t.wired key) then begin
      Hashtbl.replace t.wired key ();
      (* Non-receiver arguments and the return value. *)
      let params = callee.Instr.m_params in
      let skip_recv = recv_obj <> None in
      let rec wire_args ps as_ first =
        match (ps, as_) with
        | [], _ | _, [] -> ()
        | p :: ps', a :: as_' ->
          if not (first && skip_recv) then begin
            if is_ref_var callee p && is_ref_var caller_meth a then
              add_edge t
                (intern_node t (Nvar (caller, a)))
                (intern_node t (Nvar (cmc, p)))
          end;
          wire_args ps' as_' false
      in
      wire_args params args true;
      match lhs with
      | Some x
        when is_ref_var caller_meth x
             && Types.is_reference callee.Instr.m_ret_ty ->
        add_edge t (intern_node t (Nret cmc))
          (intern_node t (Nvar (caller, x)))
      | _ -> ()
    end

(* --- solving --- *)

let solve (t : t) : unit =
  let rec drain () =
    match t.work with
    | [] -> ()
    | (n, delta) :: rest ->
      t.work <- rest;
      List.iter
        (fun (dst, filter) ->
          let d = filter_delta t filter delta in
          if not (ObjSet.is_empty d) then add_pts t dst d)
        t.succs.(n);
      List.iter
        (fun (field, dst) ->
          ObjSet.iter
            (fun o -> add_edge t (intern_node t (Nfield (o, field))) dst)
            delta)
        t.loads.(n);
      List.iter
        (fun (field, src) ->
          ObjSet.iter
            (fun o -> add_edge t src (intern_node t (Nfield (o, field))))
            delta)
        t.stores.(n);
      List.iter
        (fun d -> ObjSet.iter (fun o -> process_dispatch t d o) delta)
        t.dispatches.(n);
      drain ()
  in
  drain ()

(* --- entry points --- *)

let analyze ?(opts = default_opts) (p : Program.t) : result =
  let t =
    { p;
      opts;
      ctxs = Context.create ();
      mctxs =
        Array.make 64
          { mi_mq = { Instr.mq_class = ""; mq_name = "" };
            mi_ctx = Context.Cnone };
      num_mctxs = 0;
      mctx_intern = Hashtbl.create 64;
      processed = Array.make 64 false;
      node_descs = Array.make 256 (Nstatic ("", ""));
      num_nodes = 0;
      node_intern = Hashtbl.create 256;
      pts = Array.make 256 ObjSet.empty;
      succs = Array.make 256 [];
      loads = Array.make 256 [];
      stores = Array.make 256 [];
      dispatches = Array.make 256 [];
      edge_seen = Hashtbl.create 1024;
      call_edges = Hashtbl.create 256;
      intrinsic_edges = Hashtbl.create 64;
      wired = Hashtbl.create 256;
      work = [] }
  in
  let entry_mq = Program.entry_method p in
  (match Program.find_method p entry_mq with
  | None -> ()
  | Some main ->
    let emc = intern_mctx t entry_mq Context.Cnone in
    make_reachable t emc;
    (* main's String[] argument: synthetic array of synthetic strings *)
    (match main.Instr.m_params with
    | [ pv ] when is_ref_var main pv ->
      let arr =
        Context.intern_obj t.ctxs ~site:(-1)
          ~cls:(Context.Aarray (Types.Tclass Types.string_class))
          ~ctx:Context.Cnone
      in
      let str =
        Context.intern_obj t.ctxs ~site:(-2) ~cls:Context.Astring
          ~ctx:Context.Cnone
      in
      add_pts t (intern_node t (Nvar (emc, pv))) (ObjSet.singleton arr);
      add_pts t
        (intern_node t (Nfield (arr, elem_field)))
        (ObjSet.singleton str)
    | _ -> ()));
  solve t;
  t

(* --- queries (the subset parity checks need) --- *)

let mctx_info (t : result) (mc : int) : Instr.method_qname * Context.ctx =
  (t.mctxs.(mc).mi_mq, t.mctxs.(mc).mi_ctx)

let num_objects (t : result) : int = Context.num_objs t.ctxs

let pts_dump (t : result) : (string * string list) list =
  Pta_dump.pts t.ctxs
    ~mctx_of:(fun mc -> mctx_info t mc)
    ~num_nodes:t.num_nodes
    ~desc_of:(fun i -> t.node_descs.(i))
    ~objs_of:(fun i -> ObjSet.elements t.pts.(i))

let call_graph_dump (t : result) : (string * string list) list =
  Pta_dump.call_graph t.ctxs
    ~mctx_of:(fun mc -> mctx_info t mc)
    ~calls:(fun f ->
      Hashtbl.iter (fun (caller, stmt) cell -> f caller stmt !cell)
        t.call_edges)
    ~intrinsics:(fun f ->
      Hashtbl.iter (fun (caller, stmt) cell -> f caller stmt !cell)
        t.intrinsic_edges)
