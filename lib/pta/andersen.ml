(* Andersen-style (subset-based) points-to analysis with on-the-fly call
   graph construction, field-sensitive heap, and optional object-sensitive
   cloning of container-class methods and their allocations — the analysis
   configuration described in the paper's section 6.1.

   The solver keeps points-to sets and propagation deltas in growable
   dense bitsets ([Slice_util.Bits]), accumulates per-node deltas so a
   node sits on the worklist at most once (entry-unique FIFO int ring,
   the same shape as [Slicer]'s), and collapses copy cycles online: a
   union-find over constraint nodes with lazy cycle detection triggered
   on redundant-propagation hits, so every node of an unfiltered copy
   cycle shares one pts-set.  All queries go through [find].

   The original list/tree solver lives on as a test oracle
   ([Slice_oracle.Reference_pta]); both render their dumps through
   [Pta_dump], so parity compares facts, not spellings. *)

open Slice_ir
module Bits = Slice_util.Bits

module ObjSet = Set.Make (Int)

type opts = {
  obj_sens_containers : bool;
  max_ctx_depth : int;
}

(* Telemetry: plain int-ref bumps (see Slice_obs); interned once here. *)
let c_worklist_iterations = Slice_obs.counter "pta.worklist_iterations"
let c_constraints = Slice_obs.counter "pta.constraints_processed"
let c_diff_prop_hits = Slice_obs.counter "pta.diff_prop_hits"
let c_edges = Slice_obs.counter "pta.points_to_edges"
let c_context_clones = Slice_obs.counter "pta.context_clones"
let c_pts_objs = Slice_obs.counter "pta.pts_objects_propagated"
let c_cycles_collapsed = Slice_obs.counter "pta.cycles_collapsed"
let c_lcd_runs = Slice_obs.counter "pta.lcd_runs"

let default_opts = { obj_sens_containers = true; max_ctx_depth = 3 }

let no_obj_sens_opts = { obj_sens_containers = false; max_ctx_depth = 3 }

(* The array-contents pseudo-field. *)
let elem_field = "$elem"

type node_desc = Pta_dump.node_desc =
  | Nvar of int * Instr.var             (* method-context id, variable *)
  | Nstatic of Types.class_name * Types.field_name
  | Nfield of int * string              (* abstract object id, field *)
  | Nret of int                         (* return value of a method context *)

(* A call that must be (re-)resolved as receiver objects arrive. *)
type dispatch = {
  d_caller : int;                       (* caller method-context id *)
  d_stmt : Instr.stmt_id;
  d_kind : Instr.call_kind;
  d_args : Instr.var list;
  d_lhs : Instr.var option;
}

type mctx_info = { mi_mq : Instr.method_qname; mi_ctx : Context.ctx }

(* One structural constraint a method context contributed, recorded as
   constraint generation runs so [resolve_delta] can replay a surviving
   method's constraints without re-walking its body.  Node and object
   ids are the interned (pre-[find]) ids, which are stable across cycle
   collapses.  Only the two structural entry points log
   ([make_reachable] and [process_call]); solve-derived work — dispatch
   wiring, load/store-materialised field edges — is re-derived from
   these during replay and must never be recorded. *)
type pv_op =
  | Pseed of int * int                     (* node, object *)
  | Pedge of int * int * Types.ty option   (* src, dst, cast filter *)
  | Pload of int * string * int            (* base, field, dst *)
  | Pstore of int * string * int           (* base, field, src *)
  | Pcall of dispatch                      (* any call site, incl. static *)

(* ------------------------------------------------------------------ *)
(* Main solver: bitset data plane + online cycle elimination           *)
(* ------------------------------------------------------------------ *)

(* Per-call-site callee cell: bitset dedup + insertion-ordered list. *)
type ccell = { cs_seen : Bits.t; mutable cs_list : int list }
type icell = { is_seen : Bits.t; mutable is_list : Instr.method_qname list }

type t = {
  p : Program.t;
  opts : opts;
  ctxs : Context.t;
  (* method contexts *)
  mutable mctxs : mctx_info array;
  mutable num_mctxs : int;
  (* Keyed on the qname record directly: the reference solver interns on
     [method_qname_to_string], which is [Format.asprintf] — visibly hot
     in profiles.  Structural hashing of a two-string record is cheap. *)
  mctx_intern : (Instr.method_qname * Context.ctx, int) Hashtbl.t;
  mutable processed : bool array;
  (* nodes *)
  mutable node_descs : node_desc array;
  mutable num_nodes : int;
  node_intern : (node_desc, int) Hashtbl.t;
  (* data plane: bitset pts + accumulated deltas, union-find over nodes *)
  mutable pts : Bits.t array;
  mutable delta : Bits.t array;
  mutable parent : int array;
  mutable rank : int array;
  mutable succs : (int * Types.ty option) list array;
  mutable succ_seen : Bits.t array;     (* per-src dedup row over dst reps *)
  mutable loads : (string * int) list array;
  mutable stores : (string * int) list array;
  mutable dispatches : dispatch list array;
  mutable deg : int array;              (* incremental constraint degree *)
  (* per-method-context constraint provenance (reverse insertion order),
     the replay log of [resolve_delta] *)
  mutable pv : pv_op list array;
  mutable obj_mc : int array;           (* allocating mctx per object; -1 none *)
  (* call graph *)
  call_edges : (int * Instr.stmt_id, ccell) Hashtbl.t;
  intr_intern : (Instr.method_qname, int) Hashtbl.t;
  intrinsic_edges : (int * Instr.stmt_id, icell) Hashtbl.t;
  wired : (int * Instr.stmt_id * int, unit) Hashtbl.t;
  (* worklist: entry-unique FIFO int ring (dirty bit = queued) *)
  mutable ring : int array;
  mutable head : int;
  mutable tail : int;
  mutable ring_len : int;
  queued : Bits.t;
  (* lazy cycle detection *)
  mutable lcd_pending : (int * int) list;
  lcd_done : (int * int, unit) Hashtbl.t;
  mutable lcd_fuel : int;               (* bounded-regret budget, see below *)
  mutable lcd_mark : int array;         (* DFS visited stamps (no per-run alloc) *)
  mutable lcd_stamp : int;
  (* hot-path telemetry: the counter cells resolved ONCE per solver, so
     the inner loops pay a plain [incr]; [Slice_obs.scoped] zeroes and
     restores through these same refs. *)
  obs_pts_objs : int ref;
  obs_diff_hits : int ref;
  obs_edges : int ref;
  obs_iters : int ref;
  obs_constraints : int ref;
  obs_cycles : int ref;
  obs_lcd : int ref;
  (* scratch *)
  mutable spare : Bits.t;               (* drained-delta swap buffer *)
  fscratch : Bits.t;                    (* filtered-propagation scratch *)
  (* memoized method -> mctx list index (satellite) *)
  mutable meth_index : (Instr.method_qname, int list) Hashtbl.t;
  mutable meth_index_stamp : int;       (* num_mctxs at build; -1 invalid *)
}

type result = t

(* --- union-find ---------------------------------------------------- *)

let rec find (t : t) (n : int) : int =
  let p = t.parent.(n) in
  if p = n then n
  else begin
    let r = find t p in
    t.parent.(n) <- r;
    r
  end

(* --- interning ----------------------------------------------------- *)

let intern_mctx (t : t) (mq : Instr.method_qname) (c : Context.ctx) : int =
  let key = (mq, c) in
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
      t.processed <- bigger_p;
      let bigger_pv = Array.make (2 * id) [] in
      Array.blit t.pv 0 bigger_pv 0 id;
      t.pv <- bigger_pv
    end;
    t.mctxs.(id) <- { mi_mq = mq; mi_ctx = c };
    t.num_mctxs <- id + 1;
    Hashtbl.replace t.mctx_intern key id;
    if c <> Context.Cnone then Slice_obs.bump c_context_clones;
    id

let dummy_bits = Bits.create ~capacity:1 ()

let grow_nodes (t : t) =
  let n = Array.length t.node_descs in
  let grow a default =
    let b = Array.make (2 * n) default in
    Array.blit a 0 b 0 n;
    b
  in
  t.node_descs <- grow t.node_descs t.node_descs.(0);
  t.pts <- grow t.pts dummy_bits;
  t.delta <- grow t.delta dummy_bits;
  t.succ_seen <- grow t.succ_seen dummy_bits;
  t.parent <- grow t.parent 0;
  t.rank <- grow t.rank 0;
  t.deg <- grow t.deg 0;
  t.lcd_mark <- grow t.lcd_mark 0;
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
    t.pts.(id) <- Bits.create ~capacity:64 ();
    t.delta.(id) <- Bits.create ~capacity:64 ();
    t.succ_seen.(id) <- Bits.create ~capacity:64 ();
    t.parent.(id) <- id;
    t.rank.(id) <- 0;
    t.deg.(id) <- 0;
    t.num_nodes <- id + 1;
    Hashtbl.replace t.node_intern d id;
    id

(* --- worklist ring ------------------------------------------------- *)

let grow_ring (t : t) =
  let cap = Array.length t.ring in
  let nr = Array.make (2 * cap) 0 in
  for i = 0 to t.ring_len - 1 do
    nr.(i) <- t.ring.((t.head + i) mod cap)
  done;
  t.ring <- nr;
  t.head <- 0;
  t.tail <- t.ring_len

(* Entry-unique: a node sits on the ring at most once; its delta keeps
   accumulating until it is popped. *)
let enqueue (t : t) (n : int) =
  if Bits.add t.queued n then begin
    if t.ring_len = Array.length t.ring then grow_ring t;
    t.ring.(t.tail) <- n;
    t.tail <- (t.tail + 1) mod Array.length t.ring;
    t.ring_len <- t.ring_len + 1
  end

(* --- core propagation ---------------------------------------------- *)

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

(* Record a lazy-cycle-detection candidate: the unfiltered copy edge
   s -> d propagated nothing fresh, so d may reach back to s.  Processed
   between worklist pops (never mid-pop: collapsing while a node's
   constraint lists are being iterated would be hazardous). *)
let lcd_candidate (t : t) (s : int) (d : int) =
  if t.lcd_fuel > 0 && not (Hashtbl.mem t.lcd_done (s, d)) then
    t.lcd_pending <- (s, d) :: t.lcd_pending

(* Seed a single object into a node's points-to set. *)
let add_obj (t : t) (n : int) (o : int) : unit =
  let rn = find t n in
  if Bits.add t.pts.(rn) o then begin
    incr t.obs_pts_objs;
    ignore (Bits.add t.delta.(rn) o);
    enqueue t rn
  end
  else incr t.obs_diff_hits

(* Propagate [src_bits] into rep [rd] (unfiltered). *)
let propagate_into (t : t) ~(src_bits : Bits.t) ~(rd : int) ~(lcd_src : int option)
    : unit =
  let added = Bits.propagate ~src:src_bits ~pts:t.pts.(rd) ~delta:t.delta.(rd) in
  if added > 0 then begin
    t.obs_pts_objs := !(t.obs_pts_objs) + added;
    enqueue t rd
  end
  else begin
    incr t.obs_diff_hits;
    match lcd_src with
    | Some rs when not (Bits.is_empty src_bits) -> lcd_candidate t rs rd
    | _ -> ()
  end

(* Propagate the subset of [src_bits] passing cast filter [ty] into [rd]. *)
let propagate_filtered (t : t) ~(src_bits : Bits.t) ~(ty : Types.ty)
    ~(rd : int) : unit =
  Bits.clear t.fscratch;
  let any = ref false in
  Bits.iter
    (fun o ->
      if obj_passes t o ty then begin
        ignore (Bits.add t.fscratch o);
        any := true
      end)
    src_bits;
  if !any then begin
    let added =
      Bits.propagate ~src:t.fscratch ~pts:t.pts.(rd) ~delta:t.delta.(rd)
    in
    if added > 0 then begin
      t.obs_pts_objs := !(t.obs_pts_objs) + added;
      enqueue t rd
    end
    else incr t.obs_diff_hits
  end;
  Bits.clear t.fscratch

let add_edge (t : t) ?(filter : Types.ty option) (src : int) (dst : int) : unit =
  let rs = find t src and rd = find t dst in
  if rs <> rd && Bits.add t.succ_seen.(rs) rd then begin
    incr t.obs_edges;
    t.succs.(rs) <- (rd, filter) :: t.succs.(rs);
    t.deg.(rs) <- t.deg.(rs) + 1;
    if not (Bits.is_empty t.pts.(rs)) then
      match filter with
      | None -> propagate_into t ~src_bits:t.pts.(rs) ~rd ~lcd_src:(Some rs)
      | Some ty -> propagate_filtered t ~src_bits:t.pts.(rs) ~ty ~rd
  end

let add_load (t : t) ~(base : int) ~(field : string) ~(dst : int) : unit =
  let rb = find t base in
  t.loads.(rb) <- (field, dst) :: t.loads.(rb);
  t.deg.(rb) <- t.deg.(rb) + 1;
  Bits.iter
    (fun o -> add_edge t (intern_node t (Nfield (o, field))) dst)
    t.pts.(rb)

let add_store (t : t) ~(base : int) ~(field : string) ~(src : int) : unit =
  let rb = find t base in
  t.stores.(rb) <- (field, src) :: t.stores.(rb);
  t.deg.(rb) <- t.deg.(rb) + 1;
  Bits.iter
    (fun o -> add_edge t src (intern_node t (Nfield (o, field))))
    t.pts.(rb)

(* --- cycle collapsing ---------------------------------------------- *)

(* Merge the equivalence classes of [a] and [b]; returns the new rep.
   Only ever called between worklist pops.  The rep's accumulated delta
   must cover every object either side's constraints have not yet
   processed: delta(r) := delta(r) ∪ delta(c) ∪ (pts(r) Δ pts(c)) —
   the symmetric difference because each side has already run its own
   constraints only against its own pts. *)
let merge (t : t) (a : int) (b : int) : int =
  let ra = find t a and rb = find t b in
  if ra = rb then ra
  else begin
    incr t.obs_cycles;
    let r, c = if t.rank.(ra) >= t.rank.(rb) then (ra, rb) else (rb, ra) in
    if t.rank.(r) = t.rank.(c) then t.rank.(r) <- t.rank.(r) + 1;
    t.parent.(c) <- r;
    (* pts(r)\pts(c) -> delta(r); mutating pts(c) is harmless (dead). *)
    ignore (Bits.propagate ~src:t.pts.(r) ~pts:t.pts.(c) ~delta:t.delta.(r));
    (* pts(c)\pts(r) -> pts(r) and delta(r). *)
    ignore (Bits.propagate ~src:t.pts.(c) ~pts:t.pts.(r) ~delta:t.delta.(r));
    ignore (Bits.union_into ~src:t.delta.(c) ~dst:t.delta.(r));
    ignore (Bits.union_into ~src:t.succ_seen.(c) ~dst:t.succ_seen.(r));
    t.succs.(r) <- List.rev_append t.succs.(c) t.succs.(r);
    t.succs.(c) <- [];
    t.loads.(r) <- List.rev_append t.loads.(c) t.loads.(r);
    t.loads.(c) <- [];
    t.stores.(r) <- List.rev_append t.stores.(c) t.stores.(r);
    t.stores.(c) <- [];
    t.dispatches.(r) <- List.rev_append t.dispatches.(c) t.dispatches.(r);
    t.dispatches.(c) <- [];
    t.deg.(r) <- t.deg.(r) + t.deg.(c);
    t.deg.(c) <- 0;
    Bits.clear t.pts.(c);
    Bits.clear t.delta.(c);
    Bits.clear t.succ_seen.(c);
    if not (Bits.is_empty t.delta.(r)) then enqueue t r;
    r
  end

(* Copy cycles in these programs are short (recursion and loops thread a
   handful of variables), so a deep DFS buys nothing: a small per-run
   node budget finds the same cycles for a fraction of the walk.  The
   fuel bound caps total unproductive detection work — every run costs
   one unit, every successful collapse refunds [lcd_refund] — so a
   cycle-free program (e.g. a deep pipeline, where every redundant copy
   edge is a candidate) stops paying for detection after [lcd_fuel_init]
   misses instead of DFS-walking its whole copy graph per candidate.
   Collapsing remains exact; the bound only limits how hard we look. *)
let lcd_budget = 64
let lcd_fuel_init = 512
let lcd_refund = 16

(* Nuutila-flavoured lazy collapse: DFS from [d0] along unfiltered copy
   edges looking for [s0]'s class; every node on a found path lies on a
   copy cycle through the redundant edge s0 -> d0 and is folded into
   s0's class on unwind.  Unfiltered copy cycles force equal points-to
   sets in the least fixpoint, so collapsing them is exact. *)
let lcd_run (t : t) (s0 : int) (d0 : int) : unit =
  let s = find t s0 and d = find t d0 in
  if t.lcd_fuel > 0 && s <> d && not (Hashtbl.mem t.lcd_done (s, d)) then begin
    Hashtbl.replace t.lcd_done (s, d) ();
    incr t.obs_lcd;
    t.lcd_fuel <- t.lcd_fuel - 1;
    let budget = ref lcd_budget in
    t.lcd_stamp <- t.lcd_stamp + 1;
    let stamp = t.lcd_stamp in
    let rec dfs n =
      let n = find t n in
      if n = find t s then true
      else if t.lcd_mark.(n) = stamp || !budget <= 0 then false
      else begin
        decr budget;
        t.lcd_mark.(n) <- stamp;
        let found =
          List.exists
            (fun (dst, filter) ->
              match filter with Some _ -> false | None -> dfs dst)
            t.succs.(n)
        in
        if found then ignore (merge t s n);
        found
      end
    in
    if dfs d then
      t.lcd_fuel <- min lcd_fuel_init (t.lcd_fuel + lcd_refund)
  end

let process_pending_lcd (t : t) : unit =
  match t.lcd_pending with
  | [] -> ()
  | pending ->
    t.lcd_pending <- [];
    List.iter (fun (s, d) -> lcd_run t s d) pending

(* --- method constraint generation ---------------------------------- *)

let is_ref_var (m : Instr.meth) (v : Instr.var) : bool =
  Types.is_reference (Instr.var_info m v).Instr.vi_ty

let heap_ctx (t : t) (mc : int) : Context.ctx = t.mctxs.(mc).mi_ctx

let alloc (t : t) (mc : int) ~(site : Instr.stmt_id)
    ~(cls : Context.alloc_class) : int =
  let o = Context.intern_obj t.ctxs ~site ~cls ~ctx:(heap_ctx t mc) in
  (* Ownership: (site, ctx) pin an object to exactly one method context,
     so first-writer-wins is exact.  [resolve_delta] sweeps objects whose
     owner was retracted — their allocation sites no longer exist. *)
  if o >= Array.length t.obj_mc then begin
    let cap = max 64 (Array.length t.obj_mc) in
    let bigger = Array.make (max (2 * cap) (o + 1)) (-1) in
    Array.blit t.obj_mc 0 bigger 0 (Array.length t.obj_mc);
    t.obj_mc <- bigger
  end;
  if t.obj_mc.(o) < 0 then t.obj_mc.(o) <- mc;
  o

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
      if Context.ctx_depth t.ctxs cand > t.opts.max_ctx_depth then Context.Cnone
      else cand
    | Some _ | None -> Context.Cnone
  end

(* Call-edge dedup: a bitset over callee mctx ids per call site (was
   [List.mem] on the accumulating list). *)
let record_call_edge (t : t) ~(caller : int) ~(stmt : Instr.stmt_id)
    ~(callee : int) : unit =
  let key = (caller, stmt) in
  let cell =
    match Hashtbl.find_opt t.call_edges key with
    | Some c -> c
    | None ->
      let c = { cs_seen = Bits.create ~capacity:64 (); cs_list = [] } in
      Hashtbl.replace t.call_edges key c;
      c
  in
  if Bits.add cell.cs_seen callee then cell.cs_list <- callee :: cell.cs_list

let intr_id (t : t) (mq : Instr.method_qname) : int =
  match Hashtbl.find_opt t.intr_intern mq with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.intr_intern in
    Hashtbl.replace t.intr_intern mq id;
    id

let record_intrinsic_edge (t : t) ~(caller : int) ~(stmt : Instr.stmt_id)
    ~(callee : Instr.method_qname) : unit =
  let key = (caller, stmt) in
  let cell =
    match Hashtbl.find_opt t.intrinsic_edges key with
    | Some c -> c
    | None ->
      let c = { is_seen = Bits.create ~capacity:8 (); is_list = [] } in
      Hashtbl.replace t.intrinsic_edges key c;
      c
  in
  if Bits.add cell.is_seen (intr_id t callee) then
    cell.is_list <- callee :: cell.is_list

(* Append to a method context's provenance log.  Only the structural
   entry points below call this; derived constraint work (dispatch
   wiring, load/store-materialised edges) is intentionally unlogged. *)
let pv_log (t : t) (mc : int) (op : pv_op) : unit =
  t.pv.(mc) <- op :: t.pv.(mc)

let rec make_reachable (t : t) (mc : int) : unit =
  if not t.processed.(mc) then begin
    t.processed.(mc) <- true;
    match t.pv.(mc) with
    | (_ :: _) as ops ->
      (* A [resolve_delta] re-reach of a method whose body is unchanged:
         replay the recorded constraints instead of re-walking the body
         (and re-interning what is already interned). *)
      List.iter (replay_op t mc) (List.rev ops)
    | [] -> (
      let info = t.mctxs.(mc) in
      let m = Program.find_method_exn t.p info.mi_mq in
      match m.Instr.m_body with
      | Instr.Intrinsic _ | Instr.Abstract -> ()
      | Instr.Body _ ->
        let var v = intern_node t (Nvar (mc, v)) in
        let seed n o =
          pv_log t mc (Pseed (n, o));
          add_obj t n o
        in
        let edge ?filter src dst =
          pv_log t mc (Pedge (src, dst, filter));
          add_edge t ?filter src dst
        in
        let load ~base ~field ~dst =
          pv_log t mc (Pload (base, field, dst));
          add_load t ~base ~field ~dst
        in
        let store ~base ~field ~src =
          pv_log t mc (Pstore (base, field, src));
          add_store t ~base ~field ~src
        in
        Instr.iter_instrs m (fun _ i ->
            let site = i.Instr.i_id in
            match i.Instr.i_kind with
            | Instr.Const (x, Types.Cstr _) when is_ref_var m x ->
              seed (var x) (alloc t mc ~site ~cls:Context.Astring)
            | Instr.Const _ -> ()
            (* Concat results are fresh strings; see the matching case in the
               reference solver above for why omitting this is a soundness
               hole. *)
            | Instr.Binop (x, Types.Concat, _, _) when is_ref_var m x ->
              seed (var x) (alloc t mc ~site ~cls:Context.Astring)
            | Instr.New (x, c) ->
              seed (var x) (alloc t mc ~site ~cls:(Context.Aclass c))
            | Instr.New_array (x, elem, _) ->
              seed (var x) (alloc t mc ~site ~cls:(Context.Aarray elem))
            | Instr.Move (x, y) when is_ref_var m x && is_ref_var m y ->
              edge (var y) (var x)
            | Instr.Move _ -> ()
            | Instr.Cast (x, ty, y) when is_ref_var m x && is_ref_var m y ->
              edge ~filter:ty (var y) (var x)
            | Instr.Cast _ -> ()
            | Instr.Phi (x, ins) when is_ref_var m x ->
              List.iter (fun (_, y) -> edge (var y) (var x)) ins
            | Instr.Phi _ -> ()
            | Instr.Load (x, y, f) when is_ref_var m x ->
              load ~base:(var y) ~field:f ~dst:(var x)
            | Instr.Load _ -> ()
            | Instr.Store (x, f, y) when is_ref_var m y ->
              store ~base:(var x) ~field:f ~src:(var y)
            | Instr.Store _ -> ()
            | Instr.Array_load (x, y, _) when is_ref_var m x ->
              load ~base:(var y) ~field:elem_field ~dst:(var x)
            | Instr.Array_load _ -> ()
            | Instr.Array_store (a, _, x) when is_ref_var m x ->
              store ~base:(var a) ~field:elem_field ~src:(var x)
            | Instr.Array_store _ -> ()
            | Instr.Static_load (x, c, f) when is_ref_var m x ->
              edge (intern_node t (Nstatic (c, f))) (var x)
            | Instr.Static_load _ -> ()
            | Instr.Static_store (c, f, y) when is_ref_var m y ->
              edge (var y) (intern_node t (Nstatic (c, f)))
            | Instr.Static_store _ -> ()
            | Instr.Call { lhs; kind; args } -> process_call t mc i lhs kind args
            | Instr.Binop _ | Instr.Unop _ | Instr.Instance_of _
            | Instr.Array_length _ | Instr.Nop -> ());
        Instr.iter_terms m (fun _ term ->
            match term.Instr.t_kind with
            | Instr.Return (Some v) when is_ref_var m v ->
              edge (var v) (intern_node t (Nret mc))
            | Instr.Return _ | Instr.Goto _ | Instr.If _ | Instr.Throw _ -> ()))
  end

and process_call (t : t) (mc : int) (i : Instr.instr) (lhs : Instr.var option)
    (kind : Instr.call_kind) (args : Instr.var list) : unit =
  let info = t.mctxs.(mc) in
  let m = Program.find_method_exn t.p info.mi_mq in
  match kind with
  | Instr.Static mq ->
    pv_log t mc
      (Pcall
         { d_caller = mc; d_stmt = i.Instr.i_id; d_kind = kind; d_args = args;
           d_lhs = lhs });
    let callee = Program.find_method_exn t.p mq in
    wire_call t ~caller:mc ~stmt:i.Instr.i_id ~caller_meth:m ~callee
      ~callee_ctx:Context.Cnone ~recv_obj:None ~lhs ~args
  | Instr.Special _ | Instr.Virtual _ -> (
    (* dispatch (or context selection, for Special) driven by the receiver *)
    match args with
    | recv :: _ when is_ref_var m recv ->
      let d =
        { d_caller = mc; d_stmt = i.Instr.i_id; d_kind = kind; d_args = args;
          d_lhs = lhs }
      in
      pv_log t mc (Pcall d);
      register_dispatch t mc d
    | _ -> ())

(* Attach a dispatch record to the receiver's representative and resolve
   it against whatever the receiver already points to.  Shared between
   first-time constraint generation and [resolve_delta] replay so both
   resolve dispatch against the CURRENT program. *)
and register_dispatch (t : t) (mc : int) (d : dispatch) : unit =
  match d.d_args with
  | recv :: _ ->
    let rnode = find t (intern_node t (Nvar (mc, recv))) in
    t.dispatches.(rnode) <- d :: t.dispatches.(rnode);
    t.deg.(rnode) <- t.deg.(rnode) + 1;
    Bits.iter (fun o -> process_dispatch t d o) t.pts.(rnode)
  | [] -> ()

(* Replay one logged constraint.  Call sites re-run full resolution
   ([wire_call] / dispatch registration) so the call graph is re-derived
   from the current program and current points-to state — the log never
   stores dispatch OUTCOMES, only the dispatch obligations. *)
and replay_op (t : t) (mc : int) (op : pv_op) : unit =
  match op with
  | Pseed (n, o) -> add_obj t n o
  | Pedge (src, dst, filter) -> add_edge t ?filter src dst
  | Pload (base, field, dst) -> add_load t ~base ~field ~dst
  | Pstore (base, field, src) -> add_store t ~base ~field ~src
  | Pcall d -> (
    match d.d_kind with
    | Instr.Static mq ->
      let m = Program.find_method_exn t.p t.mctxs.(mc).mi_mq in
      let callee = Program.find_method_exn t.p mq in
      wire_call t ~caller:mc ~stmt:d.d_stmt ~caller_meth:m ~callee
        ~callee_ctx:Context.Cnone ~recv_obj:None ~lhs:d.d_lhs ~args:d.d_args
    | Instr.Virtual _ | Instr.Special _ -> register_dispatch t mc d)

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
      let caller_meth = Program.find_method_exn t.p t.mctxs.(d.d_caller).mi_mq in
      let cctx = callee_ctx t ~recv_obj in
      wire_call t ~caller:d.d_caller ~stmt:d.d_stmt ~caller_meth ~callee
        ~callee_ctx:cctx ~recv_obj:(Some recv_obj) ~lhs:d.d_lhs ~args:d.d_args)

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
      add_obj t (intern_node t (Nvar (caller, x))) o
    | _ -> ())
  | Instr.Abstract -> ()
  | Instr.Body _ ->
    let cmc = intern_mctx t callee.Instr.m_qname callee_ctx in
    record_call_edge t ~caller ~stmt ~callee:cmc;
    make_reachable t cmc;
    (* Receiver: flows as a single object, keeping obj-sensitivity sharp. *)
    (match (recv_obj, callee.Instr.m_params) with
    | Some o, this_param :: _ ->
      add_obj t (intern_node t (Nvar (cmc, this_param))) o
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
        add_edge t (intern_node t (Nret cmc)) (intern_node t (Nvar (caller, x)))
      | _ -> ()
    end

(* --- solving -------------------------------------------------------- *)

let solve (t : t) : unit =
  while t.ring_len > 0 || t.lcd_pending <> [] do
    (* Collapses run only here, between pops: no constraint list is
       being iterated, no drained delta is in flight. *)
    process_pending_lcd t;
    if t.ring_len > 0 then begin
      let n = t.ring.(t.head) in
      t.head <- (t.head + 1) mod Array.length t.ring;
      t.ring_len <- t.ring_len - 1;
      Bits.remove t.queued n;
      (* Stale entries (node merged away since being queued) are skipped:
         the merge folded their delta into the rep and enqueued it. *)
      if find t n = n && not (Bits.is_empty t.delta.(n)) then begin
        incr t.obs_iters;
        t.obs_constraints := !(t.obs_constraints) + t.deg.(n);
        (* Drain the accumulated delta by swapping in the spare buffer:
           constraints fired below may re-enqueue [n] with new bits. *)
        let d = t.delta.(n) in
        t.delta.(n) <- t.spare;
        t.spare <- d;
        List.iter
          (fun (dst, filter) ->
            let rd = find t dst in
            if rd <> n then
              match filter with
              | None -> propagate_into t ~src_bits:d ~rd ~lcd_src:(Some n)
              | Some ty -> propagate_filtered t ~src_bits:d ~ty ~rd)
          t.succs.(n);
        List.iter
          (fun (field, dst) ->
            Bits.iter
              (fun o -> add_edge t (intern_node t (Nfield (o, field))) dst)
              d)
          t.loads.(n);
        List.iter
          (fun (field, src) ->
            Bits.iter
              (fun o -> add_edge t src (intern_node t (Nfield (o, field))))
              d)
          t.stores.(n);
        List.iter
          (fun disp -> Bits.iter (fun o -> process_dispatch t disp o) d)
          t.dispatches.(n);
        Bits.clear t.spare
      end
    end
  done

(* --- entry points --------------------------------------------------- *)

let analyze_uninstrumented ~opts (p : Program.t) : result =
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
      pv = Array.make 64 [];
      obj_mc = Array.make 64 (-1);
      node_descs = Array.make 256 (Nstatic ("", ""));
      num_nodes = 0;
      node_intern = Hashtbl.create 256;
      pts = Array.make 256 dummy_bits;
      delta = Array.make 256 dummy_bits;
      parent = Array.make 256 0;
      rank = Array.make 256 0;
      succs = Array.make 256 [];
      succ_seen = Array.make 256 dummy_bits;
      loads = Array.make 256 [];
      stores = Array.make 256 [];
      dispatches = Array.make 256 [];
      deg = Array.make 256 0;
      call_edges = Hashtbl.create 256;
      intr_intern = Hashtbl.create 16;
      intrinsic_edges = Hashtbl.create 64;
      wired = Hashtbl.create 256;
      ring = Array.make 1024 0;
      head = 0;
      tail = 0;
      ring_len = 0;
      queued = Bits.create ~capacity:1024 ();
      lcd_pending = [];
      lcd_done = Hashtbl.create 64;
      lcd_fuel = lcd_fuel_init;
      lcd_mark = Array.make 256 0;
      lcd_stamp = 0;
      obs_pts_objs = Slice_obs.counter_cell c_pts_objs;
      obs_diff_hits = Slice_obs.counter_cell c_diff_prop_hits;
      obs_edges = Slice_obs.counter_cell c_edges;
      obs_iters = Slice_obs.counter_cell c_worklist_iterations;
      obs_constraints = Slice_obs.counter_cell c_constraints;
      obs_cycles = Slice_obs.counter_cell c_cycles_collapsed;
      obs_lcd = Slice_obs.counter_cell c_lcd_runs;
      spare = Bits.create ~capacity:64 ();
      fscratch = Bits.create ~capacity:64 ();
      meth_index = Hashtbl.create 1;
      meth_index_stamp = -1 }
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
      add_obj t (intern_node t (Nvar (emc, pv))) arr;
      add_obj t (intern_node t (Nfield (arr, elem_field))) str
    | _ -> ()));
  Slice_obs.span "pta.solve" (fun () -> solve t);
  t

let analyze ?(opts = default_opts) (p : Program.t) : result =
  Slice_obs.span "pta" (fun () -> analyze_uninstrumented ~opts p)

(* --- queries -------------------------------------------------------- *)

let contexts (t : result) : Context.t = t.ctxs

let method_contexts (t : result) : (int * Instr.method_qname * Context.ctx) list =
  let out = ref [] in
  for i = t.num_mctxs - 1 downto 0 do
    if t.processed.(i) then
      out := (i, t.mctxs.(i).mi_mq, t.mctxs.(i).mi_ctx) :: !out
  done;
  !out

let mctx_info (t : result) (mc : int) : Instr.method_qname * Context.ctx =
  (t.mctxs.(mc).mi_mq, t.mctxs.(mc).mi_ctx)

(* Memoized method -> mctx list index (satellite): built once on first
   query after [solve] and reused; [meth_index_stamp] guards against a
   stale index if contexts were somehow added since. *)
let mctxs_of_method (t : result) (mq : Instr.method_qname) : int list =
  if t.meth_index_stamp <> t.num_mctxs then begin
    let h = Hashtbl.create (max 16 t.num_mctxs) in
    for i = t.num_mctxs - 1 downto 0 do
      if t.processed.(i) then begin
        let k = t.mctxs.(i).mi_mq in
        let prev = Option.value (Hashtbl.find_opt h k) ~default:[] in
        Hashtbl.replace h k (i :: prev)
      end
    done;
    t.meth_index <- h;
    t.meth_index_stamp <- t.num_mctxs
  end;
  Option.value (Hashtbl.find_opt t.meth_index mq) ~default:[]

let reachable_methods (t : result) : Instr.method_qname list =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (_, mq, _) -> Hashtbl.replace seen (Instr.method_qname_to_string mq) mq)
    (method_contexts t);
  List.sort Instr.compare_method_qname
    (Hashtbl.fold (fun _ mq acc -> mq :: acc) seen [])

(* All queries go through [find]: after cycle collapsing, a node's
   points-to set lives at its class representative. *)
let pts_of_node (t : result) (d : node_desc) : ObjSet.t =
  match Hashtbl.find_opt t.node_intern d with
  | Some id ->
    Bits.fold (fun o acc -> ObjSet.add o acc) t.pts.(find t id) ObjSet.empty
  | None -> ObjSet.empty

let pts_of_var (t : result) ~(mctx : int) (v : Instr.var) : ObjSet.t =
  pts_of_node t (Nvar (mctx, v))

(* Allocation-free variant for the SDG's heap-indexing pass and the
   mod-ref direct pass. *)
let pts_iter_var (t : result) ~(mctx : int) (v : Instr.var) (f : int -> unit) :
    unit =
  match Hashtbl.find_opt t.node_intern (Nvar (mctx, v)) with
  | Some id -> Bits.iter f t.pts.(find t id)
  | None -> ()

(* Context-insensitive projection: union over all contexts of the method. *)
let pts_of_var_ci (t : result) (mq : Instr.method_qname) (v : Instr.var) :
    ObjSet.t =
  List.fold_left
    (fun acc mc -> ObjSet.union acc (pts_of_var t ~mctx:mc v))
    ObjSet.empty (mctxs_of_method t mq)

let pts_of_field (t : result) ~(obj : int) ~(field : string) : ObjSet.t =
  pts_of_node t (Nfield (obj, field))

let pts_of_static (t : result) (c : Types.class_name) (f : Types.field_name) :
    ObjSet.t =
  pts_of_node t (Nstatic (c, f))

let call_targets (t : result) ~(mctx : int) ~(stmt : Instr.stmt_id) : int list =
  match Hashtbl.find_opt t.call_edges (mctx, stmt) with
  | Some cell -> cell.cs_list
  | None -> []

let intrinsic_targets (t : result) ~(mctx : int) ~(stmt : Instr.stmt_id) :
    Instr.method_qname list =
  match Hashtbl.find_opt t.intrinsic_edges (mctx, stmt) with
  | Some cell -> cell.is_list
  | None -> []

(* Call targets, context-insensitively: method names only. *)
let call_targets_ci (t : result) (mq : Instr.method_qname)
    ~(stmt : Instr.stmt_id) : Instr.method_qname list =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun mc ->
      List.iter
        (fun cmc ->
          let mq', _ = mctx_info t cmc in
          Hashtbl.replace seen (Instr.method_qname_to_string mq') mq')
        (call_targets t ~mctx:mc ~stmt))
    (mctxs_of_method t mq);
  Hashtbl.fold (fun _ m acc -> m :: acc) seen []

(* Intrinsic targets, context-insensitively. *)
let intrinsic_targets_ci (t : result) (mq : Instr.method_qname)
    ~(stmt : Instr.stmt_id) : Instr.method_qname list =
  let seen = Hashtbl.create 4 in
  List.iter
    (fun mc ->
      List.iter
        (fun imq -> Hashtbl.replace seen (Instr.method_qname_to_string imq) imq)
        (intrinsic_targets t ~mctx:mc ~stmt))
    (mctxs_of_method t mq);
  Hashtbl.fold (fun _ m acc -> m :: acc) seen []

let num_call_graph_nodes (t : result) : int =
  List.length (method_contexts t)

let num_objects (t : result) : int = Context.num_objs t.ctxs

(* Verifiable casts: can pointer analysis prove the cast never fails?  The
   tough-cast experiment (section 6.3) slices from casts where this check
   fails. *)
let cast_verified (t : result) (mq : Instr.method_qname) (cast : Instr.instr) :
    bool =
  match cast.Instr.i_kind with
  | Instr.Cast (_, ty, y) ->
    let pts = pts_of_var_ci t mq y in
    ObjSet.for_all (fun o -> obj_passes t o ty) pts
  | _ -> invalid_arg "Andersen.cast_verified: not a cast"

(* --- parity dumps --------------------------------------------------- *)

let dump_pts ?site (t : result) : (string * string list) list =
  Pta_dump.pts ?site t.ctxs
    ~mctx_of:(fun mc -> mctx_info t mc)
    ~num_nodes:t.num_nodes
    ~desc_of:(fun i -> t.node_descs.(i))
    ~objs_of:(fun i -> Bits.elements t.pts.(find t i))

let dump_call_graph ?site (t : result) : (string * string list) list =
  Pta_dump.call_graph ?site t.ctxs
    ~mctx_of:(fun mc -> mctx_info t mc)
    ~calls:(fun f ->
      Hashtbl.iter (fun (caller, stmt) cell -> f caller stmt cell.cs_list)
        t.call_edges)
    ~intrinsics:(fun f ->
      Hashtbl.iter (fun (caller, stmt) cell -> f caller stmt cell.is_list)
        t.intrinsic_edges)

let pts_dump (t : result) = dump_pts t
let call_graph_dump (t : result) = dump_call_graph t

(* --- delta-native incremental re-solve ------------------------------- *)

type delta_stats = {
  ds_retracted_mctxs : int;
  ds_cone_nodes : int;
  ds_total_nodes : int;
  ds_replayed_mctxs : int;
}

(* Fall back to a fresh solve once delete-and-rederive would redo more
   than half the node universe (or half the reachable methods) anyway:
   past that point the warm start saves nothing and the bookkeeping is
   pure overhead. *)
let cone_node_limit_den = 2
let cone_mctx_limit_den = 2

let resolve_delta (t : t) ~(retracted : Instr.method_qname list)
    ~(added : Instr.method_qname list) :
    (delta_stats, [ `Cone_too_big ]) Stdlib.result =
  (* [added] methods carry no old constraints to retract: their bodies
     already live in [t.p] and contribute constraints the moment the
     replayed call graph reaches them.  The list is accepted so callers
     state the full delta; only [retracted] drives the retraction. *)
  ignore (added : Instr.method_qname list);
  (* ---- plan (no mutation): dead method contexts + affected cone ---
     [dead] = every context whose old constraints must be dropped:
     the retracted methods' contexts, plus — iteratively — any context
     whose reachability can no longer be established without them.
     [cone] = representatives whose points-to sets may depend on a
     dead constraint, found by forward closure over the OLD rows:
     copy successors (which include every solve-derived edge), load
     targets, field nodes reachable through stores, and the wiring a
     suspect dispatch produced. *)
  let dead_mq = Hashtbl.create 8 in
  List.iter (fun mq -> Hashtbl.replace dead_mq mq ()) retracted;
  let dead = Bits.create ~capacity:(max 64 t.num_mctxs) () in
  for mc = 0 to t.num_mctxs - 1 do
    if t.processed.(mc) && Hashtbl.mem dead_mq t.mctxs.(mc).mi_mq then
      ignore (Bits.add dead mc)
  done;
  let entry_mc =
    Hashtbl.find_opt t.mctx_intern (Program.entry_method t.p, Context.Cnone)
  in
  let cone = Bits.create ~capacity:(max 256 t.num_nodes) () in
  let compute_cone () =
    Bits.clear cone;
    let wl = ref [] in
    let mark n =
      let r = find t n in
      if Bits.add cone r then wl := r :: !wl
    in
    let mark_intern desc =
      match Hashtbl.find_opt t.node_intern desc with
      | Some id -> mark id
      | None -> ()
    in
    for i = 0 to t.num_nodes - 1 do
      match t.node_descs.(i) with
      | Nvar (mc, _) | Nret mc -> if Bits.mem dead mc then mark i
      | Nfield (o, _) ->
        (* an object whose allocating context died can never be
           re-seeded (its site is gone); its field nodes die with it *)
        let owner = if o < Array.length t.obj_mc then t.obj_mc.(o) else -1 in
        if owner >= 0 && Bits.mem dead owner then mark i
      | Nstatic _ -> ()
    done;
    while !wl <> [] do
      match !wl with
      | [] -> ()
      | r :: rest ->
        wl := rest;
        List.iter (fun (dst, _) -> mark dst) t.succs.(r);
        List.iter (fun (_, dst) -> mark dst) t.loads.(r);
        List.iter
          (fun (f, _) ->
            Bits.iter (fun o -> mark_intern (Nfield (o, f))) t.pts.(r))
          t.stores.(r);
        List.iter
          (fun d ->
            (* a changed receiver can change dispatch outcomes: every
               node the old wiring fed is suspect *)
            (match d.d_lhs with
            | Some x -> mark_intern (Nvar (d.d_caller, x))
            | None -> ());
            match Hashtbl.find_opt t.call_edges (d.d_caller, d.d_stmt) with
            | None -> ()
            | Some cell ->
              List.iter
                (fun cmc ->
                  mark_intern (Nret cmc);
                  match Program.find_method t.p t.mctxs.(cmc).mi_mq with
                  | None -> ()
                  | Some callee ->
                    List.iter
                      (fun prm -> mark_intern (Nvar (cmc, prm)))
                      callee.Instr.m_params)
                cell.cs_list)
          t.dispatches.(r)
    done
  in
  (* Reachability over the OLD call graph, trusting only edges whose
     caller survives and whose dispatch receiver (if any) is outside
     the cone.  Under-approximate on purpose: anything uncertain is
     treated as dead and re-derived by the replay if still wanted. *)
  let reach = Bits.create ~capacity:(max 64 t.num_mctxs) () in
  let compute_reach () =
    Bits.clear reach;
    let disp_recv = Hashtbl.create 64 in
    for r = 0 to t.num_nodes - 1 do
      List.iter
        (fun d -> Hashtbl.replace disp_recv (d.d_caller, d.d_stmt) r)
        t.dispatches.(r)
    done;
    let out = Hashtbl.create 64 in
    Hashtbl.iter
      (fun ((caller, _stmt) as key) cell ->
        let suspect =
          Bits.mem dead caller
          ||
          match Hashtbl.find_opt disp_recv key with
          | Some r -> Bits.mem cone (find t r)
          | None -> false
        in
        if not suspect then
          Hashtbl.replace out caller
            (cell.cs_list
            @ Option.value (Hashtbl.find_opt out caller) ~default:[]))
      t.call_edges;
    let wl = ref [] in
    let visit mc = if Bits.add reach mc then wl := mc :: !wl in
    (match entry_mc with Some e -> visit e | None -> ());
    while !wl <> [] do
      match !wl with
      | [] -> ()
      | mc :: rest ->
        wl := rest;
        if not (Bits.mem dead mc) then
          List.iter visit (Option.value (Hashtbl.find_opt out mc) ~default:[])
    done
  in
  let stable = ref false in
  while not !stable do
    compute_cone ();
    compute_reach ();
    let newly = ref [] in
    for mc = 0 to t.num_mctxs - 1 do
      if
        t.processed.(mc)
        && (not (Bits.mem dead mc))
        && not (Bits.mem reach mc)
      then newly := mc :: !newly
    done;
    if !newly = [] then stable := true
    else List.iter (fun mc -> ignore (Bits.add dead mc)) !newly
  done;
  let in_cone = Array.make (max 1 t.num_nodes) false in
  let cone_nodes = ref 0 in
  for n = 0 to t.num_nodes - 1 do
    if Bits.mem cone (find t n) then begin
      in_cone.(n) <- true;
      incr cone_nodes
    end
  done;
  let dead_count = Bits.cardinal dead in
  let processed_count = ref 0 in
  for mc = 0 to t.num_mctxs - 1 do
    if t.processed.(mc) then incr processed_count
  done;
  if
    !cone_nodes * cone_node_limit_den > t.num_nodes
    || dead_count * cone_mctx_limit_den > !processed_count
  then Error `Cone_too_big
  else begin
    (* ---- retract ------------------------------------------------- *)
    let dead_objs = ref [] in
    for o = 0 to Array.length t.obj_mc - 1 do
      if t.obj_mc.(o) >= 0 && Bits.mem dead t.obj_mc.(o) then begin
        dead_objs := o :: !dead_objs;
        t.obj_mc.(o) <- -1
      end
    done;
    for n = 0 to t.num_nodes - 1 do
      if in_cone.(n) then begin
        (* conservative split: the collapse may not survive retraction *)
        t.parent.(n) <- n;
        t.rank.(n) <- 0;
        Bits.clear t.pts.(n);
        Bits.clear t.delta.(n)
      end
      else if t.parent.(n) = n then
        List.iter
          (fun o ->
            Bits.remove t.pts.(n) o;
            Bits.remove t.delta.(n) o)
          !dead_objs;
      (* every row is re-derived by the replay *)
      t.succs.(n) <- [];
      t.loads.(n) <- [];
      t.stores.(n) <- [];
      t.dispatches.(n) <- [];
      t.deg.(n) <- 0;
      Bits.clear t.succ_seen.(n)
    done;
    Hashtbl.reset t.call_edges;
    Hashtbl.reset t.intrinsic_edges;
    Hashtbl.reset t.wired;
    t.lcd_pending <- [];
    Hashtbl.reset t.lcd_done;
    t.lcd_fuel <- lcd_fuel_init;
    t.head <- 0;
    t.tail <- 0;
    t.ring_len <- 0;
    Bits.clear t.queued;
    t.meth_index_stamp <- -1;
    let replayable = ref 0 in
    for mc = 0 to t.num_mctxs - 1 do
      if Bits.mem dead mc then t.pv.(mc) <- [];
      if t.processed.(mc) && (not (Bits.mem dead mc)) && t.pv.(mc) <> []
      then incr replayable;
      t.processed.(mc) <- false
    done;
    (* ---- re-derive: demand-driven replay from the entry ----------
       Surviving contexts replay their logs; retracted-but-reachable
       contexts re-walk their (new) bodies because their logs were
       dropped above.  Mirrors [analyze_uninstrumented]'s entry
       seeding so the synthetic argv objects stay identical. *)
    let entry_mq = Program.entry_method t.p in
    (match Program.find_method t.p entry_mq with
    | None -> ()
    | Some main ->
      let emc = intern_mctx t entry_mq Context.Cnone in
      make_reachable t emc;
      (match main.Instr.m_params with
      | [ pvar ] when is_ref_var main pvar ->
        let arr =
          Context.intern_obj t.ctxs ~site:(-1)
            ~cls:(Context.Aarray (Types.Tclass Types.string_class))
            ~ctx:Context.Cnone
        in
        let str =
          Context.intern_obj t.ctxs ~site:(-2) ~cls:Context.Astring
            ~ctx:Context.Cnone
        in
        add_obj t (intern_node t (Nvar (emc, pvar))) arr;
        add_obj t (intern_node t (Nfield (arr, elem_field))) str
      | _ -> ()));
    Slice_obs.span "pta.resolve_delta" (fun () -> solve t);
    Ok
      { ds_retracted_mctxs = dead_count;
        ds_cone_nodes = !cone_nodes;
        ds_total_nodes = t.num_nodes;
        ds_replayed_mctxs = !replayable }
  end

(* --- incremental re-analysis support --------------------------------- *)

(* A canonical string of EXACTLY the facts [make_reachable] turns into
   constraints for one method body, plus the site list those constraints
   key on, in [iter_instrs] order.

   Two bodies with equal summaries generate identical constraint systems
   up to statement-id renaming: same Nvar node set (variable ints are
   part of the summary), same copy/load/store/dispatch structure, and a
   positional 1:1 correspondence of allocation/call sites.  That is the
   soundness condition for patching a solved analysis in place after a
   method is re-lowered ([rekey_sites]) instead of re-solving.  The
   summary deliberately EXCLUDES statement ids, source locations, and
   constants with no points-to effect (int/bool/string VALUES, non-ref
   operands), so pure value edits keep the summary stable. *)
let method_summary_sites (m : Instr.meth) : string * Instr.stmt_id list =
  let buf = Buffer.create 256 in
  let sites = ref [] in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match m.Instr.m_body with
  | Instr.Intrinsic _ | Instr.Abstract -> Buffer.add_string buf "nobody"
  | Instr.Body _ ->
    let refc v = if is_ref_var m v then 'r' else 'p' in
    addf "sig:%s|%s|"
      (String.concat ","
         (List.map
            (fun v ->
              Printf.sprintf "%d%c:%s" v (refc v)
                (Types.ty_to_string (Instr.var_info m v).Instr.vi_ty))
            m.Instr.m_params))
      (Types.ty_to_string m.Instr.m_ret_ty);
    Instr.iter_instrs m (fun lbl i ->
        let site () = sites := i.Instr.i_id :: !sites in
        match i.Instr.i_kind with
        | Instr.Const (x, Types.Cstr _) when is_ref_var m x ->
          site ();
          addf "S%d:%d;" lbl x
        | Instr.Const _ -> ()
        | Instr.Binop (x, Types.Concat, _, _) when is_ref_var m x ->
          site ();
          addf "K%d:%d;" lbl x
        | Instr.New (x, c) ->
          site ();
          addf "N%d:%d:%s;" lbl x c
        | Instr.New_array (x, elem, _) ->
          site ();
          addf "A%d:%d:%s;" lbl x (Types.ty_to_string elem)
        | Instr.Move (x, y) when is_ref_var m x && is_ref_var m y ->
          addf "M%d:%d:%d;" lbl x y
        | Instr.Move _ -> ()
        | Instr.Cast (x, ty, y) when is_ref_var m x && is_ref_var m y ->
          addf "C%d:%d:%s:%d;" lbl x (Types.ty_to_string ty) y
        | Instr.Cast _ -> ()
        | Instr.Phi (x, ins) when is_ref_var m x ->
          addf "P%d:%d:%s;" lbl x
            (String.concat ","
               (List.map (fun (_, y) -> string_of_int y) ins))
        | Instr.Phi _ -> ()
        | Instr.Load (x, y, f) when is_ref_var m x ->
          addf "L%d:%d:%d:%s;" lbl x y f
        | Instr.Load _ -> ()
        | Instr.Store (x, f, y) when is_ref_var m y ->
          addf "T%d:%d:%s:%d;" lbl x f y
        | Instr.Store _ -> ()
        | Instr.Array_load (x, y, _) when is_ref_var m x ->
          addf "l%d:%d:%d;" lbl x y
        | Instr.Array_load _ -> ()
        | Instr.Array_store (a, _, x) when is_ref_var m x ->
          addf "t%d:%d:%d;" lbl a x
        | Instr.Array_store _ -> ()
        | Instr.Static_load (x, c, f) when is_ref_var m x ->
          addf "G%d:%d:%s.%s;" lbl x c f
        | Instr.Static_load _ -> ()
        | Instr.Static_store (c, f, y) when is_ref_var m y ->
          addf "g%d:%s.%s:%d;" lbl c f y
        | Instr.Static_store _ -> ()
        | Instr.Call { lhs; kind; args } ->
          (* EVERY call is a site: call-graph edges, wiring dedup, and
             intrinsic allocations all key on the call's statement id. *)
          site ();
          let kstr =
            match kind with
            | Instr.Virtual n -> "v" ^ n
            | Instr.Static mq -> "s" ^ Instr.method_qname_to_string mq
            | Instr.Special mq -> "p" ^ Instr.method_qname_to_string mq
          in
          addf "X%d:%s(%s)%s;" lbl kstr
            (String.concat ","
               (List.map (fun a -> Printf.sprintf "%d%c" a (refc a)) args))
            (match lhs with
            | None -> ""
            | Some x -> Printf.sprintf "=%d%c" x (refc x))
        | Instr.Binop _ | Instr.Unop _ | Instr.Instance_of _
        | Instr.Array_length _ | Instr.Nop -> ());
    Instr.iter_terms m (fun lbl term ->
        match term.Instr.t_kind with
        | Instr.Return (Some v) when is_ref_var m v -> addf "R%d:%d;" lbl v
        | Instr.Return _ | Instr.Goto _ | Instr.If _ | Instr.Throw _ -> ()));
  (Buffer.contents buf, List.rev !sites)

(* Enumerate resolved call edges: used by the SDG patch's control pass
   to recover a re-lowered method's entry callers without re-running
   dispatch. *)
let iter_call_sites (t : result)
    (f : caller:int -> stmt:Instr.stmt_id -> callees:int list -> unit) : unit =
  Hashtbl.iter
    (fun (caller, stmt) cell -> f ~caller ~stmt ~callees:cell.cs_list)
    t.call_edges

(* Move every statement-id-keyed structure of a SOLVED analysis onto a
   re-lowered method's fresh ids.  Sound only when the old and new body
   have equal [method_summary_sites] summaries and [remap] is the
   positional zip of their site lists.  Collect-then-apply everywhere:
   statement ids are globally unique and never reused, so the old and
   new key spaces cannot collide. *)
let rekey_sites (t : result) (remap : Instr.stmt_id -> Instr.stmt_id option) :
    unit =
  let moves = ref [] in
  Hashtbl.iter
    (fun ((caller, stmt) as k) cell ->
      match remap stmt with
      | Some s' when s' <> stmt -> moves := (k, (caller, s'), cell) :: !moves
      | Some _ | None -> ())
    t.call_edges;
  List.iter
    (fun (ok, nk, cell) ->
      Hashtbl.remove t.call_edges ok;
      Hashtbl.replace t.call_edges nk cell)
    !moves;
  let imoves = ref [] in
  Hashtbl.iter
    (fun ((caller, stmt) as k) cell ->
      match remap stmt with
      | Some s' when s' <> stmt -> imoves := (k, (caller, s'), cell) :: !imoves
      | Some _ | None -> ())
    t.intrinsic_edges;
  List.iter
    (fun (ok, nk, cell) ->
      Hashtbl.remove t.intrinsic_edges ok;
      Hashtbl.replace t.intrinsic_edges nk cell)
    !imoves;
  let wmoves = ref [] in
  Hashtbl.iter
    (fun ((caller, stmt, cmc) as k) () ->
      match remap stmt with
      | Some s' when s' <> stmt -> wmoves := (k, (caller, s', cmc)) :: !wmoves
      | Some _ | None -> ())
    t.wired;
  List.iter
    (fun (ok, nk) ->
      Hashtbl.remove t.wired ok;
      Hashtbl.replace t.wired nk ())
    !wmoves;
  for i = 0 to t.num_nodes - 1 do
    match t.dispatches.(i) with
    | [] -> ()
    | ds ->
      t.dispatches.(i) <-
        List.map
          (fun d ->
            match remap d.d_stmt with
            | Some s' when s' <> d.d_stmt -> { d with d_stmt = s' }
            | Some _ | None -> d)
          ds
  done;
  (* The provenance log stores call sites too: move them with the rest,
     or a later [resolve_delta] would replay retired statement ids. *)
  for mc = 0 to t.num_mctxs - 1 do
    match t.pv.(mc) with
    | [] -> ()
    | ops ->
      t.pv.(mc) <-
        List.map
          (fun op ->
            match op with
            | Pcall d -> (
              match remap d.d_stmt with
              | Some s' when s' <> d.d_stmt -> Pcall { d with d_stmt = s' }
              | Some _ | None -> op)
            | Pseed _ | Pedge _ | Pload _ | Pstore _ -> op)
          ops
  done;
  Context.rekey_sites t.ctxs remap

(* Location-keyed parity dumps: canonical across a patched analysis and
   a fresh rebuild, whose statement NUMBERINGS differ but whose source
   locations coincide.  [site_label] must be injective enough to keep
   the dump deterministic (the engine supplies "file:line:col", with
   negative synthetic sites labelled verbatim). *)
let pts_dump_loc ~(site_label : int -> string) (t : result) =
  dump_pts ~site:site_label t

let call_graph_dump_loc ~(site_label : int -> string) (t : result) =
  dump_call_graph ~site:site_label t
