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
module Iset = Slice_util.Iset
module Imap = Slice_util.Imap

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

(* A call site.  A dispatched one is (re-)resolved as receiver objects
   arrive. *)
type dispatch = {
  d_caller : int;                       (* caller method-context id *)
  d_stmt : Instr.stmt_id;
  d_kind : Instr.call_kind;
  d_callee : int;                       (* [name_id] of a virtual call's
                                           method name, else the callee's
                                           [meth_id] *)
  d_args : Instr.var list;
  d_lhs : Instr.var option;
}

type mctx_info = { mi_mq : Instr.method_qname; mi_ctx : Context.ctx }

(* ------------------------------------------------------------------ *)
(* Main solver: bitset data plane + online cycle elimination           *)
(* ------------------------------------------------------------------ *)

(* Per-call-site callee cell: bitset dedup + insertion-ordered list. *)
type ccell = { cs_seen : Bits.t; mutable cs_list : int list }
type icell = { is_seen : Bits.t; mutable is_list : Instr.method_qname list }

(* Cells keyed on the packed (caller context, statement) of a call site:
   an [Imap] from the key to a slot of a dense cell array. *)
type 'a site_table = {
  st_index : Imap.t;
  mutable st_cells : 'a array;
  mutable st_count : int;
}

(* A resolved call target: the method, its [meth_id] and, for an
   intrinsic, its [intr_id] (else -1).  Dispatch memoizes these for one
   solve. *)
type target = { tg_meth : Instr.meth; tg_mid : int; tg_intr : int }

type t = {
  p : Program.t;
  opts : opts;
  ctxs : Context.t;
  (* method contexts *)
  mutable mctxs : mctx_info array;
  mutable num_mctxs : int;
  mctx_index : Imap.t;   (* [Imap.pack] method id, context code -> id *)
  (* Method ids, keyed on the qname record directly: the reference
     solver interns on [method_qname_to_string], which is
     [Format.asprintf] — visibly hot in profiles.  Looked up once per
     call site or memoized target, never per dispatch event. *)
  meth_ids : (Instr.method_qname, int) Hashtbl.t;
  mutable processed : bool array;
  (* Names (fields, classes, virtual method names) interned to ints, so
     node and dispatch keys pack into one int. *)
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  (* nodes: each node's packed descriptor (see [kvar]) and the index
     from descriptor to node *)
  mutable node_key : int array;
  mutable num_nodes : int;
  node_index : Imap.t;
  (* data plane: bitset pts + accumulated deltas, union-find over nodes.
     [delta] and [succ_set] are solve scratch, emptied by [end_solve]. *)
  mutable pts : Bits.t array;
  mutable delta : Bits.t array;
  mutable parent : int array;
  mutable rank : int array;
  mutable succs : (int * Types.ty option) list array;
  succ_set : Iset.t;                    (* [pair src dst] per [succs] entry *)
  mutable loads : (int * int) list array;   (* (field name id, dst) *)
  mutable stores : (int * int) list array;  (* (field name id, src) *)
  mutable dispatches : dispatch list array;
  mutable deg : int array;              (* incremental constraint degree *)
  (* each method context's call sites, static ones included (reverse
     insertion order): what [rekey_sites] moves *)
  mutable call_sites : dispatch list array;
  mutable obj_mc : int array;           (* allocating mctx per object; -1 none *)
  (* call graph: a (caller, site, callee context) first enters
     [call_edges] exactly when its arguments are wired *)
  call_edges : ccell site_table;
  intr_intern : (Instr.method_qname, int) Hashtbl.t;
  intrinsic_edges : icell site_table;
  (* Solve memos, emptied by [end_solve]: a patch later re-lowers
     bodies in place, so no [Instr.meth] outlives the solve.
     [targets] resolves a packed (receiver class, callee) key to a slot
     of [target_of] (+1; 0 for no target), [container] a class name id
     (-1 unknown, 0 no, 1 yes) and [obj_class] an object to its
     dispatch class name id (-2 unknown, -1 none). *)
  targets : Imap.t;
  mutable target_of : target array;
  mutable num_targets : int;
  mutable container : int array;
  mutable obj_class : int array;
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

(* The id of a name, interned on first sight. *)
let name_id (t : t) (x : string) : int =
  match Hashtbl.find t.names x with
  | id -> id
  | exception Not_found ->
    let id = Hashtbl.length t.names in
    if id = Array.length t.name_of then begin
      let bigger = Array.make (max 16 (2 * id)) "" in
      Array.blit t.name_of 0 bigger 0 id;
      t.name_of <- bigger
    end;
    t.name_of.(id) <- x;
    Hashtbl.replace t.names x id;
    id

let meth_id (t : t) (mq : Instr.method_qname) : int =
  match Hashtbl.find t.meth_ids mq with
  | id -> id
  | exception Not_found ->
    let id = Hashtbl.length t.meth_ids in
    Hashtbl.replace t.meth_ids mq id;
    id

(* The context of method [mid] under context code [code]: 0 for
   [Cnone], [o + 1] for [Crecv o]. *)
let intern_mctx (t : t) ~(mid : int) (mq : Instr.method_qname) (code : int) :
    int =
  let key = Imap.pack mid code in
  let id = Imap.find t.mctx_index key in
  if id >= 0 then id
  else begin
    let id = t.num_mctxs in
    if id = Array.length t.mctxs then begin
      let bigger = Array.make (2 * id) t.mctxs.(0) in
      Array.blit t.mctxs 0 bigger 0 id;
      t.mctxs <- bigger;
      let bigger_p = Array.make (2 * id) false in
      Array.blit t.processed 0 bigger_p 0 id;
      t.processed <- bigger_p;
      let bigger_cs = Array.make (2 * id) [] in
      Array.blit t.call_sites 0 bigger_cs 0 id;
      t.call_sites <- bigger_cs
    end;
    let c = if code = 0 then Context.Cnone else Context.Crecv (code - 1) in
    t.mctxs.(id) <- { mi_mq = mq; mi_ctx = c };
    t.num_mctxs <- id + 1;
    Imap.replace t.mctx_index key id;
    if code <> 0 then Slice_obs.bump c_context_clones;
    id
  end

(* Packed node descriptors: a 2-bit kind under the first field of
   [Imap.pack].  Field and static names are interned ([name_id]). *)
let[@inline] kvar (mc : int) (v : Instr.var) = Imap.pack (mc lsl 2) v
let[@inline] kfield (fid : int) (o : int) = Imap.pack ((fid lsl 2) lor 1) o
let[@inline] kstatic (cid : int) (fid : int) = Imap.pack ((cid lsl 2) lor 2) fid
let[@inline] kret (mc : int) = Imap.pack ((mc lsl 2) lor 3) 0

let node_desc (t : t) (n : int) : node_desc =
  let k = t.node_key.(n) in
  let hi = Imap.pack_hi k and lo = Imap.pack_lo k in
  match hi land 3 with
  | 0 -> Nvar (hi lsr 2, lo)
  | 1 -> Nfield (lo, t.name_of.(hi lsr 2))
  | 2 -> Nstatic (t.name_of.(hi lsr 2), t.name_of.(lo))
  | _ -> Nret (hi lsr 2)

let dummy_bits = Bits.create ~capacity:1 ()

let grow_nodes (t : t) =
  let n = Array.length t.node_key in
  let grow a default =
    let b = Array.make (2 * n) default in
    Array.blit a 0 b 0 n;
    b
  in
  t.node_key <- grow t.node_key 0;
  t.pts <- grow t.pts dummy_bits;
  t.delta <- grow t.delta dummy_bits;
  t.parent <- grow t.parent 0;
  t.rank <- grow t.rank 0;
  t.deg <- grow t.deg 0;
  t.lcd_mark <- grow t.lcd_mark 0;
  t.succs <- grow t.succs [];
  t.loads <- grow t.loads [];
  t.stores <- grow t.stores [];
  t.dispatches <- grow t.dispatches []

(* The node of a packed descriptor, interned on first sight. *)
let node (t : t) (key : int) : int =
  let id = Imap.find t.node_index key in
  if id >= 0 then id
  else begin
    let id = t.num_nodes in
    if id = Array.length t.node_key then grow_nodes t;
    t.node_key.(id) <- key;
    t.pts.(id) <- Bits.create ~capacity:64 ();
    t.delta.(id) <- Bits.create ~capacity:64 ();
    t.parent.(id) <- id;
    t.rank.(id) <- 0;
    t.deg.(id) <- 0;
    t.num_nodes <- id + 1;
    Imap.replace t.node_index key id;
    id
  end

(* --- call-site tables ---------------------------------------------- *)

let site_table () : 'a site_table =
  { st_index = Imap.create ~capacity:256 (); st_cells = [||]; st_count = 0 }

(* The cell of call site [key], or the one [fresh ()] makes for it. *)
let[@inline] site_cell (st : 'a site_table) (key : int) (fresh : unit -> 'a) :
    'a =
  let i = Imap.find st.st_index key in
  if i >= 0 then st.st_cells.(i)
  else begin
    let c = fresh () in
    let n = st.st_count in
    if n = Array.length st.st_cells then begin
      let bigger = Array.make (max 64 (2 * n)) c in
      Array.blit st.st_cells 0 bigger 0 n;
      st.st_cells <- bigger
    end;
    st.st_cells.(n) <- c;
    st.st_count <- n + 1;
    Imap.replace st.st_index key n;
    c
  end

let site_iter (f : int -> Instr.stmt_id -> 'a -> unit) (st : 'a site_table) :
    unit =
  Imap.iter
    (fun key i -> f (Imap.pack_hi key) (Imap.pack_lo key) st.st_cells.(i))
    st.st_index

(* Rebind call site [(caller, s)]'s cell to [(caller, s')]. *)
let site_move (st : 'a site_table) ~(caller : int) (s : Instr.stmt_id)
    (s' : Instr.stmt_id) : unit =
  let i = Imap.find st.st_index (Imap.pack caller s) in
  if i >= 0 then begin
    Imap.remove st.st_index (Imap.pack caller s);
    Imap.replace st.st_index (Imap.pack caller s') i
  end

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

(* The successor dedup key of the copy edge [src -> dst].  Node ids stay
   far below 2^31. *)
let[@inline] pair (src : int) (dst : int) : int = (src lsl 31) lor dst

(* [succ_set] holds [pair n d] exactly for the destinations [d] listed in
   [succs.(n)], so an edge is accepted iff its representative pair is new. *)
let add_edge (t : t) ?(filter : Types.ty option) (src : int) (dst : int) : unit =
  let rs = find t src and rd = find t dst in
  if rs <> rd && Iset.add t.succ_set (pair rs rd) then begin
    incr t.obs_edges;
    t.succs.(rs) <- (rd, filter) :: t.succs.(rs);
    t.deg.(rs) <- t.deg.(rs) + 1;
    if not (Bits.is_empty t.pts.(rs)) then
      match filter with
      | None -> propagate_into t ~src_bits:t.pts.(rs) ~rd ~lcd_src:(Some rs)
      | Some ty -> propagate_filtered t ~src_bits:t.pts.(rs) ~ty ~rd
  end

let add_load (t : t) ~(base : int) ~(field : int) ~(dst : int) : unit =
  let rb = find t base in
  t.loads.(rb) <- (field, dst) :: t.loads.(rb);
  t.deg.(rb) <- t.deg.(rb) + 1;
  Bits.iter (fun o -> add_edge t (node t (kfield field o)) dst) t.pts.(rb)

let add_store (t : t) ~(base : int) ~(field : int) ~(src : int) : unit =
  let rb = find t base in
  t.stores.(rb) <- (field, src) :: t.stores.(rb);
  t.deg.(rb) <- t.deg.(rb) + 1;
  Bits.iter (fun o -> add_edge t src (node t (kfield field o))) t.pts.(rb)

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
    List.iter
      (fun (d, _) ->
        Iset.remove t.succ_set (pair c d);
        ignore (Iset.add t.succ_set (pair r d)))
      t.succs.(c);
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
     so first-writer-wins is exact.  [rekey_sites] moves the sites of the
     objects a re-lowered method's contexts own. *)
  if o >= Array.length t.obj_mc then begin
    let cap = max 64 (Array.length t.obj_mc) in
    let bigger = Array.make (max (2 * cap) (o + 1)) (-1) in
    Array.blit t.obj_mc 0 bigger 0 (Array.length t.obj_mc);
    t.obj_mc <- bigger
  end;
  if t.obj_mc.(o) < 0 then t.obj_mc.(o) <- mc;
  o

(* Is class name [cid] a container class or a subclass of one?  Once
   per class per solve. *)
let is_container (t : t) (cid : int) : bool =
  if cid >= Array.length t.container then begin
    let bigger = Array.make (max 64 (2 * cid)) (-1) in
    Array.blit t.container 0 bigger 0 (Array.length t.container);
    t.container <- bigger
  end;
  if t.container.(cid) < 0 then begin
    let c = t.name_of.(cid) in
    let yes =
      List.exists
        (fun sup ->
          match Program.find_class t.p sup with
          | Some ci -> ci.Program.c_is_container
          | None -> false)
        (c :: Program.superclasses t.p c)
    in
    t.container.(cid) <- Bool.to_int yes
  end;
  t.container.(cid) = 1

(* The name id of the class a virtual call on object [o] dispatches on,
   -1 when it has none. *)
let obj_class (t : t) (o : int) : int =
  if o >= Array.length t.obj_class then begin
    let bigger = Array.make (max 64 (2 * o)) (-2) in
    Array.blit t.obj_class 0 bigger 0 (Array.length t.obj_class);
    t.obj_class <- bigger
  end;
  if t.obj_class.(o) = -2 then
    t.obj_class.(o) <-
      (match Context.dispatch_class (Context.obj t.ctxs o).Context.oi_cls with
      | Some c -> name_id t c
      | None -> -1);
  t.obj_class.(o)

(* The callee context code (see [intern_mctx]) of a call dispatched on
   [recv_obj], whose dispatch class is [cid]. *)
let callee_ctx (t : t) ~(recv_obj : int) ~(cid : int) : int =
  if
    t.opts.obj_sens_containers && is_container t cid
    && 1 + Context.ctx_depth t.ctxs (Context.obj t.ctxs recv_obj).Context.oi_ctx
       <= t.opts.max_ctx_depth
  then recv_obj + 1
  else 0

let intr_id (t : t) (mq : Instr.method_qname) : int =
  match Hashtbl.find_opt t.intr_intern mq with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.intr_intern in
    Hashtbl.replace t.intr_intern mq id;
    id

let target (t : t) (m : Instr.meth) : target =
  let mq = m.Instr.m_qname in
  { tg_meth = m;
    tg_mid = meth_id t mq;
    tg_intr =
      (match m.Instr.m_body with
      | Instr.Intrinsic _ -> intr_id t mq
      | Instr.Body _ | Instr.Abstract -> -1) }

(* The target of dispatch [d] on an object of class [cid], resolved once
   per (class, callee) per solve: [i + 1] for [t.target_of.(i)], 0 for
   none. *)
let dispatch_target (t : t) (d : dispatch) ~(cid : int) : int =
  let key =
    match d.d_kind with
    | Instr.Virtual _ -> Imap.pack (cid + 1) d.d_callee
    | Instr.Special _ | Instr.Static _ -> Imap.pack 0 d.d_callee
  in
  let v = Imap.find t.targets key in
  if v >= 0 then v
  else begin
    let resolved =
      match d.d_kind with
      | Instr.Virtual name -> Program.dispatch t.p t.name_of.(cid) name
      | Instr.Special mq -> Program.find_method t.p mq
      | Instr.Static _ -> None
    in
    let v =
      match resolved with
      | None -> 0
      | Some m ->
        let tg = target t m in
        let n = t.num_targets in
        if n = Array.length t.target_of then begin
          let bigger = Array.make (max 16 (2 * n)) tg in
          Array.blit t.target_of 0 bigger 0 n;
          t.target_of <- bigger
        end;
        t.target_of.(n) <- tg;
        t.num_targets <- n + 1;
        n + 1
    in
    Imap.replace t.targets key v;
    v
  end

(* Call-edge dedup: a bitset over callee mctx ids per call site.  True
   when the edge is new. *)
let record_call_edge (t : t) ~(caller : int) ~(stmt : Instr.stmt_id)
    ~(callee : int) : bool =
  let cell =
    site_cell t.call_edges (Imap.pack caller stmt) (fun () ->
        { cs_seen = Bits.create ~capacity:64 (); cs_list = [] })
  in
  Bits.add cell.cs_seen callee
  && begin
    cell.cs_list <- callee :: cell.cs_list;
    true
  end

(* True when the edge is new. *)
let record_intrinsic_edge (t : t) ~(caller : int) ~(stmt : Instr.stmt_id)
    (callee : target) : bool =
  let cell =
    site_cell t.intrinsic_edges (Imap.pack caller stmt) (fun () ->
        { is_seen = Bits.create ~capacity:8 (); is_list = [] })
  in
  Bits.add cell.is_seen callee.tg_intr
  && begin
    cell.is_list <- callee.tg_meth.Instr.m_qname :: cell.is_list;
    true
  end

(* The method of a context, looked up by name: only on paths that run
   once per context or per new call edge. *)
let meth_of (t : t) (mc : int) : Instr.meth =
  Program.find_method_exn t.p t.mctxs.(mc).mi_mq

let rec make_reachable (t : t) (mc : int) : unit =
  if not t.processed.(mc) then begin
    t.processed.(mc) <- true;
    let m = meth_of t mc in
    match m.Instr.m_body with
    | Instr.Intrinsic _ | Instr.Abstract -> ()
    | Instr.Body _ ->
      let var v = node t (kvar mc v) in
      let static c f = node t (kstatic (name_id t c) (name_id t f)) in
      let load ~base ~field ~dst =
        add_load t ~base ~field:(name_id t field) ~dst
      in
      let store ~base ~field ~src =
        add_store t ~base ~field:(name_id t field) ~src
      in
      Instr.iter_instrs m (fun _ i ->
          let site = i.Instr.i_id in
          match i.Instr.i_kind with
          | Instr.Const (x, Types.Cstr _) when is_ref_var m x ->
            add_obj t (var x) (alloc t mc ~site ~cls:Context.Astring)
          | Instr.Const _ -> ()
          (* Concat results are fresh strings; see the matching case in the
             reference solver above for why omitting this is a soundness
             hole. *)
          | Instr.Binop (x, Types.Concat, _, _) when is_ref_var m x ->
            add_obj t (var x) (alloc t mc ~site ~cls:Context.Astring)
          | Instr.New (x, c) ->
            add_obj t (var x) (alloc t mc ~site ~cls:(Context.Aclass c))
          | Instr.New_array (x, elem, _) ->
            add_obj t (var x) (alloc t mc ~site ~cls:(Context.Aarray elem))
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
            add_edge t (static c f) (var x)
          | Instr.Static_load _ -> ()
          | Instr.Static_store (c, f, y) when is_ref_var m y ->
            add_edge t (var y) (static c f)
          | Instr.Static_store _ -> ()
          | Instr.Call { lhs; kind; args } -> process_call t mc m i lhs kind args
          | Instr.Binop _ | Instr.Unop _ | Instr.Instance_of _
          | Instr.Array_length _ | Instr.Nop -> ());
      Instr.iter_terms m (fun _ term ->
          match term.Instr.t_kind with
          | Instr.Return (Some v) when is_ref_var m v ->
            add_edge t (var v) (node t (kret mc))
          | Instr.Return _ | Instr.Goto _ | Instr.If _ | Instr.Throw _ -> ())
  end

and process_call (t : t) (mc : int) (m : Instr.meth) (i : Instr.instr)
    (lhs : Instr.var option) (kind : Instr.call_kind) (args : Instr.var list) :
    unit =
  match kind with
  | Instr.Static mq ->
    t.call_sites.(mc) <-
      { d_caller = mc; d_stmt = i.Instr.i_id; d_kind = kind;
        d_callee = meth_id t mq; d_args = args; d_lhs = lhs }
      :: t.call_sites.(mc);
    wire_call t ~caller:mc ~stmt:i.Instr.i_id
      (target t (Program.find_method_exn t.p mq))
      ~callee_ctx:0 ~recv_obj:(-1) ~lhs ~args
  | Instr.Special _ | Instr.Virtual _ -> (
    (* dispatch (or context selection, for Special) driven by the
       receiver: the record sits at the receiver's representative and is
       resolved against whatever it already points to *)
    match args with
    | recv :: _ when is_ref_var m recv ->
      let d =
        { d_caller = mc; d_stmt = i.Instr.i_id; d_kind = kind;
          d_callee =
            (match kind with
            | Instr.Virtual name -> name_id t name
            | Instr.Special mq | Instr.Static mq -> meth_id t mq);
          d_args = args; d_lhs = lhs }
      in
      t.call_sites.(mc) <- d :: t.call_sites.(mc);
      let rnode = find t (node t (kvar mc recv)) in
      t.dispatches.(rnode) <- d :: t.dispatches.(rnode);
      t.deg.(rnode) <- t.deg.(rnode) + 1;
      Bits.iter (fun o -> process_dispatch t d o) t.pts.(rnode)
    | _ -> ())

(* One dispatch event: receiver object [recv_obj] reached call [d].
   Allocation-free unless it wires a new call edge. *)
and process_dispatch (t : t) (d : dispatch) (recv_obj : int) : unit =
  let cid = obj_class t recv_obj in
  if cid >= 0 then begin
    let slot = dispatch_target t d ~cid in
    if slot > 0 then
      wire_call t ~caller:d.d_caller ~stmt:d.d_stmt t.target_of.(slot - 1)
        ~callee_ctx:(callee_ctx t ~recv_obj ~cid)
        ~recv_obj ~lhs:d.d_lhs ~args:d.d_args
  end

(* Wire a call of [callee] in context code [callee_ctx]; a
   dispatched call passes its receiver object, a static one -1.  A new
   call edge wires the arguments and the return value;
   a repeated one only passes the receiver. *)
and wire_call (t : t) ~(caller : int) ~(stmt : Instr.stmt_id)
    (callee : target) ~(callee_ctx : int) ~(recv_obj : int)
    ~(lhs : Instr.var option) ~(args : Instr.var list) : unit =
  let cm = callee.tg_meth in
  match cm.Instr.m_body with
  | Instr.Intrinsic intr -> (
    if record_intrinsic_edge t ~caller ~stmt callee then
      match (Instr.intrinsic_allocates intr, lhs) with
      | Some _cls, Some x when is_ref_var (meth_of t caller) x ->
        let o = alloc t caller ~site:stmt ~cls:Context.Astring in
        add_obj t (node t (kvar caller x)) o
      | _ -> ())
  | Instr.Abstract -> ()
  | Instr.Body _ ->
    let cmc = intern_mctx t ~mid:callee.tg_mid cm.Instr.m_qname callee_ctx in
    let fresh = record_call_edge t ~caller ~stmt ~callee:cmc in
    make_reachable t cmc;
    (* Receiver: flows as a single object, keeping obj-sensitivity sharp. *)
    (match cm.Instr.m_params with
    | this_param :: _ when recv_obj >= 0 ->
      add_obj t (node t (kvar cmc this_param)) recv_obj
    | _ -> ());
    if fresh then begin
      let caller_meth = meth_of t caller in
      (* Non-receiver arguments and the return value. *)
      let rec wire_args ps as_ first =
        match (ps, as_) with
        | [], _ | _, [] -> ()
        | p :: ps', a :: as_' ->
          if not (first && recv_obj >= 0) then begin
            if is_ref_var cm p && is_ref_var caller_meth a then
              add_edge t (node t (kvar caller a)) (node t (kvar cmc p))
          end;
          wire_args ps' as_' false
      in
      wire_args cm.Instr.m_params args true;
      match lhs with
      | Some x
        when is_ref_var caller_meth x && Types.is_reference cm.Instr.m_ret_ty ->
        add_edge t (node t (kret cmc)) (node t (kvar caller x))
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
            Bits.iter (fun o -> add_edge t (node t (kfield field o)) dst) d)
          t.loads.(n);
        List.iter
          (fun (field, src) ->
            Bits.iter (fun o -> add_edge t src (node t (kfield field o))) d)
          t.stores.(n);
        List.iter
          (fun disp -> Bits.iter (fun o -> process_dispatch t disp o) d)
          t.dispatches.(n);
        Bits.clear t.spare
      end
    end
  done

(* Solver scratch lives only while the solve runs.  Once the worklist is
   empty every delta is drained, and no query reads [delta], [succ_set],
   [lcd_done] or the solve memos.  Each node gets a fresh delta row
   with no words (its record only): [Bits.add] writes in place, so rows
   are never shared.  The answer rows ([pts]) stay dense, trimmed to
   their last non-zero word. *)
let end_solve (t : t) : unit =
  for n = 0 to t.num_nodes - 1 do
    t.delta.(n) <- Bits.create ~capacity:0 ();
    Bits.trim t.pts.(n)
  done;
  t.spare <- Bits.create ~capacity:0 ();
  Iset.reset t.succ_set;
  Hashtbl.reset t.lcd_done;
  Imap.reset t.targets;
  t.target_of <- [||];
  t.num_targets <- 0;
  t.container <- [||];
  t.obj_class <- [||]

(* --- entry points --------------------------------------------------- *)

(* Start the solve from the entry method: reach the entry and seed
   main's [String[]] parameter with a synthetic array of synthetic
   strings. *)
let seed_entry (t : t) : unit =
  let entry_mq = Program.entry_method t.p in
  match Program.find_method t.p entry_mq with
  | None -> ()
  | Some main -> (
    let emc = intern_mctx t ~mid:(meth_id t entry_mq) entry_mq 0 in
    make_reachable t emc;
    match main.Instr.m_params with
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
      add_obj t (node t (kvar emc pv)) arr;
      add_obj t (node t (kfield (name_id t elem_field) arr)) str
    | _ -> ())

let analyze ?(opts = default_opts) (p : Program.t) : result =
  Slice_obs.span "pta" (fun () ->
  let t =
    { p;
      opts;
      ctxs = Context.create ();
      mctxs =
        Array.make 64
          { mi_mq = { Instr.mq_class = ""; mq_name = "" };
            mi_ctx = Context.Cnone };
      num_mctxs = 0;
      mctx_index = Imap.create ~capacity:64 ();
      meth_ids = Hashtbl.create 64;
      processed = Array.make 64 false;
      call_sites = Array.make 64 [];
      obj_mc = Array.make 64 (-1);
      names = Hashtbl.create 64;
      name_of = [||];
      node_key = Array.make 256 0;
      num_nodes = 0;
      node_index = Imap.create ~capacity:256 ();
      pts = Array.make 256 dummy_bits;
      delta = Array.make 256 dummy_bits;
      parent = Array.make 256 0;
      rank = Array.make 256 0;
      succs = Array.make 256 [];
      succ_set = Iset.create ~capacity:256 ();
      loads = Array.make 256 [];
      stores = Array.make 256 [];
      dispatches = Array.make 256 [];
      deg = Array.make 256 0;
      call_edges = site_table ();
      intr_intern = Hashtbl.create 16;
      intrinsic_edges = site_table ();
      targets = Imap.create ();
      target_of = [||];
      num_targets = 0;
      container = [||];
      obj_class = [||];
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
  seed_entry t;
  Slice_obs.span "pta.solve" (fun () ->
      solve t;
      end_solve t);
  t)

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

(* A variable's points-to representative: the node its set lives at, -1
   when the variable has no node.  Variables with one representative
   share one set, so the SDG's read index keys reads by it. *)
let pts_rep_of_var (t : result) ~(mctx : int) (v : Instr.var) : int =
  let id = Imap.find t.node_index (kvar mctx v) in
  if id >= 0 then find t id else -1

let pts_of_var (t : result) ~(mctx : int) (v : Instr.var) : ObjSet.t =
  let r = pts_rep_of_var t ~mctx v in
  if r < 0 then ObjSet.empty
  else Bits.fold (fun o acc -> ObjSet.add o acc) t.pts.(r) ObjSet.empty

(* Allocation-free variant for the SDG's heap-indexing pass and the
   mod-ref direct pass. *)
let pts_iter_var (t : result) ~(mctx : int) (v : Instr.var) (f : int -> unit) :
    unit =
  let r = pts_rep_of_var t ~mctx v in
  if r >= 0 then Bits.iter f t.pts.(r)

let pts_iter_rep (t : result) (r : int) (f : int -> unit) : unit =
  Bits.iter f t.pts.(r)

let pts_mem_rep (t : result) (r : int) (o : int) : bool = Bits.mem t.pts.(r) o

(* Context-insensitive projection: union over all contexts of the method. *)
let pts_of_var_ci (t : result) (mq : Instr.method_qname) (v : Instr.var) :
    ObjSet.t =
  List.fold_left
    (fun acc mc -> ObjSet.union acc (pts_of_var t ~mctx:mc v))
    ObjSet.empty (mctxs_of_method t mq)

let call_targets (t : result) ~(mctx : int) ~(stmt : Instr.stmt_id) : int list =
  let i = Imap.find t.call_edges.st_index (Imap.pack mctx stmt) in
  if i >= 0 then t.call_edges.st_cells.(i).cs_list else []

let intrinsic_targets (t : result) ~(mctx : int) ~(stmt : Instr.stmt_id) :
    Instr.method_qname list =
  let i = Imap.find t.intrinsic_edges.st_index (Imap.pack mctx stmt) in
  if i >= 0 then t.intrinsic_edges.st_cells.(i).is_list else []

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
  let n = ref 0 in
  for i = 0 to t.num_mctxs - 1 do
    if t.processed.(i) then incr n
  done;
  !n

let num_objects (t : result) : int = Context.num_objs t.ctxs

(* --- resident set accounting ---------------------------------------- *)

(* Words of one bitset row: its record (header + field), then its array
   (header + capacity) unless it is the static empty array. *)
let row_words (b : Bits.t) : int =
  let w = Bits.words b in
  if w = 0 then 2 else 3 + w

(* Bytes of the points-to set state: the [pts] and [delta] row arrays,
   every node's two rows, the shared placeholder row of unused slots and
   the successor dedup table.  Arithmetic over capacities, so the same
   program gives the same figure in every process. *)
let set_bytes (t : result) : int =
  let rows = ref 0 in
  for n = 0 to t.num_nodes - 1 do
    rows := !rows + row_words t.pts.(n) + row_words t.delta.(n)
  done;
  let spare_slots = Array.length t.pts > t.num_nodes in
  8
  * (2 + Array.length t.pts + Array.length t.delta + !rows
    + (if spare_slots then row_words dummy_bits else 0)
    + 4 + Iset.words t.succ_set)

let set_repr (t : result) : Obj.t = Obj.repr (t.pts, t.delta, t.succ_set)

let num_nodes (t : result) : int = t.num_nodes

let scratch_words (t : result) : int * int =
  let d = ref 0 in
  for n = 0 to t.num_nodes - 1 do
    d := !d + Bits.words t.delta.(n)
  done;
  (!d, Iset.words t.succ_set)

let delta_row (t : result) (n : int) : Bits.t = t.delta.(n)

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
    ~desc_of:(node_desc t)
    ~objs_of:(fun i -> Bits.elements t.pts.(find t i))

let dump_call_graph ?site (t : result) : (string * string list) list =
  Pta_dump.call_graph ?site t.ctxs
    ~mctx_of:(fun mc -> mctx_info t mc)
    ~calls:(fun f ->
      site_iter (fun caller stmt cell -> f caller stmt cell.cs_list)
        t.call_edges)
    ~intrinsics:(fun f ->
      site_iter (fun caller stmt cell -> f caller stmt cell.is_list)
        t.intrinsic_edges)

let pts_dump (t : result) = dump_pts t
let call_graph_dump (t : result) = dump_call_graph t

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

(* Move every statement-id-keyed structure of a SOLVED analysis onto
   re-lowered methods' fresh ids.  Sound only when each old and new body
   have equal [method_summary_sites] summaries and [remap] is the
   positional zip of their site lists.  Every moved site is a statement
   of a [changed] method, so the work is bounded by their contexts: a
   context's [call_sites] list each of its calls, from which the call-graph
   cells and dispatch record are found (the record at its receiver's
   representative), and the objects the contexts own ([obj_mc]) are the
   allocation sites that move.
   Statement ids are globally unique and never reused, so the old and new
   key spaces cannot collide. *)
let rekey_sites (t : result) ~(changed : Instr.method_qname list)
    (remap : Instr.stmt_id -> Instr.stmt_id option) : unit =
  let fresh s =
    match remap s with Some s' when s' <> s -> Some s' | Some _ | None -> None
  in
  let rekey_dispatch d =
    match fresh d.d_stmt with Some s' -> { d with d_stmt = s' } | None -> d
  in
  let moved_dispatch d = fresh d.d_stmt <> None in
  let mcs = List.concat_map (mctxs_of_method t) changed in
  let owners = Bits.create () in
  List.iter
    (fun mc ->
      ignore (Bits.add owners mc);
      let calls = t.call_sites.(mc) in
      List.iter
        (fun d ->
          match fresh d.d_stmt with
          | None -> ()
          | Some s' -> (
            let s = d.d_stmt in
            site_move t.call_edges ~caller:mc s s';
            site_move t.intrinsic_edges ~caller:mc s s';
            match (d.d_kind, d.d_args) with
            | (Instr.Special _ | Instr.Virtual _), recv :: _ ->
              let r = pts_rep_of_var t ~mctx:mc recv in
              if r >= 0 && List.exists moved_dispatch t.dispatches.(r) then
                t.dispatches.(r) <- List.map rekey_dispatch t.dispatches.(r)
            | _ -> ()))
        calls;
      (* Move the list itself too, so a later patch of the same method
         finds its calls under their current ids. *)
      if List.exists moved_dispatch calls then
        t.call_sites.(mc) <- List.map rekey_dispatch calls)
    mcs;
  for o = 0 to min (Context.num_objs t.ctxs) (Array.length t.obj_mc) - 1 do
    let mc = t.obj_mc.(o) in
    if mc >= 0 && Bits.mem owners mc then
      match fresh (Context.obj t.ctxs o).Context.oi_site with
      | Some s' -> Context.move_site t.ctxs o s'
      | None -> ()
  done

(* Location-keyed parity dumps: canonical across a patched analysis and
   a fresh rebuild, whose statement NUMBERINGS differ but whose source
   locations coincide.  [site_label] must be injective enough to keep
   the dump deterministic (the engine supplies "file:line:col", with
   negative synthetic sites labelled verbatim). *)
let pts_dump_loc ~(site_label : int -> string) (t : result) =
  dump_pts ~site:site_label t

let call_graph_dump_loc ~(site_label : int -> string) (t : result) =
  dump_call_graph ~site:site_label t
