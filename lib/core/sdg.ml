(* The dependence-graph representation used by both slicers: a variant of
   the system dependence graph [11] in which

   - nodes are statements qualified by the points-to analysis context of
     their method (so container methods cloned by receiver object appear
     once per clone, as in WALA's CGNode-based SDG);
   - every dependence edge is classified, so that thin slicing can follow
     only producer edges (paper, section 3) while traditional slicing also
     follows base-pointer, index, and control edges;
   - heap dependences are direct store-to-load edges computed from the
     points-to result (the scalable context-insensitive representation of
     section 5.2).  The heap-parameter representation for the
     context-sensitive algorithm (section 5.3) lives in [Tabulation].

   Edges are stored backwards: [deps g n] lists the nodes n depends on,
   which is the direction slicing traverses. *)

open Slice_ir
open Slice_pta

type edge_kind =
  | Producer_local      (* SSA def-use, value position *)
  | Producer_heap       (* field/array/static store -> may-aliased load *)
  | Param_in            (* formal  -> actual argument definition *)
  | Return_value        (* call    -> return statement of callee *)
  | Base_pointer        (* def-use into a dereferenced base pointer *)
  | Index               (* def-use into an array index *)
  (* call statement -> its actual-in nodes.  Not value flow: a Weiser-style
     (executable) slice containing a call must also compute the call's
     arguments, even those that cannot affect the seed's value.  Thin
     slicing's relevance notion drops exactly this closure. *)
  | Call_actual
  | Control             (* control dependence *)

(* Telemetry: one counter per edge kind (the Figure 2/3 classification),
   node interning, heap-pair pruning effectiveness, and the CSR
   compaction phase. *)
let c_nodes = Slice_obs.counter "sdg.nodes"
let c_edges = Slice_obs.counter "sdg.edges"
let c_heap_considered = Slice_obs.counter "sdg.heap_pairs_considered"
let c_heap_emitted = Slice_obs.counter "sdg.heap_pairs_emitted"
let c_csr_nodes = Slice_obs.counter "sdg.csr_nodes"
let c_csr_edges = Slice_obs.counter "sdg.csr_edges"
let g_csr_bytes = Slice_obs.gauge "sdg.csr_bytes"
let g_loc_bytes = Slice_obs.gauge "sdg.loc_bytes"

let is_producer = function
  | Producer_local | Producer_heap | Param_in | Return_value -> true
  | Base_pointer | Index | Call_actual | Control -> false

let edge_kind_to_string = function
  | Producer_local -> "producer-local"
  | Producer_heap -> "producer-heap"
  | Param_in -> "param-in"
  | Return_value -> "return-value"
  | Base_pointer -> "base-pointer"
  | Index -> "index"
  | Call_actual -> "call-actual"
  | Control -> "control"

let all_edge_kinds =
  [ Producer_local; Producer_heap; Param_in; Return_value; Base_pointer;
    Index; Call_actual; Control ]

(* Edge kinds as small int tags, for the packed CSR representation. *)
let edge_kind_tag = function
  | Producer_local -> 0
  | Producer_heap -> 1
  | Param_in -> 2
  | Return_value -> 3
  | Base_pointer -> 4
  | Index -> 5
  | Call_actual -> 6
  | Control -> 7

let edge_kind_of_tag_table =
  [| Producer_local; Producer_heap; Param_in; Return_value; Base_pointer;
     Index; Call_actual; Control |]

let edge_kind_of_tag (t : int) : edge_kind = edge_kind_of_tag_table.(t)

(* "sdg.edge.<kind>" counters, interned once. *)
let edge_counter : edge_kind -> Slice_obs.counter =
  let tbl =
    List.map
      (fun k -> (k, Slice_obs.counter ("sdg.edge." ^ edge_kind_to_string k)))
      all_edge_kinds
  in
  fun k -> List.assq k tbl

type node_desc =
  | Stmt of int * Instr.stmt_id          (* method context, statement *)
  | Formal of int * int                  (* method context, parameter index *)
  (* The i-th actual argument of a call statement.  Belongs to the call
     statement for display purposes, so that a call through which a value
     flows appears in the slice (like line 17 of the paper's Figure 1). *)
  | Actual_in of int * Instr.stmt_id * int

type node = int

(* The adjacency: compressed sparse rows, written once at the end of
   [build].  For each direction, node [n]'s edges live at indices
   [off.(n) .. off.(n+1)-1] of the flat [dst]/[kind] arrays; [kind]
   holds [edge_kind_tag]s.  Each row lists its edges in reverse order of
   first emission (see [csr_of_log]). *)
type csr = {
  deps_off : int array;        (* length num_nodes + 1 *)
  deps_dst : int array;        (* length num backward edges *)
  deps_kind : int array;
  uses_off : int array;
  uses_dst : int array;
  uses_kind : int array;
}

(* Heap access index built during pass 1 and RETAINED on the graph: an
   incremental patch re-indexes only the changed methods' accesses and
   wires them against this, instead of re-scanning the program. *)
type heap_index = {
  field_writes : (int * string, (node * Instr.stmt_id) list ref) Hashtbl.t;
  field_reads : (int * string, (node * Instr.stmt_id) list ref) Hashtbl.t;
  static_writes : (Types.class_name * Types.field_name, node list ref) Hashtbl.t;
  static_reads : (Types.class_name * Types.field_name, node list ref) Hashtbl.t;
  len_writes : (int, node list ref) Hashtbl.t;   (* abstract array -> new[] *)
  len_reads : (int, node list ref) Hashtbl.t;
}

(* Dense per-node location columns, derived from the statement table in
   one pass by [set_stmt_table] — the only place [stmt_table] is
   assigned, so the columns can never describe an older table (the
   Methods update tier relocates surviving statements, then patches).

   A line key numbers a (file, line) pair densely: [lc_base.(rank) +
   line], where [rank] is the file's position in [lc_files] (sorted by
   [String.compare]) and each file's span [lc_base.(rank + 1) -
   lc_base.(rank)] is its own largest line + 1, so the key space grows
   with the source, not with files × the longest file.  Key order is
   therefore (file, line) order, and a single-file program's key is its
   line.  [lc_key.(n)] packs the node's line key
   with its countability: [(key lsl 1) lor 1] for a countable node,
   [key lsl 1] for a located but uncountable one (phis, gotos), -1 for
   a node without a location. *)
type loc_columns = {
  lc_loc : Loc.t array;     (* node -> location; [Loc.none] if absent *)
  lc_key : int array;       (* node -> packed line key, see above *)
  lc_files : string array;  (* file rank -> file name *)
  lc_base : int array;      (* file rank -> first key; one extra entry,
                               the key count *)
}

type t = {
  p : Program.t;
  pta : Andersen.result;
  mutable stmt_table : (Instr.stmt_id, Program.stmt_info) Hashtbl.t;
      (* rebuilt by [patch]: re-lowered bodies carry fresh statement ids *)
  mutable locs : loc_columns;  (* refreshed with every [stmt_table] *)
  mutable descs : node_desc array;
  mutable num_nodes : int;
  intern : (node_desc, node) Hashtbl.t;
  csr : csr;
  hx : heap_index;             (* retained for incremental patches *)
  ar : Arena.t;                (* the statement store pass 1 reads; a
                                  patch re-lowers the changed methods
                                  into it *)
  (* Incremental patch state.  A patched graph keeps its CSR for
     untouched rows and OVERLAYS the rows the patch rewrote; row lookup
     checks the overlay first (one extra branch, only when [patched]).
     Dead nodes (statements of re-lowered method bodies) keep their ids
     — rows emptied, descs retired from the intern — so alive node ids
     are stable across a patch and resident scratch/provenance buffers
     stay valid. *)
  mutable ov_deps : (int array * int array) option array;  (* (dst, kind tags) *)
  mutable ov_uses : (int array * int array) option array;
  mutable dead : bool array;
  mutable dead_count : int;
  mutable generation : int;    (* bumped per committed patch *)
  mutable patched : bool;
}

let program (g : t) = g.p
let pta (g : t) = g.pta
let stmt_table (g : t) = g.stmt_table

let node_desc (g : t) (n : node) : node_desc = g.descs.(n)

let num_nodes (g : t) = g.num_nodes

let intern (g : t) (d : node_desc) : node =
  match Hashtbl.find_opt g.intern d with
  | Some n -> n
  | None ->
    let n = g.num_nodes in
    if n = Array.length g.descs then begin
      let grow a default =
        let b = Array.make (2 * n) default in
        Array.blit a 0 b 0 n;
        b
      in
      g.descs <- grow g.descs (Formal (-1, -1));
      (* patch state exists only once a graph has been patched *)
      if Array.length g.ov_deps > 0 then begin
        g.ov_deps <- grow g.ov_deps None;
        g.ov_uses <- grow g.ov_uses None
      end;
      if Array.length g.dead > 0 then g.dead <- grow g.dead false
    end;
    g.descs.(n) <- d;
    g.num_nodes <- n + 1;
    Hashtbl.replace g.intern d n;
    Slice_obs.bump c_nodes;
    n

let find_node (g : t) (d : node_desc) : node option = Hashtbl.find_opt g.intern d

(* ------------------------------------------------------------------ *)
(* The build's edge log, written into CSR in one pass                  *)
(* ------------------------------------------------------------------ *)

(* Append-only [(from, on, kind tag)] triples in emission order.  Self
   edges are never logged; repeats are, and [csr_of_log] drops them. *)
type edge_log = { mutable ev : int array; mutable len : int }

let log_edge (l : edge_log) ~(from : node) ~(on : node) (kind : edge_kind) :
    unit =
  if from <> on then begin
    if l.len + 3 > Array.length l.ev then begin
      let b = Array.make (2 * Array.length l.ev) 0 in
      Array.blit l.ev 0 b 0 l.len;
      l.ev <- b
    end;
    l.ev.(l.len) <- from;
    l.ev.(l.len + 1) <- on;
    l.ev.(l.len + 2) <- edge_kind_tag kind;
    l.len <- l.len + 3
  end

(* The rows of a graph under construction: none yet. *)
let no_csr =
  { deps_off = [| 0 |]; deps_dst = [||]; deps_kind = [||];
    uses_off = [| 0 |]; uses_dst = [||]; uses_kind = [||] }

let offsets_of_counts (cnt : int array) : int array =
  let off = Array.make (Array.length cnt + 1) 0 in
  Array.iteri (fun i c -> off.(i + 1) <- off.(i) + c) cnt;
  off

(* The CSR of a logged graph on [n] nodes.  The first emission of each
   (from, on, kind) triple wins: with the log bucketed by source, a
   node-indexed stamp ([stamp.(on) = from]) and a kind bitmask find the
   repeats, whose tag is cleared to -1.  The fill walks the log
   backwards, so every row of both directions lists its edges in reverse
   order of first emission.  Bumps the edge counters once per edge. *)
let csr_of_log (n : int) (l : edge_log) : csr =
  let ev = l.ev and m = l.len / 3 in
  let from e = ev.(3 * e) and on e = ev.((3 * e) + 1) in
  let tag e = ev.((3 * e) + 2) in
  let deps_cnt = Array.make n 0 and uses_cnt = Array.make n 0 in
  for e = 0 to m - 1 do
    deps_cnt.(from e) <- deps_cnt.(from e) + 1
  done;
  let start = offsets_of_counts deps_cnt in
  let by_from = Array.make (max 1 m) 0 and next = Array.sub start 0 n in
  for e = 0 to m - 1 do
    by_from.(next.(from e)) <- e;
    next.(from e) <- next.(from e) + 1
  done;
  let stamp = Array.make n (-1) and seen = Array.make n 0 in
  let kinds = Array.make (Array.length edge_kind_of_tag_table) 0 in
  Array.fill deps_cnt 0 n 0;
  for f = 0 to n - 1 do
    for i = start.(f) to start.(f + 1) - 1 do
      let e = by_from.(i) in
      let o = on e and t = tag e in
      if stamp.(o) <> f then begin
        stamp.(o) <- f;
        seen.(o) <- 0
      end;
      if seen.(o) land (1 lsl t) = 0 then begin
        seen.(o) <- seen.(o) lor (1 lsl t);
        deps_cnt.(f) <- deps_cnt.(f) + 1;
        uses_cnt.(o) <- uses_cnt.(o) + 1;
        kinds.(t) <- kinds.(t) + 1
      end
      else ev.((3 * e) + 2) <- -1
    done
  done;
  let deps_off = offsets_of_counts deps_cnt in
  let uses_off = offsets_of_counts uses_cnt in
  let edges = deps_off.(n) in
  let arr () = Array.make (max 1 edges) 0 in
  let deps_dst = arr () and deps_kind = arr () in
  let uses_dst = arr () and uses_kind = arr () in
  (* the count arrays become fill cursors *)
  Array.blit deps_off 0 deps_cnt 0 n;
  Array.blit uses_off 0 uses_cnt 0 n;
  for e = m - 1 downto 0 do
    let f = from e and o = on e and t = tag e in
    if t >= 0 then begin
      deps_dst.(deps_cnt.(f)) <- o;
      deps_kind.(deps_cnt.(f)) <- t;
      deps_cnt.(f) <- deps_cnt.(f) + 1;
      uses_dst.(uses_cnt.(o)) <- f;
      uses_kind.(uses_cnt.(o)) <- t;
      uses_cnt.(o) <- uses_cnt.(o) + 1
    end
  done;
  if edges > 0 then Slice_obs.add c_edges edges;
  Array.iteri
    (fun t c ->
      if c > 0 then Slice_obs.add (edge_counter (edge_kind_of_tag t)) c)
    kinds;
  { deps_off; deps_dst; deps_kind; uses_off; uses_dst; uses_kind }

(* A no-op, kept for callers that still time a freeze phase: [build]
   writes the final adjacency itself. *)
let freeze (_ : t) : unit = ()

(* Row iteration: the hot-path accessors, no allocation per edge.  On a
   patched graph, rows the patch rewrote (and rows of nodes interned by
   a patch) live in the overlay and are checked first. *)
let deps_iter (g : t) (n : node) (f : node -> edge_kind -> unit) : unit =
  match if g.patched then g.ov_deps.(n) else None with
  | Some (dst, kind) ->
    for i = 0 to Array.length dst - 1 do
      f (Array.unsafe_get dst i)
        (edge_kind_of_tag (Array.unsafe_get kind i))
    done
  | None ->
    let c = g.csr in
    for i = c.deps_off.(n) to c.deps_off.(n + 1) - 1 do
      f (Array.unsafe_get c.deps_dst i)
        (edge_kind_of_tag (Array.unsafe_get c.deps_kind i))
    done

let uses_iter (g : t) (n : node) (f : node -> edge_kind -> unit) : unit =
  match if g.patched then g.ov_uses.(n) else None with
  | Some (dst, kind) ->
    for i = 0 to Array.length dst - 1 do
      f (Array.unsafe_get dst i)
        (edge_kind_of_tag (Array.unsafe_get kind i))
    done
  | None ->
    let c = g.csr in
    for i = c.uses_off.(n) to c.uses_off.(n + 1) - 1 do
      f (Array.unsafe_get c.uses_dst i)
        (edge_kind_of_tag (Array.unsafe_get c.uses_kind i))
    done

let num_edges (g : t) : int =
  if not g.patched then g.csr.deps_off.(g.num_nodes)
  else begin
    let total = ref 0 in
    for n = 0 to g.num_nodes - 1 do
      deps_iter g n (fun _ _ -> incr total)
    done;
    !total
  end

(* List views of a row, in row order: a fresh list per call, so prefer
   the [_iter] forms on hot paths. *)
let row_list iter (g : t) (n : node) : (node * edge_kind) list =
  let acc = ref [] in
  iter g n (fun d k -> acc := (d, k) :: !acc);
  List.rev !acc

let deps (g : t) (n : node) = row_list deps_iter g n
let uses (g : t) (n : node) = row_list uses_iter g n

(* The source location of a node ([Loc.none] for formals). *)
let node_loc (g : t) (n : node) : Loc.t = g.locs.lc_loc.(n)

let node_stmt (g : t) (n : node) : Instr.stmt_id option =
  match g.descs.(n) with
  | Stmt (_, s) | Actual_in (_, s, _) -> Some s
  | Formal _ -> None

(* The dense (file, line) key of a countable node, -1 for any other. *)
let line_key (g : t) (n : node) : int =
  let k = g.locs.lc_key.(n) in
  if k >= 0 && k land 1 = 1 then k lsr 1 else -1

(* Statements a user would read: real instructions with a source location,
   excluding phis and compiler-internal statements. *)
let node_countable (g : t) (n : node) : bool = line_key g n >= 0

(* Line keys lie in [0, num_line_keys g). *)
let num_line_keys (g : t) : int =
  g.locs.lc_base.(Array.length g.locs.lc_files)

let site_countable (si : Program.stmt_info) : bool =
  match si.Program.s_site with
  | Program.Site_instr { Instr.i_kind = Instr.Phi _; _ } -> false
  | Program.Site_instr _ -> true
  | Program.Site_term { Instr.t_kind = Instr.Goto _; _ } -> false
  | Program.Site_term _ -> true

(* [f] memoized on the physical identity of its last argument: a file's
   locations share its name string, so a scan over nodes hashes a file
   name once per run of same-file nodes rather than once per node. *)
let memo_last (f : string -> 'a) : string -> 'a =
  let last = ref None in
  fun file ->
    match !last with
    | Some (file', v) when file' == file -> v
    | _ ->
      let v = f file in
      last := Some (file, v);
      v

(* Assign the statement table and rebuild the location columns over every
   node interned so far: two passes over the nodes, one statement-table
   lookup each. *)
let set_stmt_table (g : t) tbl : unit =
  g.stmt_table <- tbl;
  let n = g.num_nodes in
  let loc = Array.make n Loc.none and key = Array.make n (-1) in
  (* pass 1: locations, the countability bit, and the files and lines
     the keys must cover *)
  let files = Hashtbl.create 4 in
  let note_file =
    memo_last (fun f ->
        match Hashtbl.find_opt files f with
        | Some m -> m
        | None ->
          let m = ref 0 in
          Hashtbl.replace files f m;
          m)
  in
  for i = 0 to n - 1 do
    match g.descs.(i) with
    | Formal _ -> ()
    | (Stmt (_, s) | Actual_in (_, s, _)) as d -> (
      match Hashtbl.find_opt tbl s with
      | None -> ()
      | Some si ->
        let l = Program.stmt_loc si in
        if not (Loc.is_none l) then begin
          loc.(i) <- l;
          key.(i) <-
            (match d with Stmt _ when not (site_countable si) -> 0 | _ -> 1);
          let m = note_file l.Loc.file in
          if l.Loc.line > !m then m := l.Loc.line
        end)
  done;
  let lc_files =
    Array.of_list
      (List.sort String.compare (Hashtbl.fold (fun f _ a -> f :: a) files []))
  in
  (* each file's base: the prefix sum of the earlier files' spans *)
  let lc_base = Array.make (Array.length lc_files + 1) 0 in
  Array.iteri
    (fun r f ->
      let m = Hashtbl.find files f in
      lc_base.(r + 1) <- lc_base.(r) + !m + 1;
      m := lc_base.(r))
    lc_files;
  (* pass 2: the (file, line) key above the countability bit *)
  let base_of = memo_last (fun f -> !(Hashtbl.find files f)) in
  for i = 0 to n - 1 do
    if key.(i) >= 0 then
      let l = loc.(i) in
      key.(i) <- ((base_of l.Loc.file + l.Loc.line) lsl 1) lor key.(i)
  done;
  g.locs <- { lc_loc = loc; lc_key = key; lc_files; lc_base };
  (* two one-word-per-node columns, 8 bytes per word *)
  Slice_obs.max_gauge g_loc_bytes (float_of_int (8 * 2 * n))

let pp_node (g : t) ppf (n : node) : unit =
  match g.descs.(n) with
  | Formal (mc, i) ->
    let mq, _ = Andersen.mctx_info g.pta mc in
    Format.fprintf ppf "formal %d of %a" i Instr.pp_method_qname mq
  | Actual_in (_, s, i) ->
    Format.fprintf ppf "actual %d of %s" i (Pretty.stmt_to_string g.p g.stmt_table s)
  | Stmt (mc, s) ->
    let _, ctx = Andersen.mctx_info g.pta mc in
    Format.fprintf ppf "%s %a"
      (Pretty.stmt_to_string g.p g.stmt_table s)
      (Context.pp_ctx (Andersen.contexts g.pta))
      ctx

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let push tbl key v =
  let cell =
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace tbl key r;
      r
  in
  cell := v :: !cell

(* The per-method pass bodies are shared between [build] (every reachable
   method context) and [patch] (only re-lowered ones); [emit] appends to
   the edge log during a build and is the session emitter during a
   patch. *)

(* [from]'s return-value edges: one onto each value-returning terminator
   of callee context [cmc], read from the arena's terminator rows. *)
let return_value_edges (g : t)
    ~(emit : from:node -> on:node -> edge_kind -> unit) ~(from : node)
    (cmc : int) : unit =
  let cmq, _ = Andersen.mctx_info g.pta cmc in
  match Arena.method_id g.ar cmq with
  | None -> ()
  | Some cam ->
    let tlo, thi = Arena.term_span g.ar cam in
    for tx = tlo to thi - 1 do
      if Arena.term_is_value_return g.ar tx then
        emit ~from
          ~on:(intern g (Stmt (cmc, Arena.term_stmt g.ar tx)))
          Return_value
    done

(* Pass 1 body: intraprocedural edges + heap access indexing into [hx]
   (the graph's own index during a build, a fresh one during a patch so
   the new accesses are known for targeted re-wiring), over arena method
   [am].  The SSA def map and param index are int scratch arrays, use
   lists are walked as packed CSR spans without allocating, and
   heap-access dispatch reads a tag column. *)
let intra_pass_arena (g : t) (hx : heap_index)
    ~(emit : from:node -> on:node -> edge_kind -> unit) (mc : int) (am : int) :
    unit =
  let pta = g.pta and ar = g.ar in
  let nvars = Arena.num_vars ar am in
  let var_def = Array.make (max 1 nvars) (-1) in
  let var_param = Array.make (max 1 nvars) (-1) in
  let lo, hi = Arena.instr_span ar am in
  for ix = lo to hi - 1 do
    let d = Arena.instr_def ar ix in
    if d >= 0 then var_def.(d) <- Arena.instr_stmt ar ix
  done;
  for i = 0 to Arena.num_params ar am - 1 do
    var_param.(Arena.param_var ar am i) <- i
  done;
  let def_target (v : Instr.var) : node option =
    if v < 0 || v >= nvars then None
    else
      let s = var_def.(v) in
      if s >= 0 then Some (intern g (Stmt (mc, s)))
      else
        let idx = var_param.(v) in
        if idx >= 0 then Some (intern g (Formal (mc, idx))) else None
  in
  let use_edge (from : node) (v : Instr.var) (kind : edge_kind) : unit =
    match def_target v with
    | Some dep -> emit ~from ~on:dep kind
    | None -> ()
  in
  for ix = lo to hi - 1 do
    let s = Arena.instr_stmt ar ix in
    let n = intern g (Stmt (mc, s)) in
    let op = Arena.instr_op ar ix in
    (match op with
    | Arena.Op_call ->
      let intr = Andersen.intrinsic_targets pta ~mctx:mc ~stmt:s in
      let body_callees = Andersen.call_targets pta ~mctx:mc ~stmt:s in
      if intr <> [] then
        Arena.args_iter ar ix (fun a -> use_edge n a Producer_local);
      List.iter (return_value_edges g ~emit ~from:n) body_callees
    | _ ->
      Arena.uses_iter ar ix (fun v tag ->
          let kind =
            match tag with
            | 0 -> Producer_local
            | 1 -> Base_pointer
            | _ -> Index
          in
          use_edge n v kind));
    match op with
    | Arena.Op_store ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.field_writes (o, Arena.instr_sym ar ix) (n, s))
    | Arena.Op_load ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.field_reads (o, Arena.instr_sym ar ix) (n, s))
    | Arena.Op_array_store ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.field_writes (o, Andersen.elem_field) (n, s))
    | Arena.Op_array_load ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.field_reads (o, Andersen.elem_field) (n, s))
    | Arena.Op_new_array ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.len_writes o n)
    | Arena.Op_array_length ->
      Andersen.pts_iter_var pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
          push hx.len_reads o n)
    | Arena.Op_static_store ->
      push hx.static_writes (Arena.instr_sym ar ix, Arena.instr_sym2 ar ix) n
    | Arena.Op_static_load ->
      push hx.static_reads (Arena.instr_sym ar ix, Arena.instr_sym2 ar ix) n
    | Arena.Op_call | Arena.Op_other -> ()
  done;
  let tlo, thi = Arena.term_span ar am in
  for tx = tlo to thi - 1 do
    let n = intern g (Stmt (mc, Arena.term_stmt ar tx)) in
    Arena.term_uses_iter ar tx (fun v -> use_edge n v Producer_local)
  done

(* Pass 2 body: formal -> actual edges (parameter passing), for one
   method as the CALLER.  The callee side (the formal node) is signature
   stable, which is what lets a patch keep formal nodes alive. *)
let params_pass (g : t) ~(emit : from:node -> on:node -> edge_kind -> unit)
    (mc : int) (m : Instr.meth) : unit =
  let pta = g.pta in
  if Instr.has_body m then begin
    let def_stmt = Hashtbl.create 64 in
    let def_instr = Hashtbl.create 64 in
    Instr.iter_instrs m (fun _ j ->
        match Instr.def_of_instr j with
        | Some v ->
          Hashtbl.replace def_stmt v j.Instr.i_id;
          Hashtbl.replace def_instr v j
        | None -> ());
    let param_index = Hashtbl.create 8 in
    List.iteri (fun idx v -> Hashtbl.replace param_index v idx) m.Instr.m_params;
    let actual_node (v : Instr.var) : node option =
      match Hashtbl.find_opt def_stmt v with
      | Some s -> Some (intern g (Stmt (mc, s)))
      | None -> (
        match Hashtbl.find_opt param_index v with
        | Some idx -> Some (intern g (Formal (mc, idx)))
        | None -> None)
    in
    Instr.iter_instrs m (fun _ i ->
        match i.Instr.i_kind with
        | Instr.Call { args; _ } ->
          (* A kept allocation needs its constructor in a Weiser-style
             slice: tie the New to the <init> invocation. *)
          (match (i.Instr.i_kind, args) with
          | Instr.Call { kind = Instr.Special _; _ }, recv :: _ -> (
            match Hashtbl.find_opt def_instr recv with
            | Some { Instr.i_kind = Instr.New _; i_id; _ } ->
              emit
                ~from:(intern g (Stmt (mc, i_id)))
                ~on:(intern g (Stmt (mc, i.Instr.i_id)))
                Call_actual
            | Some _ | None -> ())
          | _ -> ());
          List.iter
            (fun cmc ->
              List.iteri
                (fun idx a ->
                  match actual_node a with
                  | Some an ->
                    let actual =
                      intern g (Actual_in (mc, i.Instr.i_id, idx))
                    in
                    emit
                      ~from:(intern g (Formal (cmc, idx)))
                      ~on:actual Param_in;
                    emit ~from:actual ~on:an Producer_local;
                    (* statement closure for traditional slicing *)
                    emit
                      ~from:(intern g (Stmt (mc, i.Instr.i_id)))
                      ~on:actual Call_actual
                  | None -> ())
                args)
            (Andersen.call_targets pta ~mctx:mc ~stmt:i.Instr.i_id)
        | _ -> ())
  end

(* Pass 4 body: control dependence edges for one method.
   [entry_callers] are the call-site nodes invoking it (entry-governed
   statements are control-dependent on them). *)
let control_pass (g : t) ~(emit : from:node -> on:node -> edge_kind -> unit)
    ~(entry_callers : node list) (mc : int) (m : Instr.meth) : unit =
  if Instr.has_body m then begin
    let cfg = Cfg.build m in
    let pdom = Dominance.compute (Dominance.backward_graph cfg) in
    let pdf = Dominance.dominance_frontiers pdom in
    let blocks = Instr.blocks_exn m in
    let nblocks = Array.length blocks in
    for bl = 0 to nblocks - 1 do
      let governors =
        List.filter (fun b -> b < nblocks) pdf.(bl)
        |> List.map (fun b -> intern g (Stmt (mc, blocks.(b).Instr.b_term.Instr.t_id)))
      in
      let wire n =
        if governors = [] then
          (* governed by method entry: control-dependent on call sites *)
          List.iter (fun c -> emit ~from:n ~on:c Control) entry_callers
        else List.iter (fun c -> emit ~from:n ~on:c Control) governors
      in
      List.iter
        (fun i -> wire (intern g (Stmt (mc, i.Instr.i_id))))
        blocks.(bl).Instr.b_instrs;
      wire (intern g (Stmt (mc, blocks.(bl).Instr.b_term.Instr.t_id)))
    done
  end

let build ~(arena : Arena.t) (p : Program.t) (pta : Andersen.result) : t =
  let hx =
    { field_writes = Hashtbl.create 256;
      field_reads = Hashtbl.create 256;
      static_writes = Hashtbl.create 32;
      static_reads = Hashtbl.create 32;
      len_writes = Hashtbl.create 32;
      len_reads = Hashtbl.create 32 }
  in
  let g =
    { p;
      pta;
      stmt_table = Hashtbl.create 1;  (* set with the columns below *)
      locs = { lc_loc = [||]; lc_key = [||]; lc_files = [||]; lc_base = [| 0 |] };
      descs = Array.make 1024 (Formal (-1, -1));
      num_nodes = 0;
      intern = Hashtbl.create 1024;
      csr = no_csr;  (* the passes only intern and emit; see below *)
      hx;
      ar = arena;
      ov_deps = [||];
      ov_uses = [||];
      dead = [||];
      dead_count = 0;
      generation = 0;
      patched = false }
  in
  let log = { ev = Array.make 4096 0; len = 0 } in
  let emit ~from ~on kind = log_edge log ~from ~on kind in
  let mcs = Andersen.method_contexts pta in
  (* Pass 1: intraprocedural edges + heap access indexing, over the
     arena's rows. *)
  Slice_obs.span "sdg.intra" (fun () ->
      List.iter
        (fun (mc, mq, _) ->
          match Arena.method_id arena mq with
          | Some am -> intra_pass_arena g hx ~emit mc am
          | None -> ())
        mcs);
  (* Pass 2: formal -> actual edges (parameter passing). *)
  Slice_obs.span "sdg.params" (fun () ->
  List.iter
    (fun (mc, mq, _) -> params_pass g ~emit mc (Program.find_method_exn p mq))
    mcs);
  (* Pass 3: heap dependence edges (store -> load, direct).  Candidate
     (read, write) pairs are deduplicated through a bitset row per
     write-node — the same (rn, wn) pair reappears once per shared
     (object, field) key across contexts — and the surviving pairs are
     emitted in one sweep via [Bits.iter], ascending write node then
     ascending read node, so row order does not depend on hash-table
     iteration order.  The considered bump counts every candidate; the
     emitted bump shares one guard with the actual emit (distinct pair,
     rn <> wn), so emitted == distinct heap edges exactly — the
     "considered vs emitted" ratio of the context-insensitive
     representation. *)
  Slice_obs.span "sdg.heap" (fun () ->
  let rows : (node, Slice_util.Bits.t) Hashtbl.t = Hashtbl.create 256 in
  let consider rn wn =
    Slice_obs.bump c_heap_considered;
    if rn <> wn then begin
      let row =
        match Hashtbl.find_opt rows wn with
        | Some b -> b
        | None ->
          let b = Slice_util.Bits.create ~capacity:64 () in
          Hashtbl.replace rows wn b;
          b
      in
      ignore (Slice_util.Bits.add row rn)
    end
  in
  (* Every read of a key against every write of the same key. *)
  let pair_up reads writes node_of =
    Hashtbl.iter
      (fun key rlist ->
        match Hashtbl.find_opt writes key with
        | None -> ()
        | Some wlist ->
          List.iter
            (fun r ->
              let rn = node_of r in
              List.iter (fun w -> consider rn (node_of w)) !wlist)
            !rlist)
      reads
  in
  pair_up hx.field_reads hx.field_writes fst;
  pair_up hx.static_reads hx.static_writes Fun.id;
  pair_up hx.len_reads hx.len_writes Fun.id;
  let wns = List.sort compare (Hashtbl.fold (fun wn _ a -> wn :: a) rows []) in
  List.iter
    (fun wn ->
      Slice_util.Bits.iter
        (fun rn ->
          Slice_obs.bump c_heap_emitted;
          emit ~from:rn ~on:wn Producer_heap)
        (Hashtbl.find rows wn))
    wns);
  (* Pass 4: control dependence edges. *)
  Slice_obs.span "sdg.control" (fun () ->
    (* reverse call graph: callee mctx -> caller call-site nodes *)
    let callers : (int, node list ref) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (mc, mq, _) ->
        let m = Program.find_method_exn p mq in
        if Instr.has_body m then
          Instr.iter_instrs m (fun _ i ->
              match i.Instr.i_kind with
              | Instr.Call _ ->
                List.iter
                  (fun cmc ->
                    push callers cmc (intern g (Stmt (mc, i.Instr.i_id))))
                  (Andersen.call_targets pta ~mctx:mc ~stmt:i.Instr.i_id)
              | _ -> ()))
      mcs;
    List.iter
      (fun (mc, mq, _) ->
        let entry_callers =
          match Hashtbl.find_opt callers mc with Some r -> !r | None -> []
        in
        control_pass g ~emit ~entry_callers mc (Program.find_method_exn p mq))
      mcs);
  (* One count-then-fill pass turns the log into the CSR.  The record
     copy is the finished graph; the passes above are done with [g]. *)
  let csr = Slice_obs.span "sdg.csr" (fun () -> csr_of_log g.num_nodes log) in
  let g = { g with csr } in
  let n = g.num_nodes and edges = csr.deps_off.(g.num_nodes) in
  Slice_obs.add c_csr_nodes n;
  Slice_obs.add c_csr_edges edges;
  (* two offset arrays + two (dst, kind) pairs, 8 bytes per word *)
  Slice_obs.max_gauge g_csr_bytes
    (float_of_int (8 * ((2 * (n + 1)) + (4 * edges))));
  set_stmt_table g (Program.build_stmt_table p);
  g

(* ------------------------------------------------------------------ *)
(* Incremental patches                                                 *)
(* ------------------------------------------------------------------ *)

let generation (g : t) = g.generation

let is_dead (g : t) (n : node) : bool =
  Array.length g.dead > 0 && g.dead.(n)

let num_live_nodes (g : t) = g.num_nodes - g.dead_count

(* Edge census from the graph itself (dead rows are empty, so a patched
   graph counts only live edges) — stats for a patched handle can't use
   the process-wide build counters. *)
let edge_kind_counts (g : t) : (edge_kind * int) list =
  let counts = Array.make (Array.length edge_kind_of_tag_table) 0 in
  for n = 0 to g.num_nodes - 1 do
    deps_iter g n (fun _ k ->
        let t = edge_kind_tag k in
        counts.(t) <- counts.(t) + 1)
  done;
  List.map (fun k -> (k, counts.(edge_kind_tag k))) all_edge_kinds

type patch_stats = {
  ps_nodes_dead : int;
  ps_nodes_new : int;
  ps_rows_touched : int;
  ps_segments_refrozen : int;
  ps_segments_total : int;
}

(* Patch the graph onto re-lowered method bodies, in place.

   Precondition (established by [Engine]): the changed methods'
   constraint summaries are unchanged, the program's method records
   already hold the NEW bodies, and the points-to result has been
   re-keyed onto the new statement ids ([Andersen.rekey_sites]) — so
   every pointer/call-graph fact is already expressed in new ids and
   only the dependence rows need repair.

   The patch retires the changed methods' [Stmt]/[Actual_in] nodes
   (their statement ids no longer exist), KEEPS their [Formal] nodes
   (signatures are stable under summary equality, so caller-side
   [Param_in] edges survive untouched), re-lowers the new bodies into
   the arena and reruns the shared per-method passes over them (pass 1
   over their arena rows, as in [build]), wires new heap accesses
   against the retained index, and repairs the two cross-method edge
   classes whose ALIVE source lost a dead target: [Return_value]
   (re-enumerated from the callee's new arena rows) and [Control]
   (entry-governed callee statements onto the changed caller's call
   sites, moved via [site_remap]).  [Param_in] and [Producer_heap] losses need no
   explicit repair — the re-run passes re-emit them.

   Touched rows are committed as overlays over the immutable CSR; node
   ids never move, so resident scratch buffers stay valid. *)
let patch (g : t) ~(changed : Instr.method_qname list)
    ~(site_remap : Instr.stmt_id -> Instr.stmt_id option) : patch_stats =
  Slice_obs.span "sdg.patch" (fun () ->
  (* First patch on this graph: bring the overlay state up to capacity
     (intern keeps it in step from then on). *)
  let cap = Array.length g.descs in
  if Array.length g.dead < cap then begin
    let grow a mk default =
      let b = mk cap default in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    g.ov_deps <- grow g.ov_deps Array.make None;
    g.ov_uses <- grow g.ov_uses Array.make None;
    g.dead <- grow g.dead Array.make false
  end;
  let old_num = g.num_nodes in
  (* Changed method contexts (every context clone of a changed method). *)
  let cm : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun mq ->
      List.iter
        (fun mc -> Hashtbl.replace cm mc ())
        (Andersen.mctxs_of_method g.pta mq))
    changed;
  (* Retire the changed methods' statement-bound nodes. *)
  let newly_dead = ref [] in
  for n = 0 to old_num - 1 do
    if not g.dead.(n) then
      match g.descs.(n) with
      | (Stmt (mc, _) | Actual_in (mc, _, _)) when Hashtbl.mem cm mc ->
        g.dead.(n) <- true;
        g.dead_count <- g.dead_count + 1;
        Hashtbl.remove g.intern g.descs.(n);
        newly_dead := n :: !newly_dead
      | Stmt _ | Actual_in _ | Formal _ -> ()
  done;
  (* Session rows: rows under repair, materialised copy-on-write from
     the overlay-or-CSR.  [seen] dedups edges; a row's existing edges
     seed it on first materialisation. *)
  let sess_deps : (node, (node * edge_kind) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let sess_uses : (node, (node * edge_kind) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  let seen : (node * node * edge_kind, unit) Hashtbl.t = Hashtbl.create 1024 in
  (* The committed rows; nodes interned by this patch have none yet. *)
  let raw_deps n = if n >= old_num then [] else deps g n in
  let raw_uses n = if n >= old_num then [] else uses g n in
  let mat_deps n =
    match Hashtbl.find_opt sess_deps n with
    | Some r -> r
    | None ->
      let row = raw_deps n in
      List.iter (fun (on, k) -> Hashtbl.replace seen (n, on, k) ()) row;
      let r = ref row in
      Hashtbl.replace sess_deps n r;
      r
  in
  let mat_uses n =
    match Hashtbl.find_opt sess_uses n with
    | Some r -> r
    | None ->
      let r = ref (raw_uses n) in
      Hashtbl.replace sess_uses n r;
      r
  in
  let emit ~from ~on kind =
    if from <> on then begin
      (* materialise (and seed [seen] from) the source row FIRST *)
      let rd = mat_deps from in
      if not (Hashtbl.mem seen (from, on, kind)) then begin
        Hashtbl.replace seen (from, on, kind) ();
        let ru = mat_uses on in
        rd := (on, kind) :: !rd;
        ru := (from, kind) :: !ru;
        Slice_obs.bump c_edges;
        Slice_obs.bump (edge_counter kind)
      end
    end
  in
  (* Disconnect dead nodes from alive rows, recording each alive source
     that lost a dependence (the loss classes needing repair). *)
  let losses : (node * edge_kind * node_desc) list ref = ref [] in
  List.iter
    (fun d ->
      List.iter
        (fun (on, k) ->
          if not g.dead.(on) then begin
            let ru = mat_uses on in
            ru := List.filter (fun (f, k') -> not (f = d && k' = k)) !ru
          end)
        (raw_deps d);
      List.iter
        (fun (from, k) ->
          if not g.dead.(from) then begin
            let rd = mat_deps from in
            rd := List.filter (fun (on', k') -> not (on' = d && k' = k)) !rd;
            losses := (from, k, g.descs.(d)) :: !losses
          end)
        (raw_uses d))
    !newly_dead;
  (* Purge dead accesses from the retained heap index. *)
  let purge_pairs tbl =
    Hashtbl.iter (fun _ r -> r := List.filter (fun (n, _) -> not g.dead.(n)) !r) tbl
  in
  let purge_nodes tbl =
    Hashtbl.iter (fun _ r -> r := List.filter (fun n -> not g.dead.(n)) !r) tbl
  in
  purge_pairs g.hx.field_writes;
  purge_pairs g.hx.field_reads;
  purge_nodes g.hx.static_writes;
  purge_nodes g.hx.static_reads;
  purge_nodes g.hx.len_writes;
  purge_nodes g.hx.len_reads;
  let changed_mcs =
    Hashtbl.fold
      (fun mc () acc ->
        let mq, _ = Andersen.mctx_info g.pta mc in
        (mc, Program.find_method_exn g.p mq) :: acc)
      cm []
  in
  (* Pass 1 over the new bodies, re-lowered into the arena first,
     indexing their heap accesses apart. *)
  Arena.relower g.ar g.p changed;
  let hx_new =
    { field_writes = Hashtbl.create 32;
      field_reads = Hashtbl.create 32;
      static_writes = Hashtbl.create 8;
      static_reads = Hashtbl.create 8;
      len_writes = Hashtbl.create 8;
      len_reads = Hashtbl.create 8 }
  in
  List.iter
    (fun (mc, m) ->
      match Arena.method_id g.ar m.Instr.m_qname with
      | Some am -> intra_pass_arena g hx_new ~emit mc am
      | None -> ())
    changed_mcs;
  (* Pass 2: the changed methods as callers. *)
  List.iter (fun (mc, m) -> params_pass g ~emit mc m) changed_mcs;
  (* Pass 3: merge the new accesses into the retained index, then wire
     new reads x all writes and all reads x new writes (the new x new
     corner lands in both sweeps; the bitset rows dedup it). *)
  let merge_pairs src dst = Hashtbl.iter (fun k r -> List.iter (push dst k) !r) src in
  merge_pairs hx_new.field_writes g.hx.field_writes;
  merge_pairs hx_new.field_reads g.hx.field_reads;
  merge_pairs hx_new.static_writes g.hx.static_writes;
  merge_pairs hx_new.static_reads g.hx.static_reads;
  merge_pairs hx_new.len_writes g.hx.len_writes;
  merge_pairs hx_new.len_reads g.hx.len_reads;
  let rows : (node, Slice_util.Bits.t) Hashtbl.t = Hashtbl.create 64 in
  let consider rn wn =
    Slice_obs.bump c_heap_considered;
    if rn <> wn then begin
      let row =
        match Hashtbl.find_opt rows wn with
        | Some b -> b
        | None ->
          let b = Slice_util.Bits.create ~capacity:64 () in
          Hashtbl.replace rows wn b;
          b
      in
      ignore (Slice_util.Bits.add row rn)
    end
  in
  let sweep_pairs news alls ~read_side =
    Hashtbl.iter
      (fun key nlist ->
        match Hashtbl.find_opt alls key with
        | None -> ()
        | Some olist ->
          List.iter
            (fun (nn, _) ->
              List.iter
                (fun (on, _) ->
                  if read_side then consider nn on else consider on nn)
                !olist)
            !nlist)
      news
  in
  sweep_pairs hx_new.field_reads g.hx.field_writes ~read_side:true;
  sweep_pairs hx_new.field_writes g.hx.field_reads ~read_side:false;
  let sweep_nodes news alls ~read_side =
    Hashtbl.iter
      (fun key nlist ->
        match Hashtbl.find_opt alls key with
        | None -> ()
        | Some olist ->
          List.iter
            (fun nn ->
              List.iter
                (fun on -> if read_side then consider nn on else consider on nn)
                !olist)
            !nlist)
      news
  in
  sweep_nodes hx_new.static_reads g.hx.static_writes ~read_side:true;
  sweep_nodes hx_new.static_writes g.hx.static_reads ~read_side:false;
  sweep_nodes hx_new.len_reads g.hx.len_writes ~read_side:true;
  sweep_nodes hx_new.len_writes g.hx.len_reads ~read_side:false;
  Hashtbl.iter
    (fun wn row ->
      Slice_util.Bits.iter
        (fun rn ->
          Slice_obs.bump c_heap_emitted;
          emit ~from:rn ~on:wn Producer_heap)
        row)
    rows;
  (* Pass 4: control dependence inside the new bodies.  Entry callers
     come from the solved call graph (already keyed on new ids). *)
  let callers : (int, node list ref) Hashtbl.t = Hashtbl.create 16 in
  Andersen.iter_call_sites g.pta (fun ~caller ~stmt ~callees ->
      List.iter
        (fun cmc ->
          if Hashtbl.mem cm cmc then
            push callers cmc (intern g (Stmt (caller, stmt))))
        callees);
  List.iter
    (fun (mc, m) ->
      let entry_callers =
        match Hashtbl.find_opt callers mc with Some r -> !r | None -> []
      in
      control_pass g ~emit ~entry_callers mc m)
    changed_mcs;
  (* Repair the cross-method losses the re-run passes don't cover. *)
  let rv_done : (node * int, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (from, k, dead_desc) ->
      match (k, dead_desc) with
      | Return_value, Stmt (cmc, _) ->
        if not (Hashtbl.mem rv_done (from, cmc)) then begin
          Hashtbl.replace rv_done (from, cmc) ();
          return_value_edges g ~emit ~from cmc
        end
      | Control, Stmt (cmc, s) -> (
        (* entry-governed callee statement onto a moved call site *)
        match site_remap s with
        | Some s' -> emit ~from ~on:(intern g (Stmt (cmc, s'))) Control
        | None -> ())
      | _ -> ())
    !losses;
  (* Commit: session rows become overlays; dead rows empty; new nodes
     with no edges get explicit empty rows (they are past the CSR). *)
  let rows_touched : (node, unit) Hashtbl.t = Hashtbl.create 256 in
  let to_arrays row =
    let l = !row in
    let len = List.length l in
    let dst = Array.make len 0 in
    let kind = Array.make len 0 in
    List.iteri
      (fun i (d, k) ->
        dst.(i) <- d;
        kind.(i) <- edge_kind_tag k)
      l;
    (dst, kind)
  in
  Hashtbl.iter
    (fun n row ->
      g.ov_deps.(n) <- Some (to_arrays row);
      Hashtbl.replace rows_touched n ())
    sess_deps;
  Hashtbl.iter
    (fun n row ->
      g.ov_uses.(n) <- Some (to_arrays row);
      Hashtbl.replace rows_touched n ())
    sess_uses;
  for n = old_num to g.num_nodes - 1 do
    if g.ov_deps.(n) = None then g.ov_deps.(n) <- Some ([||], [||]);
    if g.ov_uses.(n) = None then g.ov_uses.(n) <- Some ([||], [||])
  done;
  List.iter
    (fun d ->
      g.ov_deps.(d) <- Some ([||], [||]);
      g.ov_uses.(d) <- Some ([||], [||]))
    !newly_dead;
  set_stmt_table g (Program.build_stmt_table g.p);
  g.generation <- g.generation + 1;
  g.patched <- true;
  (* Segments = method contexts; refrozen = contexts whose rows moved. *)
  let seg_touched : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter (fun mc () -> Hashtbl.replace seg_touched mc ()) cm;
  Hashtbl.iter
    (fun n () ->
      if not g.dead.(n) then
        match g.descs.(n) with
        | Stmt (mc, _) | Actual_in (mc, _, _) | Formal (mc, _) ->
          Hashtbl.replace seg_touched mc ())
    rows_touched;
  let seg_total = List.length (Andersen.method_contexts g.pta) in
  { ps_nodes_dead = List.length !newly_dead;
    ps_nodes_new = g.num_nodes - old_num;
    ps_rows_touched = Hashtbl.length rows_touched;
    ps_segments_refrozen = Hashtbl.length seg_touched;
    ps_segments_total = max seg_total (Hashtbl.length seg_touched) })

(* ------------------------------------------------------------------ *)
(* Lookups used by drivers                                             *)
(* ------------------------------------------------------------------ *)

(* Binary search of an ascending int array. *)
let mem_sorted (a : int array) (x : int) : bool =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let v = Array.unsafe_get a mid in
    v = x || if v < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* All statement nodes whose source line matches: a scan of the packed
   key column.  Dead nodes of a patched graph have no location (their
   retired statement ids are absent from the rebuilt statement table);
   the explicit check keeps that an invariant of this function rather
   than of statement-id freshness. *)
let nodes_at_line (g : t) ~(file : string option) ~(line : int) : node list =
  let keys = g.locs.lc_key and base = g.locs.lc_base in
  let out = ref [] in
  let collect hit =
    for n = g.num_nodes - 1 downto 0 do
      if hit keys.(n) && not (is_dead g n) then out := n :: !out
    done
  in
  (* the key of [line] in the file of rank [r], -1 past the file's span *)
  let key_in r =
    if line >= 0 && base.(r) + line < base.(r + 1) then base.(r) + line else -1
  in
  (match file with
  | None -> (
    (* the key of [line] in every file that spans it, ascending *)
    let targets =
      Array.of_list
        (List.filter (fun k -> k >= 0)
           (List.init (Array.length g.locs.lc_files) key_in))
    in
    match targets with
    | [||] -> ()
    | [| key |] -> collect (fun k -> k asr 1 = key)
    | _ -> collect (fun k -> k >= 0 && mem_sorted targets (k lsr 1)))
  | Some f -> (
    match Array.find_index (String.equal f) g.locs.lc_files with
    | None -> ()
    | Some r ->
      let key = key_in r in
      if key >= 0 then collect (fun k -> k asr 1 = key)));
  !out

(* Number of scalar statements: distinct statement ids that appear as nodes
   (context clones counted once), matching Table 1's "SDG Statements". *)
let num_scalar_statements (g : t) : int =
  let seen = Hashtbl.create 256 in
  for n = 0 to g.num_nodes - 1 do
    if not (is_dead g n) then
      match g.descs.(n) with
      | Stmt (_, s) -> Hashtbl.replace seen s ()
      | Formal _ | Actual_in _ -> ()
  done;
  Hashtbl.length seen

(* DOT export for documentation and debugging.  [witness] is a dependence
   path as (node, arrival kind) steps, seed first; its nodes and exactly
   the hop edges (predecessor -> step, with the step's arrival kind) are
   highlighted so the path stands out of the full graph. *)
let to_dot ?(witness : (node * edge_kind option) list = []) (g : t) : string =
  let wit_nodes = Hashtbl.create 16 in
  let wit_edges = Hashtbl.create 16 in
  let rec mark = function
    | [] -> ()
    | (n, _) :: rest ->
      Hashtbl.replace wit_nodes n ();
      (match rest with
      | (m, Some k) :: _ -> Hashtbl.replace wit_edges (n, m, k) ()
      | _ -> ());
      mark rest
  in
  mark witness;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph sdg {\n  node [shape=box,fontname=monospace];\n";
  for n = 0 to g.num_nodes - 1 do
    if not (is_dead g n) then begin
      let hl =
        if Hashtbl.mem wit_nodes n then ",color=red,penwidth=2.0" else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=%S%s];\n" n
           (Format.asprintf "%a" (pp_node g) n)
           hl)
    end
  done;
  for n = 0 to g.num_nodes - 1 do
    deps_iter g n (fun dep kind ->
        let style =
          match kind with
          | Producer_local | Producer_heap | Param_in | Return_value -> "solid"
          | Base_pointer | Index | Call_actual -> "dashed"
          | Control -> "dotted"
        in
        let hl =
          if Hashtbl.mem wit_edges (n, dep, kind) then
            ",color=red,penwidth=2.0"
          else ""
        in
        Buffer.add_string buf
          (Printf.sprintf "  n%d -> n%d [style=%s,label=\"%s\"%s];\n" n dep
             style
             (edge_kind_to_string kind)
             hl))
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
