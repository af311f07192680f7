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
module Iset = Slice_util.Iset
module Isort = Slice_util.Isort
module Imap = Slice_util.Imap

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
let c_patch_call_sites = Slice_obs.counter "sdg.patch.call_sites_visited"
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

(* A growable int buffer: [ev.(0 .. len - 1)] in push order. *)
type ibuf = { mutable ev : int array; mutable len : int }

(* Heap access index built during pass 1 and RETAINED on the graph: a
   patch indexes the changed methods' accesses into it and wires them
   against the rest, instead of re-scanning the program.

   One [Imap] maps a packed key (see [hkey]) to the first cell of a
   chain; cell [c] holds a node, or a group owner, at [c] in [hc_val]
   and the next cell at [c] in [hc_next], -1 at the end.  Chains list
   the newest entry first.  A write is listed under every (object, field)
   its base may point to.  A read is listed once, under (points-to
   representative of its base, field), and the field's group chain
   lists each such owner: a read group meets the writes of every object
   in its representative's set, so the index does not multiply reads by
   points-to size.  A static [C.f] is a read group of [f] whose owner,
   [C]'s symbol under the static bit, is also its only object.  Cells
   a patch unlinks are chained from [hc_free] and reused first. *)
type heap_index = {
  hx_keys : Imap.t;              (* key -> first cell of its chain *)
  hc_val : ibuf;
  hc_next : ibuf;                (* next cell, or the next free one *)
  mutable hc_free : int;         (* first free cell, -1 for none *)
  mutable hc_live : int;         (* cells on some key's chain *)
}

(* Dense per-node location columns, derived from the arena's statement
   records.
   [build] writes every node's entry; [patch] writes only its own nodes
   (clearing the retired ones, locating the new ones) unless a new
   location falls outside the file spans below, when it rewrites them
   all.

   A line key numbers a (file, line) pair densely: [lc_base.(rank) +
   line], where [rank] is the file's position in [lc_files] (sorted by
   [String.compare]) and each file's span [lc_base.(rank + 1) -
   lc_base.(rank)] is its own largest line + 1 when the spans were last
   computed, so the key space grows with the source, not with files ×
   the longest file.  Key order is therefore (file, line) order, and a
   single-file program's key is its line.  [lc_key.(n)] packs the node's
   line key with its countability: [(key lsl 1) lor 1] for a countable
   node, [key lsl 1] for a located but uncountable one (phis, gotos), -1
   for a node without a location.  Once a graph is patched the two
   per-node columns are sized to the node capacity, like the overlay
   state. *)
type loc_columns = {
  mutable lc_loc : Loc.t array;  (* node -> location; [Loc.none] if absent *)
  mutable lc_key : int array;    (* node -> packed line key, see above *)
  mutable lc_files : string array;  (* file rank -> file name *)
  mutable lc_base : int array;   (* file rank -> first key; one extra
                                    entry, the key count *)
}

type t = {
  p : Program.t;
  pta : Andersen.result;
  locs : loc_columns;
  (* Node identity: each node's descriptor as a packed int key, and an
     index from packed key to live node (see [desc_key]).  The column is
     sized to the node capacity. *)
  mutable nkey : int array;    (* node -> its packed key *)
  mutable num_nodes : int;
  index : Imap.t;
  csr : csr;
  hx : heap_index;             (* retained for incremental patches *)
  ar : Arena.t;                (* the statement store every pass and
                                  lookup reads; a patch re-lowers the
                                  changed methods into it *)
  kinds : int array;           (* live edges per kind tag *)
  mutable scalar_stmts : int;  (* see [num_scalar_statements] *)
  (* Incremental patch state.  A patched graph keeps its CSR for
     untouched rows and OVERLAYS the rows the patch rewrote; row lookup
     checks the overlay first (one extra branch, only when [patched]).
     Dead nodes (statements of re-lowered method bodies) keep their ids
     — rows emptied, keys retired from the index — so alive node ids
     are stable across a patch and resident scratch/provenance buffers
     stay valid.  The per-node arrays are allocated by the first patch,
     at node capacity, and grow with the node columns. *)
  mutable ov_deps : int array option array;
      (* an overlay row packs each edge as [(dst lsl 3) lor kind tag] *)
  mutable ov_uses : int array option array;
  mutable dead : bool array;
  mutable mark : int array;    (* per-row dedup stamps, see [commit_rows] *)
  mutable stamp : int;
  mutable dead_count : int;
  mutable generation : int;    (* bumped per committed patch *)
  mutable patched : bool;
}

let program (g : t) = g.p
let pta (g : t) = g.pta
let stmt_site (g : t) (s : Instr.stmt_id) = Arena.stmt_site g.ar s

(* Packed node keys.  A key holds a 2-bit kind and an owner in
   [Imap.pack]'s first field and an index in the second: for a statement
   its context and statement id, for a formal its context and parameter
   index, and for an actual-in the [Stmt] node of its call (interned by
   pass 1 before any actual) and its argument index, so any arity
   fits. *)
let kind_stmt = 0
let kind_formal = 1
let kind_actual = 2

let[@inline] desc_key (kind : int) (owner : int) (x : int) : int =
  Imap.pack ((owner lsl 2) lor kind) x

let[@inline] key_kind (k : int) : int = Imap.pack_hi k land 3
let[@inline] key_owner (k : int) : int = Imap.pack_hi k lsr 2

(* The key of the statement a node belongs to: its own, or its call's
   for an actual-in. *)
let[@inline] stmt_key (g : t) (n : node) : int =
  let k = g.nkey.(n) in
  if key_kind k = kind_actual then g.nkey.(key_owner k) else k

let node_desc (g : t) (n : node) : node_desc =
  let k = g.nkey.(n) in
  let x = Imap.pack_lo k in
  match key_kind k with
  | 0 -> Stmt (key_owner k, x)
  | 1 -> Formal (key_owner k, x)
  | _ ->
    let c = g.nkey.(key_owner k) in
    Actual_in (key_owner c, Imap.pack_lo c, x)

(* The context a node belongs to. *)
let node_mctx (g : t) (n : node) : int = key_owner (stmt_key g n)

let num_nodes (g : t) = g.num_nodes

let intern_key (g : t) (k : int) : node =
  let n = Imap.find g.index k in
  if n >= 0 then n
  else begin
    let n = g.num_nodes in
    if n = Array.length g.nkey then begin
      let grow a default =
        let b = Array.make (2 * n) default in
        Array.blit a 0 b 0 n;
        b
      in
      g.nkey <- grow g.nkey 0;
      (* patch state exists only once a graph has been patched *)
      if Array.length g.dead > 0 then begin
        g.ov_deps <- grow g.ov_deps None;
        g.ov_uses <- grow g.ov_uses None;
        g.dead <- grow g.dead false;
        g.mark <- grow g.mark 0;
        g.locs.lc_loc <- grow g.locs.lc_loc Loc.none;
        g.locs.lc_key <- grow g.locs.lc_key (-1)
      end
    end;
    g.nkey.(n) <- k;
    g.num_nodes <- n + 1;
    Imap.replace g.index k n;
    Slice_obs.bump c_nodes;
    n
  end

let intern_stmt (g : t) (mc : int) (s : Instr.stmt_id) : node =
  intern_key g (desc_key kind_stmt mc s)

let intern_formal (g : t) (mc : int) (idx : int) : node =
  intern_key g (desc_key kind_formal mc idx)

(* The actual-in of argument [idx] at call node [call]. *)
let intern_actual (g : t) ~(call : node) (idx : int) : node =
  intern_key g (desc_key kind_actual call idx)

(* ------------------------------------------------------------------ *)
(* The build's edge log, written into CSR in one pass                  *)
(* ------------------------------------------------------------------ *)

let ibuf (cap : int) : ibuf = { ev = Array.make (max 1 cap) 0; len = 0 }

let ipush (b : ibuf) (x : int) : unit =
  if b.len = Array.length b.ev then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.ev 0 a 0 b.len;
    b.ev <- a
  end;
  b.ev.(b.len) <- x;
  b.len <- b.len + 1

(* The edge log: two words per edge in emission order, [from] then
   [on] packed over its kind tag as in an overlay row.  Self edges are
   never logged; repeats are, and the readers drop them by overwriting
   the second word with -1 ([log_drop]). *)
let log_edge (l : ibuf) ~(from : node) ~(on : node) (kind : edge_kind) :
    unit =
  if from <> on then begin
    if l.len + 2 > Array.length l.ev then begin
      let b = Array.make (2 * Array.length l.ev) 0 in
      Array.blit l.ev 0 b 0 l.len;
      l.ev <- b
    end;
    l.ev.(l.len) <- from;
    l.ev.(l.len + 1) <- (on lsl 3) lor edge_kind_tag kind;
    l.len <- l.len + 2
  end

(* Edge [e] of a log: its source, target and kind tag, -1 once
   dropped. *)
let[@inline] log_from (l : ibuf) (e : int) : node = l.ev.(2 * e)
let[@inline] log_on (l : ibuf) (e : int) : node = l.ev.((2 * e) + 1) asr 3

let[@inline] log_tag (l : ibuf) (e : int) : int =
  let w = l.ev.((2 * e) + 1) in
  if w < 0 then -1 else w land 7

let[@inline] log_drop (l : ibuf) (e : int) : unit = l.ev.((2 * e) + 1) <- -1

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
   node-indexed stamp ([stamp.(on) lsr 8 = from]) over a kind bitmask
   (its low 8 bits) finds the repeats, which [log_drop] marks.  The fill
   walks the log backwards, so every row of both directions lists its edges in reverse
   order of first emission.  Bumps the edge counters once per edge, and
   returns the per-kind edge counts with the CSR. *)
let csr_of_log (n : int) (l : ibuf) : csr * int array =
  let m = l.len / 2 in
  let from = log_from l and on = log_on l and tag = log_tag l in
  let deps_cnt = Array.make n 0 and uses_cnt = Array.make n 0 in
  for e = 0 to m - 1 do
    deps_cnt.(from e) <- deps_cnt.(from e) + 1
  done;
  let start = offsets_of_counts deps_cnt in
  (* [deps_cnt] serves as the bucket cursor, then counts again *)
  let by_from = Array.make (max 1 m) 0 and next = deps_cnt in
  Array.blit start 0 next 0 n;
  for e = 0 to m - 1 do
    by_from.(next.(from e)) <- e;
    next.(from e) <- next.(from e) + 1
  done;
  let stamp = Array.make n (-1) in
  let kinds = Array.make (Array.length edge_kind_of_tag_table) 0 in
  Array.fill deps_cnt 0 n 0;
  for f = 0 to n - 1 do
    for i = start.(f) to start.(f + 1) - 1 do
      let e = by_from.(i) in
      let o = on e and t = tag e in
      if stamp.(o) lsr 8 <> f then stamp.(o) <- f lsl 8;
      if stamp.(o) land (1 lsl t) = 0 then begin
        stamp.(o) <- stamp.(o) lor (1 lsl t);
        deps_cnt.(f) <- deps_cnt.(f) + 1;
        uses_cnt.(o) <- uses_cnt.(o) + 1;
        kinds.(t) <- kinds.(t) + 1
      end
      else log_drop l e
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
  ({ deps_off; deps_dst; deps_kind; uses_off; uses_dst; uses_kind }, kinds)

(* A no-op, kept for callers that still time a freeze phase: [build]
   writes the final adjacency itself. *)
let freeze (_ : t) : unit = ()

(* Row iteration: the hot-path accessors, no allocation per edge; each
   edge is handed over as its target and kind tag.  On a patched graph,
   rows the patch rewrote (and rows of nodes interned by a patch) live
   in the overlay and are checked first. *)
let deps_iter (g : t) (n : node) (f : node -> int -> unit) : unit =
  match if g.patched then g.ov_deps.(n) else None with
  | Some row ->
    for i = 0 to Array.length row - 1 do
      let e = Array.unsafe_get row i in
      f (e lsr 3) (e land 7)
    done
  | None ->
    let c = g.csr in
    for i = c.deps_off.(n) to c.deps_off.(n + 1) - 1 do
      f (Array.unsafe_get c.deps_dst i) (Array.unsafe_get c.deps_kind i)
    done

let uses_iter (g : t) (n : node) (f : node -> int -> unit) : unit =
  match if g.patched then g.ov_uses.(n) else None with
  | Some row ->
    for i = 0 to Array.length row - 1 do
      let e = Array.unsafe_get row i in
      f (e lsr 3) (e land 7)
    done
  | None ->
    let c = g.csr in
    for i = c.uses_off.(n) to c.uses_off.(n + 1) - 1 do
      f (Array.unsafe_get c.uses_dst i) (Array.unsafe_get c.uses_kind i)
    done

let num_edges (g : t) : int = Array.fold_left ( + ) 0 g.kinds

(* List views of a row, in row order: a fresh list per call, so prefer
   the [_iter] forms on hot paths. *)
let row_list iter (g : t) (n : node) : (node * edge_kind) list =
  let acc = ref [] in
  iter g n (fun d t -> acc := (d, edge_kind_of_tag t) :: !acc);
  List.rev !acc

let deps (g : t) (n : node) = row_list deps_iter g n
let uses (g : t) (n : node) = row_list uses_iter g n

(* The source location of a node ([Loc.none] for formals). *)
let node_loc (g : t) (n : node) : Loc.t = g.locs.lc_loc.(n)

(* The statement of a [Stmt] or [Actual_in] node, -1 for a formal. *)
let stmt_of (g : t) (n : node) : Instr.stmt_id =
  let k = stmt_key g n in
  if key_kind k = kind_formal then -1 else Imap.pack_lo k

let node_stmt (g : t) (n : node) : Instr.stmt_id option =
  let s = stmt_of g n in
  if s >= 0 then Some s else None

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

let site_countable : Program.site -> bool = function
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

(* Column pass 1 for node [i]: its location from the arena's record of
   its statement, and in [lc_key] its countability bit, or -1 when it
   has no location. *)
let locate (g : t) (i : node) : unit =
  let c = g.locs in
  c.lc_loc.(i) <- Loc.none;
  c.lc_key.(i) <- -1;
  match stmt_site g (stmt_of g i) with
  | None -> ()
  | Some site ->
    let l = Program.site_loc site in
    if not (Loc.is_none l) then begin
      c.lc_loc.(i) <- l;
      let is_stmt = key_kind g.nkey.(i) = kind_stmt in
      c.lc_key.(i) <- (if is_stmt && not (site_countable site) then 0 else 1)
    end

(* Column pass 2 for node [i]: the (file, line) key above the
   countability bit.  False, leaving the node's key unfinished, when its
   location lies outside the current file spans. *)
let key_node (g : t) ~(rank_of : string -> int) (i : node) : bool =
  let c = g.locs in
  c.lc_key.(i) < 0
  ||
  let l = c.lc_loc.(i) in
  let r = rank_of l.Loc.file in
  r >= 0
  && c.lc_base.(r) + l.Loc.line < c.lc_base.(r + 1)
  && begin
    c.lc_key.(i) <- ((c.lc_base.(r) + l.Loc.line) lsl 1) lor c.lc_key.(i);
    true
  end

(* A file's rank in [lc_files] by binary search, -1 if absent. *)
let file_rank (c : loc_columns) : string -> int =
  memo_last (fun f ->
      let rec go lo hi =
        if lo >= hi then -1
        else
          let mid = (lo + hi) / 2 in
          let k = String.compare f c.lc_files.(mid) in
          if k = 0 then mid else if k < 0 then go lo mid else go (mid + 1) hi
      in
      go 0 (Array.length c.lc_files))

(* Rewrite every node's columns, spans included: the files and lines of
   the current locations set the key space afresh. *)
let write_all_locs (g : t) : unit =
  let n = g.num_nodes and c = g.locs in
  let len = if Array.length g.dead > 0 then Array.length g.nkey else n in
  if Array.length c.lc_loc <> len then begin
    c.lc_loc <- Array.make len Loc.none;
    c.lc_key <- Array.make len (-1)
  end;
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
    locate g i;
    if c.lc_key.(i) >= 0 then begin
      let l = c.lc_loc.(i) in
      let m = note_file l.Loc.file in
      if l.Loc.line > !m then m := l.Loc.line
    end
  done;
  c.lc_files <-
    Array.of_list
      (List.sort String.compare (Hashtbl.fold (fun f _ a -> f :: a) files []));
  (* each file's base: the prefix sum of the earlier files' spans *)
  c.lc_base <- Array.make (Array.length c.lc_files + 1) 0;
  Array.iteri
    (fun r f ->
      c.lc_base.(r + 1) <- c.lc_base.(r) + !(Hashtbl.find files f) + 1)
    c.lc_files;
  let rank_of = file_rank c in
  for i = 0 to n - 1 do
    if not (key_node g ~rank_of i) then
      invalid_arg "Sdg.write_all_locs: a location outside its own span"
  done;
  (* two one-word-per-node columns, 8 bytes per word *)
  Slice_obs.max_gauge g_loc_bytes (float_of_int (8 * 2 * n))

(* Rewrite the columns of nodes [lo, hi) against the current spans, or
   every node's when one of them falls outside. *)
let write_locs (g : t) (lo : int) (hi : int) : unit =
  let rank_of = file_rank g.locs in
  let inside = ref true in
  for i = lo to hi - 1 do
    locate g i;
    if !inside && not (key_node g ~rank_of i) then inside := false
  done;
  if not !inside then write_all_locs g

(* Statement [s] of context [mc]'s method, from its arena record. *)
let stmt_to_string (g : t) (mc : int) (s : Instr.stmt_id) : string =
  match stmt_site g s with
  | None -> Printf.sprintf "<unknown stmt %d>" s
  | Some site ->
    let mq, _ = Andersen.mctx_info g.pta mc in
    Pretty.site_to_string (Program.find_method_exn g.p mq) site

let pp_node (g : t) ppf (n : node) : unit =
  match node_desc g n with
  | Formal (mc, i) ->
    let mq, _ = Andersen.mctx_info g.pta mc in
    Format.fprintf ppf "formal %d of %a" i Instr.pp_method_qname mq
  | Actual_in (mc, s, i) ->
    Format.fprintf ppf "actual %d of %s" i (stmt_to_string g mc s)
  | Stmt (mc, s) ->
    let _, ctx = Andersen.mctx_info g.pta mc in
    Format.fprintf ppf "%s %a" (stmt_to_string g mc s)
      (Context.pp_ctx (Andersen.contexts g.pta))
      ctx

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* [Hashtbl.find] rather than [find_opt]: no [Some] per push. *)
let push tbl key v =
  match Hashtbl.find tbl key with
  | cell -> cell := v :: !cell
  | exception Not_found -> Hashtbl.replace tbl key (ref [ v ])

(* --- the heap access index ---------------------------------------- *)

(* A key packs a 2-bit tag and a field symbol in [Imap.pack]'s first
   field and an owner in the second.  A field symbol is the arena's
   interned id shifted past two reserved ones, the array-contents and
   array-length pseudo-fields.  An owner is an object (for a write) or a
   representative (for a read) shifted left one bit, or a static's class
   symbol with that bit set; a group key's owner is 0. *)
let tag_write = 0
let tag_read = 1
let tag_group = 2
let sym_elem = 0
let sym_length = 1

let[@inline] hkey (tag : int) (sym : int) (owner : int) : int =
  Imap.pack ((sym lsl 2) lor tag) owner

let[@inline] hkey_tag (k : int) : int = Imap.pack_hi k land 3
let[@inline] hkey_sym (k : int) : int = Imap.pack_hi k lsr 2
let[@inline] hkey_owner (k : int) : int = Imap.pack_lo k

(* The group chain key of read key [k]'s field. *)
let group_key (k : int) : int = hkey tag_group (hkey_sym k) 0

let heap_index () : heap_index =
  { hx_keys = Imap.create ~capacity:256 ();
    hc_val = ibuf 256;
    hc_next = ibuf 256;
    hc_free = -1;
    hc_live = 0 }

(* A cell holding [v] in front of cell [next]: a free one if any, else a
   new one. *)
let new_cell (hx : heap_index) (v : int) (next : int) : int =
  hx.hc_live <- hx.hc_live + 1;
  let c = hx.hc_free in
  if c < 0 then begin
    ipush hx.hc_val v;
    ipush hx.hc_next next;
    hx.hc_val.len - 1
  end
  else begin
    hx.hc_free <- hx.hc_next.ev.(c);
    hx.hc_val.ev.(c) <- v;
    hx.hc_next.ev.(c) <- next;
    c
  end

(* Put [v] at the front of key [k]'s chain; true when [k] had none. *)
let chain_push (hx : heap_index) (k : int) (v : int) : bool =
  let head = Imap.find hx.hx_keys k in
  Imap.replace hx.hx_keys k (new_cell hx v head);
  head < 0

(* [consider] every (read, write) pair of the chain from cell [r0] and
   the chain from cell [w0], each cut at its first value below its
   floor. *)
let cross (hx : heap_index) ~(r0 : int) ~(rfloor : node) ~(w0 : int)
    ~(wfloor : node) (consider : node -> node -> unit) : unit =
  let value = hx.hc_val.ev and next = hx.hc_next.ev in
  let w = ref w0 in
  while !w >= 0 && value.(!w) >= wfloor do
    let r = ref r0 in
    while !r >= 0 && value.(!r) >= rfloor do
      consider value.(!r) value.(!w);
      r := next.(!r)
    done;
    w := next.(!w)
  done

(* Unlink the cells of key [k]'s chain whose value fails [keep] onto
   the free list.  A key whose chain empties leaves the index, and then
   this is true. *)
let chain_filter (hx : heap_index) (k : int) (keep : int -> bool) : bool =
  let value = hx.hc_val.ev and next = hx.hc_next.ev in
  let head = Imap.find hx.hx_keys k in
  let first = ref head and prev = ref (-1) and c = ref head in
  while !c >= 0 do
    let cn = next.(!c) in
    if keep value.(!c) then prev := !c
    else begin
      if !prev < 0 then first := cn else next.(!prev) <- cn;
      next.(!c) <- hx.hc_free;
      hx.hc_free <- !c;
      hx.hc_live <- hx.hc_live - 1
    end;
    c := cn
  done;
  if !first <> head then
    if !first < 0 then Imap.remove hx.hx_keys k
    else Imap.replace hx.hx_keys k !first;
  head >= 0 && !first < 0

(* Index node [n] under key [k]: a read group new to the index joins
   its field's group chain. *)
let index_access (hx : heap_index) (k : int) (n : node) : unit =
  if chain_push hx k n && hkey_tag k = tag_read then
    ignore (chain_push hx (group_key k) (hkey_owner k))

(* Unlink the dead nodes under key [k]: a read group left empty leaves
   its field's group chain. *)
let purge_key (g : t) (k : int) : unit =
  if chain_filter g.hx k (fun n -> not g.dead.(n)) && hkey_tag k = tag_read
  then begin
    let o = hkey_owner k in
    ignore (chain_filter g.hx (group_key k) (fun o' -> o' <> o))
  end

(* The field symbol an instance access at arena row [ix] keys on. *)
let access_sym (ar : Arena.t) (ix : int) (op : Arena.op) : int =
  match op with
  | Arena.Op_store | Arena.Op_load -> Arena.instr_sym ar ix + 2
  | Arena.Op_array_store | Arena.Op_array_load -> sym_elem
  | _ -> sym_length

(* The [tag] key of the static access at arena row [ix]. *)
let static_key (ar : Arena.t) (ix : int) (tag : int) : int =
  hkey tag (Arena.instr_sym2 ar ix + 2) ((Arena.instr_sym ar ix lsl 1) lor 1)

(* The index keys of node [n], the access at arena row [ix] in context
   [mc], each handed to [f] with [n]: a field, element or length write
   under every object its base may point to, such a read once under its
   base's representative, and a static under its own group.  Pass 1
   indexes [n] under these keys and a patch purges under them. *)
let access_keys (g : t) (mc : int) (ix : int) (n : node)
    (f : int -> node -> unit) : unit =
  let ar = g.ar in
  match Arena.instr_op ar ix with
  | (Arena.Op_store | Arena.Op_array_store | Arena.Op_new_array) as op ->
    let s = access_sym ar ix op in
    Andersen.pts_iter_var g.pta ~mctx:mc (Arena.instr_base ar ix) (fun o ->
        f (hkey tag_write s (o lsl 1)) n)
  | (Arena.Op_load | Arena.Op_array_load | Arena.Op_array_length) as op ->
    let r = Andersen.pts_rep_of_var g.pta ~mctx:mc (Arena.instr_base ar ix) in
    if r >= 0 then f (hkey tag_read (access_sym ar ix op) (r lsl 1)) n
  | Arena.Op_static_store -> f (static_key ar ix tag_write) n
  | Arena.Op_static_load -> f (static_key ar ix tag_read) n
  | Arena.Op_call | Arena.Op_new | Arena.Op_other -> ()

(* Every (read, write) pair of read group [k]'s reads at or past node
   [floor] with the writes of each object its owner may point to (a
   static's one object is its owner). *)
let group_pairs (g : t) ~(floor : node) (k : int)
    (consider : node -> node -> unit) : unit =
  let hx = g.hx and s = hkey_sym k and owner = hkey_owner k in
  let r0 = Imap.find hx.hx_keys k in
  let meet o =
    cross hx ~r0 ~rfloor:floor ~w0:(Imap.find hx.hx_keys (hkey tag_write s o))
      ~wfloor:0 consider
  in
  if owner land 1 = 1 then meet owner
  else Andersen.pts_iter_rep g.pta (owner lsr 1) (fun o -> meet (o lsl 1))

(* Every (read, write) pair of write key [k]'s writes at or past node
   [floor] with each read group of its field whose owner may point to
   its object. *)
let write_pairs (g : t) ~(floor : node) (k : int)
    (consider : node -> node -> unit) : unit =
  let hx = g.hx and s = hkey_sym k and o = hkey_owner k in
  let w0 = Imap.find hx.hx_keys k in
  let c = ref (Imap.find hx.hx_keys (hkey tag_group s 0)) in
  while !c >= 0 do
    let owner = hx.hc_val.ev.(!c) in
    if
      if owner land 1 = 1 || o land 1 = 1 then owner = o
      else Andersen.pts_mem_rep g.pta (owner lsr 1) (o lsr 1)
    then
      cross hx ~r0:(Imap.find hx.hx_keys (hkey tag_read s owner)) ~rfloor:0 ~w0
        ~wfloor:floor consider;
    c := hx.hc_next.ev.(!c)
  done

(* Pass 3's candidate (read, write) pairs.  The same pair reappears once
   per (object, field) key the two share across contexts, so a set of
   the pairs seen lets each distinct pair into the buffer once, packed
   as [Imap.pack wn rn]: the scratch grows with the distinct pairs, not
   with the candidates or with the width of the graph. *)
type heap_pairs = { hp_seen : Iset.t; hp_pairs : ibuf }

let heap_pairs () : heap_pairs =
  { hp_seen = Iset.create (); hp_pairs = ibuf 64 }

(* Every candidate bumps the considered counter; a self pair is never a
   dependence. *)
let consider_pair (hp : heap_pairs) (rn : node) (wn : node) : unit =
  Slice_obs.bump c_heap_considered;
  if rn <> wn then begin
    let k = Imap.pack wn rn in
    if Iset.add hp.hp_seen k then ipush hp.hp_pairs k
  end

(* Emit the pairs ascending by write node then read node, so row order
   does not depend on the index's iteration order.  The pairs are
   distinct, so the emitted counter counts distinct heap edges
   exactly. *)
let emit_pairs (hp : heap_pairs)
    ~(emit : from:node -> on:node -> edge_kind -> unit) : unit =
  let pairs = hp.hp_pairs.ev and n = hp.hp_pairs.len in
  Isort.sort ~tmp:(Array.make n 0) pairs n;
  for i = 0 to n - 1 do
    let k = pairs.(i) in
    Slice_obs.bump c_heap_emitted;
    emit ~from:(Imap.pack_lo k) ~on:(Imap.pack_hi k) Producer_heap
  done

(* Arithmetic bytes of the retained heap index: its record, the key
   map's record and table, and the two cell columns' records and arrays,
   each block with its header.  O(1), and the same in every process. *)
let heap_index_bytes (g : t) : int =
  let hx = g.hx in
  8
  * (6 + 3 + (1 + Imap.words hx.hx_keys)
    + (2 * (3 + 1 + Array.length hx.hc_val.ev)))

let heap_index_cells (g : t) : int = g.hx.hc_live

let heap_index_repr (g : t) : Obj.t = Obj.repr g.hx

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
          ~on:(intern_stmt g cmc (Arena.term_stmt g.ar tx))
          Return_value
    done

(* Var-indexed scratch of the per-method passes, one per build or
   patch: a defining statement and a parameter index per variable, -1
   for none.  It grows to the largest method; each pass clears what it
   used. *)
type vars = { mutable v_def : int array; mutable v_param : int array }

let vars () : vars = { v_def = [||]; v_param = [||] }

(* [vs] ready for a method of [n] variables. *)
let vars_for (vs : vars) (n : int) : unit =
  if Array.length vs.v_def < n then begin
    vs.v_def <- Array.make n (-1);
    vs.v_param <- Array.make n (-1)
  end

let vars_clear (vs : vars) (n : int) : unit =
  Array.fill vs.v_def 0 n (-1);
  Array.fill vs.v_param 0 n (-1)

(* [vs] filled for arena method [am], whose variable count it returns:
   a variable's defining statement shifted left one bit, the low bit set
   when it is a [New] (a variable is defined once, SSA), and a
   parameter's index. *)
let vars_load (g : t) (vs : vars) (am : int) : int =
  let ar = g.ar in
  let nvars = Arena.num_vars ar am in
  vars_for vs nvars;
  let lo, hi = Arena.instr_span ar am in
  for ix = lo to hi - 1 do
    let d = Arena.instr_def ar ix in
    if d >= 0 then
      vs.v_def.(d) <-
        (Arena.instr_stmt ar ix lsl 1)
        lor if Arena.instr_op ar ix = Arena.Op_new then 1 else 0
  done;
  for i = 0 to Arena.num_params ar am - 1 do
    vs.v_param.(Arena.param_var ar am i) <- i
  done;
  nvars

(* The node defining variable [v] of context [mc], -1 for none. *)
let def_node (g : t) (vs : vars) (mc : int) (v : Instr.var) : node =
  if vs.v_def.(v) >= 0 then intern_stmt g mc (vs.v_def.(v) lsr 1)
  else if vs.v_param.(v) >= 0 then intern_formal g mc vs.v_param.(v)
  else -1

(* Pass 1 body: intraprocedural edges, and each heap access handed to
   [index] with its keys ([access_keys]), over arena method [am].  The
   SSA def map and param index are int scratch arrays, use lists are
   walked as packed CSR spans without allocating, and heap-access
   dispatch reads a tag column. *)
let intra_pass_arena (g : t) (vs : vars) ~(index : int -> node -> unit)
    ~(emit : from:node -> on:node -> edge_kind -> unit) (mc : int) (am : int) :
    unit =
  let pta = g.pta and ar = g.ar in
  let nvars = vars_load g vs am in
  let lo, hi = Arena.instr_span ar am in
  let use_edge (from : node) (v : Instr.var) (kind : edge_kind) : unit =
    if v >= 0 && v < nvars then begin
      let on = def_node g vs mc v in
      if on >= 0 then emit ~from ~on kind
    end
  in
  for ix = lo to hi - 1 do
    let s = Arena.instr_stmt ar ix in
    let n = intern_stmt g mc s in
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
    access_keys g mc ix n index
  done;
  let tlo, thi = Arena.term_span ar am in
  for tx = tlo to thi - 1 do
    let n = intern_stmt g mc (Arena.term_stmt ar tx) in
    Arena.term_uses_iter ar tx (fun v -> use_edge n v Producer_local)
  done;
  vars_clear vs nvars

(* Pass 2 body: formal -> actual edges (parameter passing), for arena
   method [am] as the CALLER.  The callee side (the formal node) is
   signature stable, which is what lets a patch keep formal nodes
   alive. *)
let params_pass (g : t) (vs : vars)
    ~(emit : from:node -> on:node -> edge_kind -> unit) (mc : int) (am : int) :
    unit =
  let pta = g.pta and ar = g.ar in
  let nvars = vars_load g vs am in
  let var_def = vs.v_def in
  let lo, hi = Arena.instr_span ar am in
  for ix = lo to hi - 1 do
    if Arena.instr_op ar ix = Arena.Op_call then begin
      let s = Arena.instr_stmt ar ix in
      (* pass 1 has interned the call *)
      let call = intern_stmt g mc s in
      (* A kept allocation needs its constructor in a Weiser-style
         slice: tie the New to the <init> invocation. *)
      let recv = Arena.instr_base ar ix in
      if recv >= 0 && var_def.(recv) >= 0 && var_def.(recv) land 1 = 1 then
        emit ~from:(intern_stmt g mc (var_def.(recv) lsr 1)) ~on:call
          Call_actual;
      List.iter
        (fun cmc ->
          let idx = ref 0 in
          Arena.args_iter ar ix (fun a ->
              let an = def_node g vs mc a in
              if an >= 0 then begin
                let actual = intern_actual g ~call !idx in
                emit ~from:(intern_formal g cmc !idx) ~on:actual Param_in;
                emit ~from:actual ~on:an Producer_local;
                (* statement closure for traditional slicing *)
                emit ~from:call ~on:actual Call_actual
              end;
              incr idx))
        (Andersen.call_targets pta ~mctx:mc ~stmt:s)
    end
  done;
  vars_clear vs nvars

(* Pass 4 body: control dependence edges for one method context, arena
   method [am], from its blocks' governors.  [entry_callers] are the
   call-site nodes invoking it: a block without governors is governed by
   the method's entry, so its statements depend on them. *)
let control_pass (g : t) ~(emit : from:node -> on:node -> edge_kind -> unit)
    ~(entry_callers : node list) (mc : int) (am : int) : unit =
  let ar = g.ar in
  let wire on n = List.iter (fun c -> emit ~from:n ~on:c Control) on in
  let tlo, thi = Arena.term_span ar am in
  for tx = tlo to thi - 1 do
    let gov = ref [] in
    Arena.governors_iter ar tx (fun gx ->
        gov := intern_stmt g mc (Arena.term_stmt ar gx) :: !gov);
    let on = if !gov = [] then entry_callers else List.rev !gov in
    let lo, hi = Arena.block_instrs ar tx in
    for ix = lo to hi - 1 do
      wire on (intern_stmt g mc (Arena.instr_stmt ar ix))
    done;
    wire on (intern_stmt g mc (Arena.term_stmt ar tx))
  done

let build ~(arena : Arena.t) (p : Program.t) (pta : Andersen.result) : t =
  (* Every method context with a body, with its arena method. *)
  let mcs =
    List.filter_map
      (fun (mc, mq, _) ->
        Option.map (fun am -> (mc, am)) (Arena.method_id arena mq))
      (Andersen.method_contexts pta)
  in
  (* Node capacity: pass 1 interns one [Stmt] node per arena row of each
     context, and formals and actuals add about a third as many again
     (34,128 nodes for 25,850 rows at 30k); reserving half again sizes
     the identity column and index once, not doubled up to the graph. *)
  let rows =
    List.fold_left (fun acc (_, am) -> acc + Arena.num_stmts arena am) 0 mcs
  in
  let cap = max 1024 (rows + (rows / 2)) in
  let g =
    { p;
      pta;
      locs = { lc_loc = [||]; lc_key = [||]; lc_files = [||]; lc_base = [| 0 |] };
      nkey = Array.make cap 0;
      num_nodes = 0;
      index = Imap.create ~capacity:cap ();
      csr = no_csr;  (* the passes only intern and emit; see below *)
      hx = heap_index ();
      ar = arena;
      kinds = [||];
      scalar_stmts = 0;
      ov_deps = [||];
      ov_uses = [||];
      dead = [||];
      mark = [||];
      stamp = 0;
      dead_count = 0;
      generation = 0;
      patched = false }
  in
  let log = ibuf 4096 in
  let emit ~from ~on kind = log_edge log ~from ~on kind in
  let vs = vars () in
  (* Pass 1: intraprocedural edges + heap access indexing, over the
     arena's rows. *)
  Slice_obs.span "sdg.intra" (fun () ->
      let index = index_access g.hx in
      List.iter (fun (mc, am) -> intra_pass_arena g vs ~index ~emit mc am) mcs);
  (* Pass 2: formal -> actual edges (parameter passing). *)
  Slice_obs.span "sdg.params" (fun () ->
      List.iter (fun (mc, am) -> params_pass g vs ~emit mc am) mcs);
  (* Pass 3: heap dependence edges (store -> load, direct).  Each read
     group meets the writes of every object its representative may point
     to. *)
  Slice_obs.span "sdg.heap" (fun () ->
      let hp = heap_pairs () in
      let consider = consider_pair hp in
      Imap.iter
        (fun k _ ->
          if hkey_tag k = tag_read then group_pairs g ~floor:0 k consider)
        g.hx.hx_keys;
      emit_pairs hp ~emit);
  (* Pass 4: control dependence edges. *)
  Slice_obs.span "sdg.control" (fun () ->
    (* reverse call graph: callee mctx -> caller call-site nodes *)
    let callers : (int, node list ref) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (mc, am) ->
        let lo, hi = Arena.instr_span arena am in
        for ix = lo to hi - 1 do
          if Arena.instr_op arena ix = Arena.Op_call then begin
            let s = Arena.instr_stmt arena ix in
            List.iter
              (fun cmc -> push callers cmc (intern_stmt g mc s))
              (Andersen.call_targets pta ~mctx:mc ~stmt:s)
          end
        done)
      mcs;
    List.iter
      (fun (mc, am) ->
        let entry_callers =
          match Hashtbl.find_opt callers mc with Some r -> !r | None -> []
        in
        control_pass g ~emit ~entry_callers mc am)
      mcs);
  (* One count-then-fill pass turns the log into the CSR.  The record
     copy is the finished graph; the passes above are done with [g]. *)
  let csr, kinds =
    Slice_obs.span "sdg.csr" (fun () -> csr_of_log g.num_nodes log)
  in
  let n = g.num_nodes and edges = csr.deps_off.(g.num_nodes) in
  (* distinct statement ids among the [Stmt] nodes *)
  let seen = Bytes.make (Program.stmt_count p) '\000' in
  let scalar_stmts = ref 0 in
  for i = 0 to n - 1 do
    let k = g.nkey.(i) in
    let s = Imap.pack_lo k in
    if key_kind k = kind_stmt && Bytes.get seen s = '\000' then begin
      Bytes.set seen s '\001';
      incr scalar_stmts
    end
  done;
  let g = { g with csr; kinds; scalar_stmts = !scalar_stmts } in
  Slice_obs.add c_csr_nodes n;
  Slice_obs.add c_csr_edges edges;
  (* two offset arrays + two (dst, kind) pairs, 8 bytes per word *)
  Slice_obs.max_gauge g_csr_bytes
    (float_of_int (8 * ((2 * (n + 1)) + (4 * edges))));
  write_all_locs g;
  g

(* ------------------------------------------------------------------ *)
(* Incremental patches                                                 *)
(* ------------------------------------------------------------------ *)

let generation (g : t) = g.generation

let is_dead (g : t) (n : node) : bool =
  Array.length g.dead > 0 && g.dead.(n)

let num_live_nodes (g : t) = g.num_nodes - g.dead_count

(* The round trip of node identity: each live node's decoded descriptor
   packs to a key the index leads back to it by, and no two nodes, live
   or retired, share a descriptor. *)
let check_index (g : t) : (unit, string) result =
  let find = function
    | Stmt (mc, s) -> Imap.find g.index (desc_key kind_stmt mc s)
    | Formal (mc, idx) -> Imap.find g.index (desc_key kind_formal mc idx)
    | Actual_in (mc, s, idx) ->
      let call = Imap.find g.index (desc_key kind_stmt mc s) in
      if call < 0 then -1 else Imap.find g.index (desc_key kind_actual call idx)
  in
  let bad = ref None in
  for n = g.num_nodes - 1 downto 0 do
    if not (is_dead g n) then begin
      let m = find (node_desc g n) in
      if m <> n then
        bad := Some (Printf.sprintf "node %d: its descriptor finds node %d" n m)
    end
  done;
  let descs = Array.init g.num_nodes (node_desc g) in
  let ids = Array.init g.num_nodes Fun.id in
  Array.sort (fun a b -> compare descs.(a) descs.(b)) ids;
  for i = 1 to g.num_nodes - 1 do
    if descs.(ids.(i)) = descs.(ids.(i - 1)) then
      bad :=
        Some
          (Printf.sprintf "nodes %d and %d share a descriptor" ids.(i - 1)
             ids.(i))
  done;
  match !bad with None -> Ok () | Some msg -> Error msg

(* The live edge census: counted by [csr_of_log] at build and adjusted
   by every patch, so stats for a patched handle need not recount the
   graph (and cannot use the process-wide build counters). *)
let edge_kind_counts (g : t) : (edge_kind * int) list =
  List.map (fun k -> (k, g.kinds.(edge_kind_tag k))) all_edge_kinds

type patch_stats = {
  ps_nodes_dead : int;
  ps_nodes_new : int;
  ps_rows_touched : int;
  ps_segments_refrozen : int;
  ps_segments_total : int;
}

let empty_row = Some [||]

(* Number of bits of [n] (0 for 0). *)
let bit_length (n : int) : int =
  let rec go n b = if n = 0 then b else go (n lsr 1) (b + 1) in
  go n 0

(* The sorted distinct union of [touch]'s nodes and the keys of the
   entries [idx] lists, which it lists in key order. *)
let merge_keys (idx : int array) (key : int -> int) (touch : ibuf) :
    node array =
  let t = Array.sub touch.ev 0 touch.len in
  Isort.sort ~tmp:(Array.make touch.len 0) t touch.len;
  let out = Array.make (Array.length idx + Array.length t) 0 in
  let n = ref 0 in
  let put x =
    if !n = 0 || out.(!n - 1) <> x then begin
      out.(!n) <- x;
      incr n
    end
  in
  let i = ref 0 and j = ref 0 in
  while !i < Array.length idx || !j < Array.length t do
    if !j >= Array.length t
       || (!i < Array.length idx && key idx.(!i) <= t.(!j))
    then begin
      put (key idx.(!i));
      incr i
    end
    else begin
      put t.(!j);
      incr j
    end
  done;
  Array.sub out 0 !n

(* Commit a patch session's rows as overlays.  [log] holds the session's
   emissions in order; [deps_touch] and [uses_touch] name the live rows
   that lost an edge onto or from a retired node.  Each rewritten row
   lists the edges the patch added, newest first, then its surviving
   edges in their old order.  An emission repeating an edge its row
   already holds (old, or added earlier) is dropped: the row's edges are
   stamped into [g.mark] under a fresh [g.stamp], with one bit per kind.
   The added edges are counted into [g.kinds] and the edge counters.
   Returns the rewritten rows of each direction, ascending. *)
let commit_rows (g : t) ~(old_num : int) (log : ibuf) ~(deps_touch : ibuf)
    ~(uses_touch : ibuf) : node array * node array =
  let m = log.len / 2 in
  let from = log_from log and on = log_on log and tag = log_tag log in
  (* Log entries ordered by [key], then by emission: [idx] is
     ascending, so packing each entry under its key (a node id, which
     leaves room above an entry's bits) and sorting the packed ints is
     the stable sort by key. *)
  let sorted_by key idx =
    let n = Array.length idx and sh = bit_length m in
    for i = 0 to n - 1 do
      idx.(i) <- (key idx.(i) lsl sh) lor idx.(i)
    done;
    Isort.sort ~tmp:(Array.make n 0) idx n;
    let low = (1 lsl sh) - 1 in
    for i = 0 to n - 1 do
      idx.(i) <- idx.(i) land low
    done;
    idx
  in
  (* A row of [added] new edges, [old_iter]'s surviving ones after
     them, allocated once at its final length. *)
  let write_row ~added ~fill_added old_iter =
    let survivors = ref 0 in
    old_iter (fun o _ -> if not g.dead.(o) then incr survivors);
    let row = Array.make (added + !survivors) 0 in
    let i = ref 0 in
    let put d t =
      row.(!i) <- (d lsl 3) lor t;
      incr i
    in
    fill_added put;
    old_iter (fun o t -> if not g.dead.(o) then put o t);
    Some row
  in
  let no_row _ = () in
  (* Backward rows: each source's emissions, in emission order, are
     checked against its row, then the row is written. *)
  let by_from = sorted_by from (Array.init m Fun.id) in
  let deps_rows = merge_keys by_from from deps_touch in
  let p = ref 0 in
  Array.iter
    (fun f ->
      g.stamp <- g.stamp + 1;
      let st = g.stamp lsl 8 in
      (* is (o, t) new to this row?  marks it as present *)
      let fresh o t =
        let v = g.mark.(o) in
        let v = if v land lnot 255 = st then v else st in
        v land (1 lsl t) = 0
        && begin
          g.mark.(o) <- v lor (1 lsl t);
          true
        end
      in
      let old_iter = if f < old_num then deps_iter g f else no_row in
      old_iter (fun o t -> ignore (fresh o t));
      let first = !p and added = ref 0 in
      while !p < m && from by_from.(!p) = f do
        let e = by_from.(!p) in
        let t = tag e in
        if fresh (on e) t then begin
          incr added;
          g.kinds.(t) <- g.kinds.(t) + 1;
          Slice_obs.bump c_edges;
          Slice_obs.bump (edge_counter (edge_kind_of_tag t))
        end
        else log_drop log e;
        incr p
      done;
      let last = !p - 1 in
      g.ov_deps.(f) <-
        write_row ~added:!added
          ~fill_added:(fun put ->
            for i = last downto first do
              let e = by_from.(i) in
              if tag e >= 0 then put (on e) (tag e)
            done)
          old_iter)
    deps_rows;
  (* Forward rows: each target's added edges, newest first, then its
     surviving ones. *)
  let kept = ref 0 in
  for e = 0 to m - 1 do
    if tag e >= 0 then incr kept
  done;
  let by_on = Array.make !kept 0 in
  kept := 0;
  for e = 0 to m - 1 do
    if tag e >= 0 then begin
      by_on.(!kept) <- e;
      incr kept
    end
  done;
  let by_on = sorted_by on by_on in
  let uses_rows = merge_keys by_on on uses_touch in
  let p = ref 0 in
  Array.iter
    (fun o ->
      let first = !p in
      while !p < Array.length by_on && on by_on.(!p) = o do
        incr p
      done;
      let last = !p - 1 in
      g.ov_uses.(o) <-
        write_row ~added:(last - first + 1)
          ~fill_added:(fun put ->
            for i = last downto first do
              let e = by_on.(i) in
              put (from e) (tag e)
            done)
          (if o < old_num then uses_iter g o else no_row))
    uses_rows;
  (deps_rows, uses_rows)

(* Patch the graph onto re-lowered method bodies, in place.

   Precondition (established by [Engine]): the changed methods'
   constraint summaries are unchanged, the program's method records
   already hold the NEW bodies, and the points-to result has been
   re-keyed onto the new statement ids ([Andersen.rekey_sites]) — so
   every pointer/call-graph fact is already expressed in new ids and
   only the dependence rows need repair.

   The patch retires the changed methods' [Stmt]/[Actual_in] nodes
   (their statement ids no longer exist), found through the old bodies'
   arena rows; it KEEPS their [Formal] nodes (signatures are stable under
   summary equality, so caller-side [Param_in] edges survive untouched).
   It re-lowers the new bodies into the arena and reruns the shared
   per-method passes over them (pass 1 over their arena rows, as in
   [build]), wires new heap accesses against the retained index, and
   repairs the two cross-method edge classes whose ALIVE source lost a
   dead target: [Return_value] (re-enumerated from the callee's new
   arena rows) and [Control] (entry-governed callee statements onto the
   changed caller's call sites, moved via [site_remap]).  [Param_in] and
   [Producer_heap] losses need no explicit repair — the re-run passes
   re-emit them.

   Work is bounded by the edit: the retired and new nodes, the rows
   adjacent to them, the heap-index keys the retired accesses were
   indexed under and the changed methods' statements.  Touched rows are
   committed as overlays over the immutable CSR; node ids never move, so
   resident scratch buffers stay valid.  The location columns, the edge
   census and the scalar-statement count are updated in place; the
   arena's re-lower keeps its statement index in step. *)
let patch (g : t) ~(changed : Instr.method_qname list)
    ~(site_remap : Instr.stmt_id -> Instr.stmt_id option) : patch_stats =
  Slice_obs.span "sdg.patch" (fun () ->
  (* First patch on this graph: bring the per-node patch state and the
     location columns up to capacity (intern keeps them in step from
     then on). *)
  let cap = Array.length g.nkey in
  if Array.length g.dead < cap then begin
    let grow a default =
      let b = Array.make cap default in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    g.ov_deps <- grow g.ov_deps None;
    g.ov_uses <- grow g.ov_uses None;
    g.dead <- grow g.dead false;
    g.mark <- grow g.mark 0;
    g.locs.lc_loc <- grow g.locs.lc_loc Loc.none;
    g.locs.lc_key <- grow g.locs.lc_key (-1)
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
  (* [f mcs am] over each changed method: its contexts and arena id,
     whose rows hold the OLD body until [Arena.relower] below. *)
  let old_bodies f =
    List.iter
      (fun mq ->
        f (Andersen.mctxs_of_method g.pta mq)
          (Option.get (Arena.method_id g.ar mq)))
      changed
  in
  let deps_touch = ibuf 256 and uses_touch = ibuf 256 in
  let losses : (node * edge_kind * node_desc) list ref = ref [] in
  let newly_dead, dead_stmts, ctrl_deps =
    Slice_obs.span "sdg.patch.disconnect" (fun () ->
    (* Retire the old bodies' statement-bound nodes. *)
    let retired = ref [] and dead_stmts = ref 0 in
    let retire k =
      let n = Imap.find g.index k in
      n >= 0
      && begin
        g.dead.(n) <- true;
        g.dead_count <- g.dead_count + 1;
        Imap.remove g.index k;
        retired := n :: !retired;
        true
      end
    in
    old_bodies (fun mcs am ->
        let retire_stmt s =
          if
            List.fold_left
              (fun any mc -> retire (desc_key kind_stmt mc s) || any)
              false mcs
          then incr dead_stmts
        in
        let lo, hi = Arena.instr_span g.ar am in
        for ix = lo to hi - 1 do
          let s = Arena.instr_stmt g.ar ix in
          (* a call's actuals are keyed on its node, read before retiring it *)
          let calls =
            if Arena.instr_op g.ar ix = Arena.Op_call then
              List.map (fun mc -> Imap.find g.index (desc_key kind_stmt mc s)) mcs
            else []
          in
          retire_stmt s;
          if calls <> [] then begin
            let i = ref 0 in
            Arena.args_iter g.ar ix (fun _ ->
                List.iter
                  (fun call ->
                    if call >= 0 then
                      ignore (retire (desc_key kind_actual call !i)))
                  calls;
                incr i)
          end
        done;
        let lo, hi = Arena.term_span g.ar am in
        for tx = lo to hi - 1 do
          retire_stmt (Arena.term_stmt g.ar tx)
        done);
    (* Purge the retired accesses from the retained heap index: the
       dead cells under each key pass 1 indexed them by ([access_keys])
       go to the free list. *)
    let keys = ibuf 64 and seen = Iset.create () in
    let note k _ = if Iset.add seen k then ipush keys k in
    old_bodies (fun mcs am ->
        let lo, hi = Arena.instr_span g.ar am in
        for ix = lo to hi - 1 do
          List.iter (fun mc -> access_keys g mc ix (-1) note) mcs
        done);
    for i = 0 to keys.len - 1 do
      purge_key g keys.ev.(i)
    done;
    (* Disconnect: every edge at a dead node leaves the census; the live
       rows across such an edge are rewritten at commit, and each live
       source that lost a [Return_value] or [Control] dependence is
       recorded (the loss classes needing repair).  The dead nodes'
       own [Control] dependences are kept for pass 4. *)
    let newly_dead = List.sort (fun a b -> compare b a) !retired in
    let uncount t = g.kinds.(t) <- g.kinds.(t) - 1 in
    let ctrl_deps = ref [] in
    List.iter
      (fun d ->
        deps_iter g d (fun on t ->
            uncount t;
            if not g.dead.(on) then ipush uses_touch on;
            if edge_kind_of_tag t = Control then
              ctrl_deps := (d, on) :: !ctrl_deps);
        uses_iter g d (fun from t ->
            if not g.dead.(from) then begin
              uncount t;
              let k = edge_kind_of_tag t in
              ipush deps_touch from;
              match k with
              | Return_value | Control ->
                losses := (from, k, node_desc g d) :: !losses
              | Producer_local | Producer_heap | Param_in | Base_pointer
              | Index | Call_actual -> ()
            end))
      newly_dead;
    (newly_dead, !dead_stmts, !ctrl_deps))
  in
  (* The session's emissions, committed as rows below. *)
  let log = ibuf 1024 in
  let emit ~from ~on kind = log_edge log ~from ~on kind in
  let vs = vars () in
  (* The keys the new bodies' accesses are indexed under. *)
  let keys = ibuf 64 and seen = Iset.create () in
  let index k n =
    index_access g.hx k n;
    if Iset.add seen k then ipush keys k
  in
  (* The changed method contexts with their arena methods, read once the
     new bodies are re-lowered (a re-lower may renumber methods). *)
  let changed_mcs =
    Slice_obs.span "sdg.patch.intra" (fun () ->
        Arena.relower g.ar g.p changed;
        let changed_mcs =
          Hashtbl.fold
            (fun mc () acc ->
              let mq, _ = Andersen.mctx_info g.pta mc in
              (mc, Option.get (Arena.method_id g.ar mq)) :: acc)
            cm []
        in
        (* Pass 1 over the new bodies, heap accesses indexed into the
           retained index. *)
        List.iter
          (fun (mc, am) -> intra_pass_arena g vs ~index ~emit mc am)
          changed_mcs;
        (* Pass 2: the changed methods as callers. *)
        List.iter (fun (mc, am) -> params_pass g vs ~emit mc am) changed_mcs;
        changed_mcs)
  in
  Slice_obs.span "sdg.patch.heap" (fun () ->
  (* Pass 3: new reads x all writes and all reads x new writes (the new
     x new corner lands in both sweeps; the sorted emission dedups it).
     Only pass 1 over the new bodies interned nodes that access the heap,
     and it ran after the purge, so a key's new entries are the front of
     its chain, down to the first node below [old_num]. *)
  let hp = heap_pairs () in
  let consider = consider_pair hp in
  for i = 0 to keys.len - 1 do
    let k = keys.ev.(i) in
    if hkey_tag k = tag_read then group_pairs g ~floor:old_num k consider
    else write_pairs g ~floor:old_num k consider
  done;
  emit_pairs hp ~emit);
  Slice_obs.span "sdg.patch.control" (fun () ->
  (* Pass 4: control dependence inside the new bodies.  A changed
     context's entry callers are the call sites its old entry-governed
     statements were control-dependent on.  Every body has such a
     statement (the entry block has no predecessor, so no branch governs
     it), and a [Control] edge leads either to a governor, a terminator of
     the same old body, or to an entry caller.  A live target is an entry
     caller; a dead one is a call site of a changed caller when
     [site_remap] moves it (terminators are not sites), and stands for
     the moved site.  The solved call graph, already keyed on new ids,
     confirms each one. *)
  let callers : (int, node list ref) Hashtbl.t = Hashtbl.create 16 in
  let visited : (int * node, unit) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (d, on) ->
      match (node_desc g d, node_desc g on) with
      | Stmt (mc, _), Stmt (caller, s) when not (Hashtbl.mem visited (mc, on))
        -> (
        Hashtbl.replace visited (mc, on) ();
        match if g.dead.(on) then site_remap s else Some s with
        | None -> ()
        | Some s' ->
          Slice_obs.bump c_patch_call_sites;
          if List.mem mc (Andersen.call_targets g.pta ~mctx:caller ~stmt:s')
          then push callers mc (intern_stmt g caller s'))
      | _ -> ())
    ctrl_deps;
  List.iter
    (fun (mc, am) ->
      let entry_callers =
        match Hashtbl.find_opt callers mc with Some r -> !r | None -> []
      in
      control_pass g ~emit ~entry_callers mc am)
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
        | Some s' -> emit ~from ~on:(intern_stmt g cmc s') Control
        | None -> ())
      | _ -> ())
    !losses);
  (* Commit: touched rows become overlays; dead rows empty; new nodes
     with no edges get explicit empty rows (they are past the CSR). *)
  let rows_touched, seg_touched =
    Slice_obs.span "sdg.patch.commit" (fun () ->
    let deps_rows, uses_rows =
      commit_rows g ~old_num log ~deps_touch ~uses_touch
    in
    for n = old_num to g.num_nodes - 1 do
      if g.ov_deps.(n) = None then g.ov_deps.(n) <- empty_row;
      if g.ov_uses.(n) = None then g.ov_uses.(n) <- empty_row
    done;
    List.iter
      (fun d ->
        g.ov_deps.(d) <- empty_row;
        g.ov_uses.(d) <- empty_row)
      newly_dead;
    (* Segments = method contexts; refrozen = contexts whose rows moved. *)
    let seg_touched : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    Hashtbl.iter (fun mc () -> Hashtbl.replace seg_touched mc ()) cm;
    let touch n = Hashtbl.replace seg_touched (node_mctx g n) () in
    Array.iter touch deps_rows;
    Array.iter touch uses_rows;
    let rows =
      merge_keys deps_rows Fun.id { ev = uses_rows; len = Array.length uses_rows }
    in
    (Array.length rows, Hashtbl.length seg_touched))
  in
  (* The location columns are cleared for the retired nodes and written
     for the new ones. *)
  Slice_obs.span "sdg.patch.locs" (fun () ->
      List.iter
        (fun d ->
          g.locs.lc_loc.(d) <- Loc.none;
          g.locs.lc_key.(d) <- -1)
        newly_dead;
      write_locs g old_num g.num_nodes);
  (* The scalar-statement count: the retired statements leave it, the
     new nodes' distinct statements join it. *)
  let fresh_stmts = Iset.create () in
  for n = old_num to g.num_nodes - 1 do
    let k = g.nkey.(n) in
    if key_kind k = kind_stmt then ignore (Iset.add fresh_stmts (Imap.pack_lo k))
  done;
  g.scalar_stmts <- g.scalar_stmts - dead_stmts + Iset.cardinal fresh_stmts;
  g.generation <- g.generation + 1;
  g.patched <- true;
  { ps_nodes_dead = List.length newly_dead;
    ps_nodes_new = g.num_nodes - old_num;
    ps_rows_touched = rows_touched;
    ps_segments_refrozen = seg_touched;
    ps_segments_total =
      max (Andersen.num_call_graph_nodes g.pta) seg_touched })

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
   key column.  Dead nodes of a patched graph have no location (a patch
   clears their columns); the explicit check keeps that an invariant of
   this function rather than of the columns. *)
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
let num_scalar_statements (g : t) : int = g.scalar_stmts

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
    deps_iter g n (fun dep t ->
        let kind = edge_kind_of_tag t in
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
