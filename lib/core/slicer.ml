(* Backward slicing as graph reachability over the classified SDG
   (paper, section 5.2).

   The mode selects which dependence edges are followed:
   - [Thin]: producer edges only — the thin slice;
   - [Thin_with_aliasing k]: additionally crosses up to [k] base-pointer or
     index edges along any path, the controlled one-level aliasing
     expansion used for nanoxml-5 in the evaluation (section 6.2);
   - [Traditional_data]: all flow dependences including base pointers and
     indices, no control — the "traditional data slicer" the paper
     compares against;
   - [Traditional_full]: also follows control dependences.

   The walk itself runs on the graph's CSR rows with flat scratch
   buffers: a byte array of per-node best budgets doubling as the
   visited set, an entry-unique int ring deque, and a touched-node log
   so the buffer reset costs O(slice), not O(graph) — no Hashtbl, no
   Queue, no per-row list allocation on the hot path.  The rows hand
   the walk each edge's kind as its int tag, the mode's policy is a
   table indexed by that tag, and one edge callback serves the whole
   walk, so a walk allocates nothing per visited node.

   Emission rule: a node-list result is the touched log in ascending
   node order.  When the slice fills at least a quarter of the id range
   [lo, hi] it touched, [best] is scanned over [lo, hi] — O(hi - lo),
   at most four steps per member; otherwise the log is sorted by the
   radix kernel [Slice_util.Isort], O(slice) per 8-bit digit of the
   range.  Either way emission stays within the slice's own cost, never
   O(graph).

   The line projection stamps the graph's dense line keys in a resident
   int array (the first node seen per key, all-zero between queries),
   collects the distinct keys and emits them in key order — (file, line)
   order — through the same kernel.  A line-number answer projects the
   walk's touched log directly, so it never builds the node list.
   After the seed lookup nothing in a query hashes, compares or visits
   per graph node.  The seed implementation (Hashtbl + Queue + sort over
   adjacency lists) is kept as a test oracle,
   [Slice_oracle.Reference_walk]. *)

type mode =
  | Thin
  | Thin_with_aliasing of int
  | Traditional_data
  | Traditional_full

(* Telemetry: traversal effort (shared by backward and forward walks). *)
let c_nodes_visited = Slice_obs.counter "slicer.nodes_visited"
let c_edges_followed = Slice_obs.counter "slicer.edges_followed"
let c_edges_skipped = Slice_obs.counter "slicer.edges_skipped"
let c_edges_costly = Slice_obs.counter "slicer.edges_costly"
let c_budget_spent = Slice_obs.counter "slicer.budget_spent"
let c_slices = Slice_obs.counter "slicer.slices_computed"
let g_frontier_peak = Slice_obs.gauge "slicer.frontier_peak"
let g_scratch_bytes = Slice_obs.gauge "slicer.scratch_bytes"
let h_slice_nodes = Slice_obs.histogram "slicer.slice_nodes"

(* BFS layer of each member at first visit, observed only by walks that
   record provenance. *)
let h_bfs_distance = Slice_obs.histogram "slicer.bfs_distance"

let mode_to_string = function
  | Thin -> "thin"
  | Thin_with_aliasing k -> Printf.sprintf "thin+alias%d" k
  | Traditional_data -> "traditional-data"
  | Traditional_full -> "traditional-full"

(* Accepts both the CLI spellings ("thin", "trad", "full", "alias:K") and
   the [mode_to_string] round-trip forms, so every driver — cmdliner
   conv, serve protocol, repro files — parses modes through one place. *)
let mode_of_string (s : string) : mode option =
  let prefixed p =
    String.length s > String.length p && String.sub s 0 (String.length p) = p
  in
  let int_suffix p =
    int_of_string_opt (String.sub s (String.length p) (String.length s - String.length p))
  in
  match s with
  | "thin" -> Some Thin
  | "trad" | "traditional" | "traditional-data" -> Some Traditional_data
  | "full" | "traditional-full" -> Some Traditional_full
  | _ ->
    if prefixed "alias:" then
      Option.map (fun k -> Thin_with_aliasing k) (int_suffix "alias:")
    else if prefixed "thin+alias" then
      Option.map (fun k -> Thin_with_aliasing k) (int_suffix "thin+alias")
    else None

(* Which edges may be followed, and at what base-pointer budget cost. *)
let edge_policy (mode : mode) (kind : Sdg.edge_kind) : [ `Follow | `Costly | `Skip ]
    =
  match (mode, kind) with
  | _, (Sdg.Producer_local | Sdg.Producer_heap | Sdg.Param_in | Sdg.Return_value)
    -> `Follow
  | Thin, (Sdg.Base_pointer | Sdg.Index | Sdg.Call_actual | Sdg.Control) -> `Skip
  | Thin_with_aliasing _, (Sdg.Base_pointer | Sdg.Index) -> `Costly
  | Thin_with_aliasing _, (Sdg.Call_actual | Sdg.Control) -> `Skip
  | Traditional_data, (Sdg.Base_pointer | Sdg.Index | Sdg.Call_actual) -> `Follow
  | Traditional_data, Sdg.Control -> `Skip
  | Traditional_full, (Sdg.Base_pointer | Sdg.Index | Sdg.Call_actual | Sdg.Control)
    -> `Follow

(* [edge_policy] as tables indexed by edge-kind tag, one per mode shape
   (the aliasing budget does not change the policy), built at module
   initialisation: entries are [pol_follow], [pol_costly] or
   [pol_skip]. *)
let pol_follow = 0
let pol_costly = 1
let pol_skip = 2

let policy_of mode : int array =
  Array.init 8 (fun t ->
      match edge_policy mode (Sdg.edge_kind_of_tag t) with
      | `Follow -> pol_follow
      | `Costly -> pol_costly
      | `Skip -> pol_skip)

let thin_policy = policy_of Thin
let alias_policy = policy_of (Thin_with_aliasing 1)
let data_policy = policy_of Traditional_data
let full_policy = policy_of Traditional_full

let policy_table = function
  | Thin -> thin_policy
  | Thin_with_aliasing _ -> alias_policy
  | Traditional_data -> data_policy
  | Traditional_full -> full_policy

(* Budgets are stored in a byte each by the CSR walk; [initial_budget]
   saturates at [max_aliasing_budget] for EVERY implementation (CSR, the
   reference walk oracle, the BFS inspection metric) — the clamp lives
   here, in one place, precisely so the walks cannot disagree at the
   boundary (the old code clamped only inside the CSR walk, so
   [Thin_with_aliasing 255] meant 255 to the reference walk but 254 to
   the CSR walk).  Indistinguishable in practice: exceeding it would
   need a producer-free path crossing more than 254 base-pointer/index
   edges. *)
let max_aliasing_budget = 254

let initial_budget = function
  | Thin | Traditional_data | Traditional_full -> 0
  | Thin_with_aliasing k -> min (max 0 k) max_aliasing_budget

(* ------------------------------------------------------------------ *)
(* The CSR walk                                                        *)
(* ------------------------------------------------------------------ *)

(* Reusable per-walk scratch.  [best] stores, per node, 0 for "never
   reached" or (best remaining budget + 1): the visited set and the
   budget table in one byte array.  [queued] (a dense [Bits] set — one
   bit per node is all a membership flag needs) marks nodes currently in
   the ring so every node occupies at most one queue slot (the
   duplicate-enqueue fix: the old walk re-enqueued a node on every
   budget improvement, up to k+1 times under [Thin_with_aliasing k],
   inflating [slicer.frontier_peak]).  The ring therefore never holds
   more than [cap] entries and [cap + 1] slots suffice.

   [touched] logs each node on its FIRST visit.  It serves double duty:
   the slice result is the sorted touched prefix (or its line
   projection), and after emitting it the walk zeroes exactly those
   [best] entries, restoring the all-zero invariant.  Between walks
   [best] and [queued] are therefore always all-zero, so a walk costs
   O(slice + edges scanned), never O(graph) — the representative seeds
   of the BENCH suite produce slices several orders of magnitude
   smaller than the SDG, and an O(num_nodes) [Bytes.fill] + full scan
   per slice would dominate the walk itself.

   [lines] is the line projection's stamp: per line key, 0 or the first
   node seen with that key + 1, all-zero between projections.  Between
   walks the ring and the touched log hold nothing, so the projection
   collects its distinct keys in the ring and sorts them with the log
   as the kernel's spare buffer. *)
type scratch = {
  mutable cap : int;           (* number of nodes the buffers cover *)
  mutable best : Bytes.t;      (* cap bytes, all-zero between walks *)
  mutable queued : Slice_util.Bits.t;
                               (* dense bitset, all-clear between walks;
                                  mutable so [shrink_shared_scratch] can
                                  swap in a smaller one ([Bits.clear]
                                  keeps the backing store) *)
  mutable ring : int array;    (* cap + 1 slots *)
  mutable touched : int array; (* cap slots; first-visit log *)
  mutable lines : int array;   (* one slot per line key; all-zero
                                  between projections *)
}

(* The one walk scratch, shared by every traversal: slicing is not
   re-entrant (edge callbacks never start another walk), so a single
   buffer set suffices and per-slice allocation stays O(slice).  Empty
   until the first walk sizes it. *)
let shared : scratch =
  { cap = 0;
    best = Bytes.empty;
    queued = Slice_util.Bits.create ~capacity:1 ();
    ring = [| 0 |];
    touched = [||];
    lines = [||] }

(* Grow-only: the buffers need no clearing because every walk zeroes
   exactly the entries it touched before returning ([queued] grows on
   demand inside [Bits]). *)
let ensure_capacity (s : scratch) (n : int) : unit =
  if s.cap < n then begin
    s.cap <- n;
    s.best <- Bytes.make n '\000';
    s.ring <- Array.make (n + 1) 0;
    s.touched <- Array.make n 0
  end

let shared_scratch_capacity () : int = shared.cap

(* Resident footprint of the buffers, in bytes: [best] is one byte per
   node, the ring, touched log and line stamp are boxed-free int arrays
   (8 bytes a slot), and [queued] reports its backing words.
   Arithmetic over the field sizes — never [Obj.reachable_words] — so
   the figure is deterministic across runs and safe to emit in
   byte-compared output. *)
let scratch_bytes (s : scratch) : int =
  s.cap
  + (8 * Slice_util.Bits.words s.queued)
  + (8 * Array.length s.ring)
  + (8 * Array.length s.touched)
  + (8 * Array.length s.lines)

(* The release path for long-lived processes: a one-off mega-program
   query must not pin its peak buffers for the process's lifetime.  The
   buffers are all-zero between walks, so a rebuild at the smaller size
   preserves every invariant; [keep] is clamped to at least 1.  The
   line stamp is dropped with them and regrows on the next projection.
   Growing back later is just [ensure_capacity]. *)
let shrink_shared_scratch ~(keep : int) : unit =
  let s = shared and n = max 1 keep in
  if s.cap > n then begin
    s.cap <- n;
    s.best <- Bytes.make n '\000';
    s.queued <- Slice_util.Bits.create ~capacity:n ();
    s.ring <- Array.make (n + 1) 0;
    s.touched <- Array.make n 0;
    s.lines <- [||]
  end

(* The walks' node-list emission (see the header's emission rule): the
   first [size] entries of [touched] — each node once — as an ascending
   list, zeroing their [best] entries to restore the all-zero invariant
   between walks.  The ring is free once a walk ends, so it is the
   kernel's spare buffer. *)
let emit_sorted (s : scratch) (size : int) : Sdg.node list =
  let best = s.best and touched = s.touched in
  let lo = ref max_int and hi = ref (-1) in
  for i = 0 to size - 1 do
    let v = Array.unsafe_get touched i in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  let out = ref [] in
  if size > 0 && !hi - !lo < 4 * size then
    for v = !hi downto !lo do
      if Bytes.unsafe_get best v <> '\000' then begin
        Bytes.unsafe_set best v '\000';
        out := v :: !out
      end
    done
  else begin
    Slice_util.Isort.sort ~tmp:s.ring touched size;
    for i = size - 1 downto 0 do
      let v = Array.unsafe_get touched i in
      Bytes.unsafe_set best v '\000';
      out := v :: !out
    done
  end;
  !out

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

(* Opt-in side tables recorded by [walk_scratch ?prov]: per node, the
   discovering parent, the kind of the discovering edge (as a
   [Sdg.edge_kind_tag]), the best remaining aliasing budget on arrival,
   and the BFS layer at FIRST visit.  Validity is a generation stamp
   ([pv_stamp.(n) = pv_gen]), so starting a new recorded walk
   invalidates the previous walk's records in O(1) and the arrays never
   need clearing; like the walk scratch the tables are grow-only, but
   unlike it they are caller-owned and keep their contents AFTER the
   walk — that is the whole point:
   [witness] and [distance] read them later.

   The discovery record (parent/kind/budget) follows EVERY budget
   improvement, not just the first visit.  That keeps the final parent
   chain replayable under the budget discipline: along the chain the
   recorded budget of a node is what its (final) parent's push computed
   from a budget at least as large as the parent's own recorded one, so
   re-walking the chain never runs out of budget at a `Costly hop.  It
   also makes parent cycles impossible — a record is only overwritten by
   a strictly larger budget, and budgets never increase along a path.
   [pv_dist] stays fixed at first visit, so in budget-free modes (no
   improvements possible) it IS the BFS layer of [Inspect.bfs]. *)
type provenance = {
  mutable pv_cap : int;
  mutable pv_parent : int array;  (* discovering node; -1 at a seed *)
  mutable pv_kind : int array;    (* edge_kind_tag of the discovering edge; -1 at a seed *)
  mutable pv_budget : int array;  (* best remaining budget on arrival *)
  mutable pv_dist : int array;    (* BFS layer at first visit *)
  mutable pv_stamp : int array;   (* entry valid iff = pv_gen *)
  mutable pv_gen : int;
  mutable pv_mode : mode option;  (* mode of the last recorded walk *)
  (* Graph of the last recorded walk and its patch generation then:
     records are node ids into THAT graph at THAT generation, so after
     an incremental update ([Sdg.patch] bumps the generation) every
     provenance query must answer "no record" rather than replay a path
     through retired nodes. *)
  mutable pv_graph : (Sdg.t * int) option;
}

let create_provenance (g : Sdg.t) : provenance =
  let n = max 1 (Sdg.num_nodes g) in
  { pv_cap = n;
    pv_parent = Array.make n (-1);
    pv_kind = Array.make n (-1);
    pv_budget = Array.make n 0;
    pv_dist = Array.make n 0;
    pv_stamp = Array.make n 0;
    pv_gen = 0;
    pv_mode = None;
    pv_graph = None }

(* Growth only ever happens at the start of a recorded walk, which then
   bumps [pv_gen] past every (zero) stamp of the fresh arrays, so old
   records need no copying — they are invalidated anyway. *)
let ensure_prov_capacity (p : provenance) (n : int) : unit =
  if p.pv_cap < n then begin
    p.pv_cap <- n;
    p.pv_parent <- Array.make n (-1);
    p.pv_kind <- Array.make n (-1);
    p.pv_budget <- Array.make n 0;
    p.pv_dist <- Array.make n 0;
    p.pv_stamp <- Array.make n 0
  end

(* Reachability keeping, per node, the best (largest) remaining budget at
   which it has been reached: a node reached with more budget left may
   reveal further base-pointer edges.  Backward and forward slicing share
   this walk, parameterised by the adjacency direction.  Entry-unique:
   a budget improvement for a node already in the ring only updates
   [best]; the pending ring entry reads the improved budget at pop.

   One [edge] callback serves every row of the walk: the node being
   expanded and its budget live in two cells it reads, so expanding a
   node allocates nothing.

   With [?prov] the walk also records each node's discovery in the
   provenance side tables (see [provenance]).  Without it [push] writes
   no record, so the hot path pays one well-predicted branch per push.

   Returns the slice size: the walk leaves its members in the touched
   prefix of that length with their [best] entries set, for
   [emit_sorted] or the line projection to read and zero. *)
let walk_scratch ?prov (scratch : scratch)
    (iter : Sdg.t -> Sdg.node -> (Sdg.node -> int -> unit) -> unit)
    (g : Sdg.t) ~(seeds : Sdg.node list) (mode : mode) : int =
  Slice_obs.bump c_slices;
  let n = Sdg.num_nodes g in
  ensure_capacity scratch n;
  let recording = Option.is_some prov in
  let parent, kindt, budg, dist, stamp, gen =
    match prov with
    | None -> ([||], [||], [||], [||], [||], 0)
    | Some p ->
      ensure_prov_capacity p n;
      p.pv_gen <- p.pv_gen + 1;
      p.pv_mode <- Some mode;
      p.pv_graph <- Some (g, Sdg.generation g);
      (p.pv_parent, p.pv_kind, p.pv_budget, p.pv_dist, p.pv_stamp, p.pv_gen)
  in
  let best = scratch.best and queued = scratch.queued and ring = scratch.ring in
  let touched = scratch.touched in
  let slots = Array.length ring in
  let head = ref 0 and tail = ref 0 and count = ref 0 and peak = ref 0 in
  let tcount = ref 0 in
  let visited = Slice_obs.counter_cell c_nodes_visited in
  let followed = Slice_obs.counter_cell c_edges_followed in
  let skipped = Slice_obs.counter_cell c_edges_skipped in
  let costly = Slice_obs.counter_cell c_edges_costly in
  let spent = Slice_obs.counter_cell c_budget_spent in
  let push node budget par ktag =
    let b1 = budget + 1 in
    if Char.code (Bytes.unsafe_get best node) < b1 then begin
      if Bytes.unsafe_get best node = '\000' then begin
        (* first visit: log for result emission and buffer reset *)
        Array.unsafe_set touched !tcount node;
        incr tcount;
        if recording then begin
          let d = if par < 0 then 0 else Array.unsafe_get dist par + 1 in
          Array.unsafe_set dist node d;
          Array.unsafe_set stamp node gen;
          Slice_obs.observe h_bfs_distance (float_of_int d)
        end
      end;
      if recording then begin
        Array.unsafe_set parent node par;
        Array.unsafe_set kindt node ktag;
        Array.unsafe_set budg node budget
      end;
      Bytes.unsafe_set best node (Char.unsafe_chr b1);
      if Slice_util.Bits.add queued node then begin
        Array.unsafe_set ring !tail node;
        let t = !tail + 1 in
        tail := if t = slots then 0 else t;
        incr count;
        if !count > !peak then peak := !count
      end
    end
  in
  let policy = policy_table mode in
  let cur = ref 0 and cur_budget = ref 0 in
  let edge dep tag =
    let p = Array.unsafe_get policy tag in
    if p = pol_follow then begin
      incr followed;
      push dep !cur_budget !cur tag
    end
    else if p = pol_costly && !cur_budget > 0 then begin
      incr costly;
      incr spent;
      push dep (!cur_budget - 1) !cur tag
    end
    else incr skipped
  in
  (* [initial_budget] is already clamped to [max_aliasing_budget], which
     fits the byte-wide [best] table (budget + 1 <= 255) *)
  let k0 = initial_budget mode in
  List.iter (fun s -> push s k0 (-1) (-1)) seeds;
  while !count > 0 do
    let node = Array.unsafe_get ring !head in
    let h = !head + 1 in
    head := if h = slots then 0 else h;
    decr count;
    Slice_util.Bits.remove queued node;
    cur := node;
    cur_budget := Char.code (Bytes.unsafe_get best node) - 1;
    incr visited;
    iter g node edge
  done;
  Slice_obs.max_gauge g_frontier_peak (float_of_int !peak);
  (* [queued] is already all-zero again: every enqueued node was popped. *)
  Slice_obs.observe h_slice_nodes (float_of_int !tcount);
  !tcount

(* A node has a valid record iff a recorded walk has run ([pv_mode]
   guards the fresh-provenance case where every zero stamp would equal
   the zero generation), the node was stamped by the LAST one, and the
   graph has not been patched since — a witness captured before an
   incremental update could otherwise replay through retired nodes. *)
let prov_member (p : provenance) (node : Sdg.node) : bool =
  p.pv_mode <> None
  && (match p.pv_graph with
     | Some (g, gen) -> Sdg.generation g = gen
     | None -> false)
  && node >= 0
  && node < p.pv_cap
  && p.pv_stamp.(node) = p.pv_gen

let provenance_mode (p : provenance) : mode option = p.pv_mode

let distance (p : provenance) (node : Sdg.node) : int option =
  if prov_member p node then Some p.pv_dist.(node) else None

type witness_step = {
  wit_node : Sdg.node;
  wit_kind : Sdg.edge_kind option;
      (* edge from the PREVIOUS step to this one; None at the seed *)
  wit_budget : int;  (* remaining aliasing budget on arrival *)
  wit_dist : int;    (* BFS layer at first visit *)
}

(* Reconstruct the dependence path seed -> [node] by reversing the parent
   chain.  Each step depends on the NEXT one via the next step's
   [wit_kind] (the walk traverses dependences backwards, so the parent is
   always one hop closer to the seed). *)
let witness (p : provenance) (node : Sdg.node) : witness_step list option =
  if not (prov_member p node) then None
  else begin
    let rec build n acc =
      let ktag = p.pv_kind.(n) in
      let step =
        { wit_node = n;
          wit_kind = (if ktag < 0 then None else Some (Sdg.edge_kind_of_tag ktag));
          wit_budget = p.pv_budget.(n);
          wit_dist = p.pv_dist.(n) }
      in
      let par = p.pv_parent.(n) in
      if par < 0 then step :: acc else build par (step :: acc)
    in
    Some (build node [])
  end

(* The shared scratch, grown to fit [g], with its footprint recorded as
   a peak gauge. *)
let scratch_for (g : Sdg.t) : scratch =
  ensure_capacity shared (max 1 (Sdg.num_nodes g));
  if Array.length shared.lines < Sdg.num_line_keys g then
    shared.lines <- Array.make (Sdg.num_line_keys g) 0;
  Slice_obs.max_gauge g_scratch_bytes (float_of_int (scratch_bytes shared));
  shared

(* One walk and its emission [finish] under the query's span: the mode
   up front, the slice size once known — this is what makes a Chrome
   trace attributable to a QUERY instead of a row of anonymous
   "slicer.slice" bars. *)
let walk_span ?prov ~name iter (g : Sdg.t) ~(seeds : Sdg.node list)
    (mode : mode) (finish : scratch -> int -> 'a) : 'a =
  Slice_obs.span
    ~args:[ ("mode", mode_to_string mode) ]
    name
    (fun () ->
      let s = scratch_for g in
      let size = walk_scratch ?prov s iter g ~seeds mode in
      if Slice_obs.enabled () then
        Slice_obs.add_span_arg "nodes" (string_of_int size);
      finish s size)

let slice ?prov (g : Sdg.t) ~(seeds : Sdg.node list) (mode : mode) :
    Sdg.node list =
  walk_span ?prov ~name:"slicer.slice" Sdg.deps_iter g ~seeds mode emit_sorted

(* Forward slicing: which statements CONSUME the value a seed produces?
   Same edge discipline as backward slicing, traversed over use-edges.
   Useful for impact analysis ("if I change this line, which outputs can
   move?") — the dual of the paper's backward producer chains. *)
let forward_slice ?prov (g : Sdg.t) ~(seeds : Sdg.node list) (mode : mode) :
    Sdg.node list =
  walk_span ?prov ~name:"slicer.forward" Sdg.uses_iter g ~seeds mode
    emit_sorted

(* Many slices over one graph, one scratch sizing.  The per-seed walks
   reuse the byte arrays and the ring; only the result lists are fresh. *)
let slice_batch (g : Sdg.t) ~(seeds_list : Sdg.node list list) (mode : mode) :
    Sdg.node list list =
  Slice_obs.span "slicer.slice_batch" (fun () ->
      let scratch = scratch_for g in
      List.map
        (fun seeds ->
          emit_sorted scratch (walk_scratch scratch Sdg.deps_iter g ~seeds mode))
        seeds_list)

let forward_slice_batch (g : Sdg.t) ~(seeds_list : Sdg.node list list)
    (mode : mode) : Sdg.node list list =
  (* own span name: this used to record as "slicer.slice_batch", folding
     forward-batch walks into the backward-batch phase total *)
  Slice_obs.span "slicer.forward_batch" (fun () ->
      let scratch = scratch_for g in
      List.map
        (fun seeds ->
          emit_sorted scratch (walk_scratch scratch Sdg.uses_iter g ~seeds mode))
        seeds_list)

(* Intersection of two sorted-unique node lists: order-independent by
   construction ([inter a b = inter b a]) and sorted-unique output. *)
let inter_sorted (a : Sdg.node list) (b : Sdg.node list) : Sdg.node list =
  let rec go a b acc =
    match (a, b) with
    | [], _ | _, [] -> List.rev acc
    | x :: a', y :: b' ->
      if x < y then go a' b acc
      else if y < x then go a b' acc
      else go a' b' (x :: acc)
  in
  go a b []

(* A (thin) chop: the statements on producer paths from [source] to
   [sink] — how does the value get from here to there?  Both walks emit
   sorted-unique lists, so the merge intersection is symmetric: chopping
   never depends on which walk the membership table was built from (the
   old implementation filtered the backward walk through a Hashtbl of the
   forward walk only). *)
let chop (g : Sdg.t) ~(source : Sdg.node list) ~(sink : Sdg.node list)
    (mode : mode) : Sdg.node list =
  let forward = forward_slice g ~seeds:source mode in
  let backward = slice g ~seeds:sink mode in
  inter_sorted forward backward

(* ------------------------------------------------------------------ *)
(* The line projection                                                 *)
(* ------------------------------------------------------------------ *)

(* Stamp node [n]'s line key: the first node seen with a key is stored
   (+ 1) in [s.lines] and the key appended to the ring's prefix of
   length [d].  Returns the new prefix length. *)
let[@inline] stamp_line (s : scratch) (g : Sdg.t) (n : Sdg.node) (d : int) :
    int =
  let k = Sdg.line_key g n in
  if k >= 0 && Array.unsafe_get s.lines k = 0 then begin
    Array.unsafe_set s.lines k (n + 1);
    Array.unsafe_set s.ring d k;
    d + 1
  end
  else d

(* The distinct line keys of [nodes] in the ring's prefix; returns
   their number.  The stamp stays set until the caller reads and zeroes
   it. *)
let stamp_nodes (s : scratch) (g : Sdg.t) (nodes : Sdg.node list) : int =
  let rec go d = function [] -> d | n :: rest -> go (stamp_line s g n d) rest in
  go 0 nodes

(* Sort the ring's prefix of [d] keys, with the touched log as the
   kernel's spare buffer. *)
let sort_keys (s : scratch) (d : int) : unit =
  Slice_util.Isort.sort ~tmp:s.touched s.ring d

(* The line numbers of the [d] keys in the ring's prefix, as a
   sorted-distinct list, zeroing their stamps.  Key order is (file,
   line) order, so the numbers come out ascending unless two files
   repeat or interleave their lines: only then are they sorted, and the
   list drops repeats. *)
let emit_line_numbers (s : scratch) (g : Sdg.t) (d : int) : int list =
  sort_keys s d;
  let ring = s.ring and lines = s.lines in
  let ascending = ref true and prev = ref min_int in
  for i = 0 to d - 1 do
    let k = Array.unsafe_get ring i in
    let l = (Sdg.node_loc g (Array.unsafe_get lines k - 1)).Slice_ir.Loc.line in
    Array.unsafe_set lines k 0;
    Array.unsafe_set ring i l;
    if l <= !prev then ascending := false;
    prev := l
  done;
  if not !ascending then sort_keys s d;
  let out = ref [] in
  for i = d - 1 downto 0 do
    let l = Array.unsafe_get ring i in
    match !out with
    | l' :: _ when l' = l -> ()
    | _ -> out := l :: !out
  done;
  !out

(* Distinct source locations of countable nodes, the granularity a user
   reads: the first-seen location per (file, line), in [Loc.compare]
   order, which is line-key order. *)
let nodes_to_lines (g : Sdg.t) (nodes : Sdg.node list) : Slice_ir.Loc.t list =
  let s = scratch_for g in
  let d = stamp_nodes s g nodes in
  sort_keys s d;
  let out = ref [] in
  for i = d - 1 downto 0 do
    let k = Array.unsafe_get s.ring i in
    out := Sdg.node_loc g (Array.unsafe_get s.lines k - 1) :: !out;
    Array.unsafe_set s.lines k 0
  done;
  !out

(* Sorted distinct line NUMBERS of a node list: the numbers of
   [nodes_to_lines g nodes], without building the locations. *)
let node_line_numbers (g : Sdg.t) (nodes : Sdg.node list) : int list =
  let s = scratch_for g in
  emit_line_numbers s g (stamp_nodes s g nodes)

let slice_lines (g : Sdg.t) ~(seeds : Sdg.node list) (mode : mode) : Slice_ir.Loc.t list =
  nodes_to_lines g (slice g ~seeds mode)

(* Distinct line NUMBERS of a location list.  [nodes_to_lines] dedups per
   (file, line); once the file component is projected away, two files
   sharing a line number would otherwise yield the same int twice (the
   multi-file duplicate-line bug).  A list in [nodes_to_lines] order
   from one file is already strictly ascending, which one pass checks;
   any other list goes through the kernel. *)
let locs_to_line_numbers (locs : Slice_ir.Loc.t list) : int list =
  let line (l : Slice_ir.Loc.t) = l.Slice_ir.Loc.line in
  let rec ascending prev = function
    | [] -> true
    | l :: rest -> line l > prev && ascending (line l) rest
  in
  if ascending min_int locs then List.map line locs
  else begin
    let a = Array.of_list (List.map line locs) in
    let n = Array.length a in
    Slice_util.Isort.sort ~tmp:(Array.make n 0) a n;
    let out = ref [] in
    for i = n - 1 downto 0 do
      match !out with
      | l :: _ when l = a.(i) -> ()
      | _ -> out := a.(i) :: !out
    done;
    !out
  end

(* A slice's sorted distinct line numbers, projected from the walk's
   touched log: the members' [best] entries are zeroed as their keys
   are stamped, and no node list is built. *)
let slice_line_numbers ~(forward : bool) (g : Sdg.t)
    ~(seeds : Sdg.node list) (mode : mode) : int list =
  let project s size =
    let d = ref 0 in
    for i = 0 to size - 1 do
      let n = Array.unsafe_get s.touched i in
      Bytes.unsafe_set s.best n '\000';
      d := stamp_line s g n !d
    done;
    emit_line_numbers s g !d
  in
  if forward then
    walk_span ~name:"slicer.forward" Sdg.uses_iter g ~seeds mode project
  else walk_span ~name:"slicer.slice" Sdg.deps_iter g ~seeds mode project
