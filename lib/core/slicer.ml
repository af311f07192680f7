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

   The walk itself runs on the frozen CSR view of the graph (or the list
   adjacency before [Sdg.freeze]) with flat scratch buffers: a byte array
   of per-node best budgets doubling as the visited set, an entry-unique
   int ring deque, and a touched-node log so the buffer reset costs
   O(slice), not O(graph) — no Hashtbl, no Queue, no per-row list
   allocation on the hot path.

   Emission rule: the result is the touched log in ascending node order.
   When the slice fills at least 1/lg of the id range [lo, hi] it
   touched (lg = the slice size's bit length, the sort's comparison
   depth), [best] is scanned over [lo, hi] — O(hi - lo), bounded by
   O(slice log slice); otherwise the log is sorted by an int-specialised
   heapsort, O(slice log slice).  Either way emission stays within the
   slice's own cost, never O(graph).

   The line projection reads the graph's dense location columns and
   dedups on their line keys with a byte stamp allocated per call (one
   byte per source line), so after the seed lookup nothing in a query
   hashes or visits per graph node.  The seed implementation (Hashtbl + Queue + sort over
   adjacency lists) is kept verbatim in [Reference] for parity tests and
   A/B benchmarks. *)

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

(* BFS layer of each member at first visit, observed only by the
   provenance-recording walk (the plain walk stays annotation-free). *)
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

(* Budgets are stored in a byte each by the CSR walk; [initial_budget]
   saturates at [max_aliasing_budget] for EVERY implementation (CSR,
   [Reference], the BFS inspection metric) — the clamp lives here, in one
   place, precisely so the walks cannot disagree at the boundary (the old
   code clamped only inside the CSR walk, so [Thin_with_aliasing 255]
   meant 255 to [Reference] but 254 to the CSR walk).  Indistinguishable
   in practice: exceeding it would need a producer-free path crossing
   more than 254 base-pointer/index edges. *)
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
   the slice result is the sorted touched prefix, and after emitting it
   the walk zeroes exactly those [best] entries, restoring the all-zero
   invariant.  Between walks [best] and [queued] are therefore always
   all-zero, so a walk costs O(slice + edges scanned), never O(graph) —
   the representative seeds of the BENCH suite produce slices several
   orders of magnitude smaller than the SDG, and an O(num_nodes)
   [Bytes.fill] + full scan per slice would dominate the walk itself. *)
type scratch = {
  mutable cap : int;           (* number of nodes the buffers cover *)
  mutable best : Bytes.t;      (* cap bytes, all-zero between walks *)
  mutable queued : Slice_util.Bits.t;
                               (* dense bitset, all-clear between walks;
                                  mutable so [shrink_scratch] can swap in
                                  a smaller one ([Bits.clear] keeps the
                                  backing store) *)
  mutable ring : int array;    (* cap + 1 slots *)
  mutable touched : int array; (* cap slots; first-visit log *)
}

let create_scratch (g : Sdg.t) : scratch =
  let n = max 1 (Sdg.num_nodes g) in
  { cap = n;
    best = Bytes.make n '\000';
    queued = Slice_util.Bits.create ~capacity:n ();
    ring = Array.make (n + 1) 0;
    touched = Array.make n 0 }

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

let scratch_capacity (s : scratch) : int = s.cap

(* Resident footprint of the buffers, in bytes: [best] is one byte per
   node, the ring and touched logs are boxed-free int arrays (8 bytes a
   slot), and [queued] reports its backing words.  Arithmetic over the
   field sizes — never [Obj.reachable_words] — so the figure is
   deterministic across runs and safe to emit in byte-compared output. *)
let scratch_bytes (s : scratch) : int =
  s.cap
  + (8 * Slice_util.Bits.words s.queued)
  + (8 * Array.length s.ring)
  + (8 * Array.length s.touched)

(* The release path for long-lived processes: a one-off mega-program
   query must not pin its peak buffers for the owner's lifetime.  The
   buffers are all-zero between walks, so a rebuild at the smaller size
   preserves every invariant; [keep] is clamped to at least 1, matching
   [create_scratch].  Growing back later is just [ensure_capacity]. *)
let shrink_scratch (s : scratch) ~(keep : int) : unit =
  let n = max 1 keep in
  if s.cap > n then begin
    s.cap <- n;
    s.best <- Bytes.make n '\000';
    s.queued <- Slice_util.Bits.create ~capacity:n ();
    s.ring <- Array.make (n + 1) 0;
    s.touched <- Array.make n 0
  end

(* In-place ascending heapsort of [a.(0) .. a.(len - 1)]: direct int
   comparisons, no closure call per comparison. *)
let sort_int_prefix (a : int array) (len : int) : unit =
  let rec sift root stop =
    let child = (2 * root) + 1 in
    if child < stop then begin
      let child =
        if child + 1 < stop
           && Array.unsafe_get a (child + 1) > Array.unsafe_get a child
        then child + 1
        else child
      in
      let r = Array.unsafe_get a root and c = Array.unsafe_get a child in
      if c > r then begin
        Array.unsafe_set a root c;
        Array.unsafe_set a child r;
        sift child stop
      end
    end
  in
  for root = (len / 2) - 1 downto 0 do
    sift root len
  done;
  for stop = len - 1 downto 1 do
    let top = Array.unsafe_get a 0 in
    Array.unsafe_set a 0 (Array.unsafe_get a stop);
    Array.unsafe_set a stop top;
    sift 0 stop
  done

(* Number of bits of [n] (0 for 0). *)
let bit_length (n : int) : int =
  let rec go n b = if n = 0 then b else go (n lsr 1) (b + 1) in
  go n 0

(* The walks' shared result emission (see the header's emission rule):
   the first [size] entries of [touched] — each node once — as an
   ascending list, zeroing their [best] entries to restore the all-zero
   invariant between walks. *)
let emit_sorted (best : Bytes.t) (touched : int array) (size : int) :
    Sdg.node list =
  let lo = ref max_int and hi = ref (-1) in
  for i = 0 to size - 1 do
    let v = Array.unsafe_get touched i in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  let out = ref [] in
  if size > 0 && !hi - !lo < size * bit_length size then
    for v = !hi downto !lo do
      if Bytes.unsafe_get best v <> '\000' then begin
        Bytes.unsafe_set best v '\000';
        out := v :: !out
      end
    done
  else begin
    sort_int_prefix touched size;
    for i = size - 1 downto 0 do
      let v = Array.unsafe_get touched i in
      Bytes.unsafe_set best v '\000';
      out := v :: !out
    done
  end;
  !out

(* Reachability keeping, per node, the best (largest) remaining budget at
   which it has been reached: a node reached with more budget left may
   reveal further base-pointer edges.  Backward and forward slicing share
   this walk, parameterised by the adjacency direction.  Entry-unique:
   a budget improvement for a node already in the ring only updates
   [best]; the pending ring entry reads the improved budget at pop. *)
let walk_scratch (scratch : scratch)
    (iter : Sdg.t -> Sdg.node -> (Sdg.node -> Sdg.edge_kind -> unit) -> unit)
    (g : Sdg.t) ~(seeds : Sdg.node list) (mode : mode) : Sdg.node list =
  Slice_obs.bump c_slices;
  let n = Sdg.num_nodes g in
  ensure_capacity scratch n;
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
  let push node budget =
    let b1 = budget + 1 in
    if Char.code (Bytes.unsafe_get best node) < b1 then begin
      if Bytes.unsafe_get best node = '\000' then begin
        (* first visit: log for result emission and buffer reset *)
        Array.unsafe_set touched !tcount node;
        incr tcount
      end;
      Bytes.unsafe_set best node (Char.unsafe_chr b1);
      if Slice_util.Bits.add queued node then begin
        Array.unsafe_set ring !tail node;
        tail := (!tail + 1) mod slots;
        incr count;
        if !count > !peak then peak := !count
      end
    end
  in
  (* [initial_budget] is already clamped to [max_aliasing_budget], which
     fits the byte-wide [best] table (budget + 1 <= 255) *)
  let k0 = initial_budget mode in
  List.iter (fun s -> push s k0) seeds;
  while !count > 0 do
    let node = Array.unsafe_get ring !head in
    head := (!head + 1) mod slots;
    decr count;
    Slice_util.Bits.remove queued node;
    let budget = Char.code (Bytes.unsafe_get best node) - 1 in
    incr visited;
    iter g node (fun dep kind ->
        match edge_policy mode kind with
        | `Follow ->
          incr followed;
          push dep budget
        | `Costly ->
          if budget > 0 then begin
            incr costly;
            incr spent;
            push dep (budget - 1)
          end
          else incr skipped
        | `Skip -> incr skipped)
  done;
  Slice_obs.max_gauge g_frontier_peak (float_of_int !peak);
  (* [queued] is already all-zero again: every enqueued node was popped. *)
  Slice_obs.observe h_slice_nodes (float_of_int !tcount);
  emit_sorted best touched !tcount

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

(* Opt-in side tables recorded by [walk_scratch_prov]: per node, the
   discovering parent, the kind of the discovering edge (as a
   [Sdg.edge_kind_tag]), the best remaining aliasing budget on arrival,
   and the BFS layer at FIRST visit.  Validity is a generation stamp
   ([pv_stamp.(n) = pv_gen]), so starting a new recorded walk
   invalidates the previous walk's records in O(1) and the arrays never
   need clearing; like the walk scratch the tables are grow-only and
   owned by one domain at a time, but unlike it they are caller-owned
   and keep their contents AFTER the walk — that is the whole point:
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
     through retired nodes.  Cleared by [shrink_provenance] (drops the
     graph reference along with the arrays). *)
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

let provenance_capacity (p : provenance) : int = p.pv_cap

(* Shrinking also drops the last walk's records (they lived in the large
   arrays), so [pv_mode] is cleared: [prov_member] must answer [false]
   rather than read stale stamps that happen to equal [pv_gen]. *)
let shrink_provenance (p : provenance) ~(keep : int) : unit =
  let n = max 1 keep in
  if p.pv_cap > n then begin
    p.pv_cap <- n;
    p.pv_parent <- Array.make n (-1);
    p.pv_kind <- Array.make n (-1);
    p.pv_budget <- Array.make n 0;
    p.pv_dist <- Array.make n 0;
    p.pv_stamp <- Array.make n 0;
    p.pv_mode <- None;
    p.pv_graph <- None
  end

(* [walk_scratch] with provenance recording.  A separate copy of the loop
   rather than a branch inside [push]: the plain walk is the production
   hot path and must not pay for a feature that is off. *)
let walk_scratch_prov (scratch : scratch) (prov : provenance)
    (iter : Sdg.t -> Sdg.node -> (Sdg.node -> Sdg.edge_kind -> unit) -> unit)
    (g : Sdg.t) ~(seeds : Sdg.node list) (mode : mode) : Sdg.node list =
  Slice_obs.bump c_slices;
  let n = Sdg.num_nodes g in
  ensure_capacity scratch n;
  ensure_prov_capacity prov n;
  prov.pv_gen <- prov.pv_gen + 1;
  prov.pv_mode <- Some mode;
  prov.pv_graph <- Some (g, Sdg.generation g);
  let gen = prov.pv_gen in
  let parent = prov.pv_parent and kindt = prov.pv_kind in
  let budg = prov.pv_budget and dist = prov.pv_dist in
  let stamp = prov.pv_stamp in
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
        Array.unsafe_set touched !tcount node;
        incr tcount;
        let d = if par < 0 then 0 else Array.unsafe_get dist par + 1 in
        Array.unsafe_set dist node d;
        Array.unsafe_set stamp node gen;
        Slice_obs.observe h_bfs_distance (float_of_int d)
      end;
      Array.unsafe_set parent node par;
      Array.unsafe_set kindt node ktag;
      Array.unsafe_set budg node budget;
      Bytes.unsafe_set best node (Char.unsafe_chr b1);
      if Slice_util.Bits.add queued node then begin
        Array.unsafe_set ring !tail node;
        tail := (!tail + 1) mod slots;
        incr count;
        if !count > !peak then peak := !count
      end
    end
  in
  let k0 = initial_budget mode in
  List.iter (fun s -> push s k0 (-1) (-1)) seeds;
  while !count > 0 do
    let node = Array.unsafe_get ring !head in
    head := (!head + 1) mod slots;
    decr count;
    Slice_util.Bits.remove queued node;
    let budget = Char.code (Bytes.unsafe_get best node) - 1 in
    incr visited;
    iter g node (fun dep kind ->
        match edge_policy mode kind with
        | `Follow ->
          incr followed;
          push dep budget node (Sdg.edge_kind_tag kind)
        | `Costly ->
          if budget > 0 then begin
            incr costly;
            incr spent;
            push dep (budget - 1) node (Sdg.edge_kind_tag kind)
          end
          else incr skipped
        | `Skip -> incr skipped)
  done;
  Slice_obs.max_gauge g_frontier_peak (float_of_int !peak);
  Slice_obs.observe h_slice_nodes (float_of_int !tcount);
  emit_sorted best touched !tcount

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

(* One scratch per DOMAIN, lazily created and grown, shared by all slices
   in that domain that do not pass an explicit [?scratch]: within a
   domain slicing is not re-entrant (edge callbacks never start another
   walk), so a single buffer set suffices and per-slice allocation stays
   O(slice).  The cell lives in [Domain.DLS] — the old process-global
   [shared_scratch] was a correctness bug the moment two domains sliced
   concurrently (both walks would interleave writes into the same [best]
   table).  A parallel batch executor can either rely on this per-domain
   default or thread explicit [create_scratch] handles. *)
let dls_scratch : scratch option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let get_scratch (g : Sdg.t) : scratch =
  let cell = Domain.DLS.get dls_scratch in
  match !cell with
  | Some s ->
    ensure_capacity s (Sdg.num_nodes g);
    s
  | None ->
    let s = create_scratch g in
    cell := Some s;
    s

(* Capacity/shrink for the calling domain's implicit scratch: a daemon
   that slices through the DLS default (no explicit [?scratch]) needs a
   handle-free release path when it evicts a large program. *)
let domain_scratch_capacity () : int =
  match !(Domain.DLS.get dls_scratch) with
  | Some s -> s.cap
  | None -> 0

let domain_scratch_bytes () : int =
  match !(Domain.DLS.get dls_scratch) with
  | Some s -> scratch_bytes s
  | None -> 0

let shrink_domain_scratch ~(keep : int) : unit =
  match !(Domain.DLS.get dls_scratch) with
  | Some s -> shrink_scratch s ~keep
  | None -> ()

(* Resolve the scratch an entry point walks on: the caller's explicit
   handle (grown to fit [g]) if given, else the calling domain's shared
   one. *)
let resolve_scratch ?scratch (g : Sdg.t) : scratch =
  let s =
    match scratch with
    | Some s ->
      ensure_capacity s (max 1 (Sdg.num_nodes g));
      s
    | None -> get_scratch g
  in
  (* Peak gauge, recorded when the walk resolves its buffers: a memory
     figure per domain registry, merged by [Slice_obs.merge_snapshot]
     in parallel executors. *)
  Slice_obs.max_gauge g_scratch_bytes (float_of_int (scratch_bytes s));
  s

(* The walk function an entry point runs: the plain hot path, or the
   provenance-recording copy when the caller passed a [?prov] handle. *)
let walk_for ?prov scratch iter g ~seeds mode =
  match prov with
  | None -> walk_scratch scratch iter g ~seeds mode
  | Some p -> walk_scratch_prov scratch p iter g ~seeds mode

(* Per-query span annotations: the mode up front, the result size once
   known — this is what makes a Chrome trace attributable to a QUERY
   instead of a row of anonymous "slicer.slice" bars. *)
let annotate_size (result : Sdg.node list) : Sdg.node list =
  if Slice_obs.enabled () then
    Slice_obs.add_span_arg "nodes" (string_of_int (List.length result));
  result

let slice ?scratch ?prov (g : Sdg.t) ~(seeds : Sdg.node list) (mode : mode) :
    Sdg.node list =
  Slice_obs.span
    ~args:[ ("mode", mode_to_string mode) ]
    "slicer.slice"
    (fun () ->
      annotate_size
        (walk_for ?prov (resolve_scratch ?scratch g) Sdg.deps_iter g ~seeds
           mode))

(* Forward slicing: which statements CONSUME the value a seed produces?
   Same edge discipline as backward slicing, traversed over use-edges.
   Useful for impact analysis ("if I change this line, which outputs can
   move?") — the dual of the paper's backward producer chains. *)
let forward_slice ?scratch ?prov (g : Sdg.t) ~(seeds : Sdg.node list)
    (mode : mode) : Sdg.node list =
  Slice_obs.span
    ~args:[ ("mode", mode_to_string mode) ]
    "slicer.forward"
    (fun () ->
      annotate_size
        (walk_for ?prov (resolve_scratch ?scratch g) Sdg.uses_iter g ~seeds
           mode))

(* Many slices over one (frozen) graph, one scratch allocation.  The
   per-seed walks reuse the byte arrays and the ring; only the result
   lists are fresh. *)
let slice_batch ?scratch (g : Sdg.t) ~(seeds_list : Sdg.node list list)
    (mode : mode) : Sdg.node list list =
  Slice_obs.span "slicer.slice_batch" (fun () ->
      let scratch = resolve_scratch ?scratch g in
      List.map
        (fun seeds -> walk_scratch scratch Sdg.deps_iter g ~seeds mode)
        seeds_list)

let forward_slice_batch ?scratch (g : Sdg.t) ~(seeds_list : Sdg.node list list)
    (mode : mode) : Sdg.node list list =
  (* own span name: this used to record as "slicer.slice_batch", folding
     forward-batch walks into the backward-batch phase total *)
  Slice_obs.span "slicer.forward_batch" (fun () ->
      let scratch = resolve_scratch ?scratch g in
      List.map
        (fun seeds -> walk_scratch scratch Sdg.uses_iter g ~seeds mode)
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

(* Distinct source locations of countable nodes, the granularity a user
   reads: the first-seen location per (file, line), in [Loc.compare]
   order.  Dedup stamps the graph's dense line keys in a byte array owned
   by this call, so concurrent batch workers share no mutable state. *)
let nodes_to_lines (g : Sdg.t) (nodes : Sdg.node list) : Slice_ir.Loc.t list =
  let stamp = Bytes.make (Sdg.num_line_keys g) '\000' in
  let out = ref [] in
  List.iter
    (fun n ->
      let k = Sdg.line_key g n in
      if k >= 0 && Bytes.unsafe_get stamp k = '\000' then begin
        Bytes.unsafe_set stamp k '\001';
        out := Sdg.node_loc g n :: !out
      end)
    nodes;
  List.sort Slice_ir.Loc.compare !out

let slice_lines (g : Sdg.t) ~(seeds : Sdg.node list) (mode : mode) : Slice_ir.Loc.t list =
  nodes_to_lines g (slice g ~seeds mode)

(* Distinct line NUMBERS of a location list.  [nodes_to_lines] dedups per
   (file, line); once the file component is projected away, two files
   sharing a line number would otherwise yield the same int twice (the
   multi-file duplicate-line bug). *)
let locs_to_line_numbers (locs : Slice_ir.Loc.t list) : int list =
  List.sort_uniq Int.compare (List.map (fun l -> l.Slice_ir.Loc.line) locs)

let slice_line_numbers (g : Sdg.t) ~(seeds : Sdg.node list) (mode : mode) :
    int list =
  locs_to_line_numbers (slice_lines g ~seeds mode)

(* ------------------------------------------------------------------ *)
(* Reference implementation (the seed algorithm)                       *)
(* ------------------------------------------------------------------ *)

(* The pre-CSR walk, verbatim: Hashtbl visited/budget table, stdlib
   Queue with stale-entry re-enqueues, and a polymorphic-compare sort of
   the result.  Runs over the adjacency-list shims, so it behaves
   identically on frozen and unfrozen graphs (though it allocates rows
   on a frozen one).  It bumps no telemetry: it exists to pin down the
   CSR walk's semantics (parity property tests) and as the A side of the
   BENCH A/B. *)
module Reference = struct
  let walk (next : Sdg.t -> Sdg.node -> (Sdg.node * Sdg.edge_kind) list)
      (g : Sdg.t) ~(seeds : Sdg.node list) (mode : mode) : Sdg.node list =
    let best : (Sdg.node, int) Hashtbl.t = Hashtbl.create 256 in
    let queue = Queue.create () in
    let push n budget =
      match Hashtbl.find_opt best n with
      | Some b when b >= budget -> ()
      | Some _ | None ->
        Hashtbl.replace best n budget;
        Queue.add (n, budget) queue
    in
    List.iter (fun s -> push s (initial_budget mode)) seeds;
    while not (Queue.is_empty queue) do
      let n, budget = Queue.pop queue in
      (* stale entries: a better budget may have been recorded since *)
      if Hashtbl.find_opt best n = Some budget then
        List.iter
          (fun (dep, kind) ->
            match edge_policy mode kind with
            | `Follow -> push dep budget
            | `Costly -> if budget > 0 then push dep (budget - 1)
            | `Skip -> ())
          (next g n)
    done;
    List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) best [])

  let slice g ~seeds mode = walk Sdg.deps g ~seeds mode
  let forward_slice g ~seeds mode = walk Sdg.uses g ~seeds mode

  let slice_lines g ~seeds mode = nodes_to_lines g (slice g ~seeds mode)
end
