(* Shared test helpers. *)

open Slice_workloads

let load ?container_classes src =
  Slice_front.Frontend.load_exn ?container_classes ~file:"test.tj" src

let load_err src : string =
  match Slice_front.Frontend.load ~file:"test.tj" src with
  | Ok _ -> Alcotest.fail "expected a frontend error"
  | Error e -> e.Slice_front.Frontend.err_msg

(* Run a TJ program and return its printed lines; fail the test on error. *)
let run_ok ?(args = []) ?(streams = []) src : string list =
  let p = load src in
  let o =
    Slice_interp.Interp.run
      { Slice_interp.Interp.default_config with args; streams }
      p
  in
  match o.Slice_interp.Interp.result with
  | Ok () -> o.Slice_interp.Interp.output
  | Error f ->
    Alcotest.failf "program failed: %s"
      (Format.asprintf "%a" Slice_interp.Interp.pp_failure f)

(* Run and return the failure kind; fail the test if the program succeeds. *)
let run_fail ?(args = []) ?(streams = []) src : Slice_interp.Interp.failure =
  let p = load src in
  let o =
    Slice_interp.Interp.run
      { Slice_interp.Interp.default_config with args; streams }
      p
  in
  match o.Slice_interp.Interp.result with
  | Error f -> f
  | Ok () -> Alcotest.fail "expected the program to fail"

let analysis ?obj_sens src = Slice_core.Engine.analyze ?obj_sens (load src)

(* A main wrapper for single-expression programs. *)
let expr_main body = Printf.sprintf "void main(String[] args) {\n%s\n}\n" body

let check_lines = Alcotest.(check (list string))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let line_of = Runtime_lib.line_of

(* First/middle/last user-visible statement nodes: representative seed
   sets for small, medium and whole-program-reaching slices. *)
let seed_sets (g : Slice_core.Sdg.t) : Slice_core.Sdg.node list list =
  let countable = ref [] in
  for n = Slice_core.Sdg.num_nodes g - 1 downto 0 do
    if Slice_core.Sdg.node_countable g n then countable := n :: !countable
  done;
  match !countable with
  | [] -> []
  | nodes ->
    let arr = Array.of_list nodes in
    let k = Array.length arr in
    [ [ arr.(0) ]; [ arr.(k / 2) ]; [ arr.(k - 1) ];
      [ arr.(0); arr.(k / 2); arr.(k - 1) ] ]

(* ---- Location oracles ----

   The statement-table lookups and full-graph scans that answered
   [Sdg.node_loc], [node_countable], [nodes_at_line] and
   [Slicer.nodes_to_lines] before the graph owned dense location
   columns, kept here as the reference the columns are checked
   against.  [tbl] should be built fresh from the program
   ([Program.build_stmt_table]), so a column left stale by an update
   shows up as a mismatch. *)
module Loc_oracle = struct
  open Slice_core
  module Loc = Slice_ir.Loc
  module Program = Slice_ir.Program
  module Instr = Slice_ir.Instr

  let stmt_info tbl g n =
    match Sdg.node_desc g n with
    | Sdg.Formal _ -> None
    | Sdg.Stmt (_, s) | Sdg.Actual_in (_, s, _) -> Hashtbl.find_opt tbl s

  let node_loc tbl g n =
    match stmt_info tbl g n with
    | Some si -> Program.stmt_loc si
    | None -> Loc.none

  let node_countable tbl g n =
    match (Sdg.node_desc g n, stmt_info tbl g n) with
    | Sdg.Formal _, _ | _, None -> false
    | Sdg.Actual_in _, Some si -> not (Loc.is_none (Program.stmt_loc si))
    | Sdg.Stmt _, Some si -> (
      (not (Loc.is_none (Program.stmt_loc si)))
      &&
      match si.Program.s_site with
      | Program.Site_instr { Instr.i_kind = Instr.Phi _; _ } -> false
      | Program.Site_instr _ -> true
      | Program.Site_term { Instr.t_kind = Instr.Goto _; _ } -> false
      | Program.Site_term _ -> true)

  (* The full scan, over locations precomputed per node. *)
  let nodes_at_line g (locs : Loc.t array) ~file ~line =
    let out = ref [] in
    for n = 0 to Sdg.num_nodes g - 1 do
      if not (Sdg.is_dead g n) then begin
        let loc = locs.(n) in
        if
          (not (Loc.is_none loc))
          && loc.Loc.line = line
          && match file with None -> true | Some f -> String.equal f loc.Loc.file
        then out := n :: !out
      end
    done;
    List.rev !out

  (* The Hashtbl projection keyed on (file, line) tuples. *)
  let nodes_to_lines tbl g nodes =
    let seen = Hashtbl.create 64 in
    let out = ref [] in
    List.iter
      (fun n ->
        if node_countable tbl g n then begin
          let loc = node_loc tbl g n in
          let key = (loc.Loc.file, loc.Loc.line) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            out := loc :: !out
          end
        end)
      nodes;
    List.sort Loc.compare !out
end

(* Every location answer of [g] against the oracles over a statement
   table built fresh from its program: [node_loc] and [node_countable]
   per node, [nodes_at_line] for every source line of every file (and
   with [~file:None]), and [nodes_to_lines] over all nodes and over
   [slices]. *)
let check_loc_columns ~(ctx : string) ?(slices = []) (g : Slice_core.Sdg.t) :
    unit =
  let open Slice_core in
  let module O = Loc_oracle in
  let tbl = Slice_ir.Program.build_stmt_table (Sdg.program g) in
  let n = Sdg.num_nodes g in
  let locs = Array.init n (O.node_loc tbl g) in
  for i = 0 to n - 1 do
    if not (Slice_ir.Loc.equal locs.(i) (Sdg.node_loc g i)) then
      Alcotest.failf "%s: node_loc of node %d is %s, want %s" ctx i
        (Slice_ir.Loc.to_string (Sdg.node_loc g i))
        (Slice_ir.Loc.to_string locs.(i));
    if O.node_countable tbl g i <> Sdg.node_countable g i then
      Alcotest.failf "%s: node_countable of node %d differs" ctx i
  done;
  let max_line = Hashtbl.create 4 in
  Array.iter
    (fun l ->
      if not (Slice_ir.Loc.is_none l) then
        let f = l.Slice_ir.Loc.file in
        let m = Option.value ~default:0 (Hashtbl.find_opt max_line f) in
        Hashtbl.replace max_line f (max m l.Slice_ir.Loc.line))
    locs;
  let top = Hashtbl.fold (fun _ m a -> max m a) max_line 0 in
  let files =
    None :: Some "no-such-file.tj"
    :: Hashtbl.fold (fun f _ a -> Some f :: a) max_line []
  in
  List.iter
    (fun file ->
      for line = -1 to top + 1 do
        let want = O.nodes_at_line g locs ~file ~line in
        if want <> Sdg.nodes_at_line g ~file ~line then
          Alcotest.failf "%s: nodes_at_line %s:%d differs" ctx
            (Option.value ~default:"*" file) line
      done)
    files;
  List.iter
    (fun nodes ->
      if
        not
          (List.equal Slice_ir.Loc.equal
             (O.nodes_to_lines tbl g nodes)
             (Slicer.nodes_to_lines g nodes))
      then Alcotest.failf "%s: nodes_to_lines differs" ctx)
    (List.init n Fun.id :: slices)

(* ---- Graph census oracles ----

   The whole-graph recounts that answered [Sdg.edge_kind_counts] and
   [Sdg.num_scalar_statements] before the graph kept both counts,
   kept here as the reference the maintained counts are checked
   against after a patch. *)
module Census_oracle = struct
  open Slice_core

  (* Live edges by kind, counted over every node's backward row. *)
  let edge_kind_counts (g : Sdg.t) : (Sdg.edge_kind * int) list =
    let counts = Array.make 8 0 in
    for n = 0 to Sdg.num_nodes g - 1 do
      Sdg.deps_iter g n (fun _ t -> counts.(t) <- counts.(t) + 1)
    done;
    List.map
      (fun (k, _) -> (k, counts.(Sdg.edge_kind_tag k)))
      (Sdg.edge_kind_counts g)

  (* Distinct statement ids of the live [Stmt] nodes. *)
  let num_scalar_statements (g : Sdg.t) : int =
    let seen = Hashtbl.create 256 in
    for n = 0 to Sdg.num_nodes g - 1 do
      if not (Sdg.is_dead g n) then
        match Sdg.node_desc g n with
        | Sdg.Stmt (_, s) -> Hashtbl.replace seen s ()
        | Sdg.Formal _ | Sdg.Actual_in _ -> ()
    done;
    Hashtbl.length seen
end

(* The state a patch keeps in place, against a fresh recount: the
   arena's statement lookup answers every statement of the program with
   its own record and every other id (retired by a re-lower, negative or
   past the program's) with [None], every live node names a statement
   of its context's method, the location columns answer like the
   oracles, and the edge census and scalar-statement count equal the
   recounts. *)
let check_patched_state ~(ctx : string) (g : Slice_core.Sdg.t) : unit =
  let open Slice_core in
  let p = Sdg.program g in
  let fresh = Slice_ir.Program.build_stmt_table p in
  for id = -2 to Slice_ir.Program.stmt_count p + 1 do
    match (Hashtbl.find_opt fresh id, Sdg.stmt_site g id) with
    | None, None -> ()
    | None, Some _ ->
      Alcotest.failf "%s: statement %d answers after it was retired" ctx id
    | Some _, None ->
      Alcotest.failf "%s: statement %d missing from the arena" ctx id
    | Some si, Some site ->
      if si.Slice_ir.Program.s_site <> site then
        Alcotest.failf "%s: statement %d has a stale record" ctx id
  done;
  for n = 0 to Sdg.num_nodes g - 1 do
    if not (Sdg.is_dead g n) then
      match Sdg.node_desc g n with
      | Sdg.Stmt (mc, s) | Sdg.Actual_in (mc, s, _) -> (
        match Hashtbl.find_opt fresh s with
        | None ->
          Alcotest.failf "%s: live node %d names retired statement %d" ctx n s
        | Some si ->
          let mq, _ = Slice_pta.Andersen.mctx_info (Sdg.pta g) mc in
          if
            not
              (Slice_ir.Instr.equal_method_qname mq
                 si.Slice_ir.Program.s_method)
          then
            Alcotest.failf "%s: node %d's statement %d is in another method"
              ctx n s)
      | Sdg.Formal _ -> ()
  done;
  check_loc_columns ~ctx g;
  let census = Census_oracle.edge_kind_counts g in
  List.iter2
    (fun (k, want) (_, got) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s edges" ctx (Sdg.edge_kind_to_string k))
        want got)
    census (Sdg.edge_kind_counts g);
  Alcotest.(check int) (ctx ^ ": num_edges")
    (List.fold_left (fun a (_, c) -> a + c) 0 census)
    (Sdg.num_edges g);
  Alcotest.(check int)
    (ctx ^ ": scalar statements")
    (Census_oracle.num_scalar_statements g)
    (Sdg.num_scalar_statements g)

(* Byte offset of the first [sub] in [src]. *)
let first_index ~(what : string) (src : string) (sub : string) : int =
  let lo = String.length sub and ls = String.length src in
  let rec find j =
    if j + lo > ls then failwith (what ^ ": no " ^ sub)
    else if String.sub src j lo = sub then j
    else find (j + 1)
  in
  find 0

(* [src] with the [n] bytes at [j] replaced by [by]. *)
let splice (src : string) (j : int) (n : int) (by : string) : string =
  String.sub src 0 j ^ by ^ String.sub src (j + n) (String.length src - j - n)

(* Static fields written in one method and read in others: two classes
   with a static [count], and an instance field [count] that must pair
   with neither.  Generated programs have no statics. *)
let statics_src =
  {|class Reg {
  static int count = 7;
  static String tag;
}
class Other {
  static int count;
}
class Box {
  int count;
  Box(int c) { this.count = c; }
}
void record(int v) {
  Reg.count = v + 1;
  Reg.tag = "t" + v;
  Other.count = v;
}
int readCount() {
  int c = Reg.count;
  return c * 2;
}
String readTag() { return Reg.tag + Other.count; }
void main(String[] args) {
  Box b = new Box(3);
  record(4);
  int r = readCount();
  int k = b.count;
  print("" + r + k + readTag());
}
|}

let scaled_src ~(stmts : int) : string =
  (Slice_fuzz.Gen_tj.generate_scaled ~seed:1 ~stmts).Slice_fuzz.Gen_tj.sc_src

(* A seed-1 scaled program and the same program with its first
   [cur.fi = a % 1001;] tweaked to [1002]: a one-method constant edit
   that keeps every line and the method's constraint summary, so
   [Engine.update] patches it. *)
let scaled_tweak ~(stmts : int) : string * string =
  let src = scaled_src ~stmts in
  let old_s = "cur.fi = a % 1001;" in
  let j = first_index ~what:"scaled_tweak" src old_s in
  (src, splice src j (String.length old_s) "cur.fi = a % 1002;")

(* A seed-1 scaled program and the same program with the class of its
   first [new S<f>_<0|1>()] allocation swapped for the sibling class:
   a one-method edit that keeps every line but moves the method's
   constraint summary, so [Engine.update] re-lowers the method and
   analyzes the program afresh (resolved-incremental). *)
let scaled_swap ~(stmts : int) : string * string =
  let src = scaled_src ~stmts in
  (* the class name's last character, just before its '(' *)
  let last =
    String.index_from src (first_index ~what:"scaled_swap" src "= new S") '('
    - 1
  in
  (src, splice src last 1 (if src.[last] = '0' then "1" else "0"))

(* MD5 of a graph's whole adjacency: [num_nodes], then every node's
   [deps_iter] and [uses_iter] rows in iteration order, each edge as
   (node, kind tag).  Equal digests mean the same graph, edge for edge
   and in the same row order. *)
let adjacency_digest (g : Slice_core.Sdg.t) : string =
  let open Slice_core in
  let buf = Buffer.create 4096 in
  let n = Sdg.num_nodes g in
  Buffer.add_string buf (string_of_int n);
  let row tag iter i =
    Buffer.add_char buf tag;
    iter g i (fun m t ->
        Buffer.add_string buf (string_of_int m);
        Buffer.add_char buf ':';
        Buffer.add_string buf (string_of_int t);
        Buffer.add_char buf ',')
  in
  for i = 0 to n - 1 do
    row 'D' Sdg.deps_iter i;
    row 'U' Sdg.uses_iter i
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* MD5 of a graph's live edges as a sorted multiset, each node named by
   its rendering and source line instead of its id.  A patched graph
   keeps its retired ids and numbers its new nodes after them, so only
   a digest that does not read ids can equal a fresh load's. *)
let live_adjacency_digest (g : Slice_core.Sdg.t) : string =
  let open Slice_core in
  let name n =
    Format.asprintf "%a@%d" (Sdg.pp_node g) n (Sdg.node_loc g n).Slice_ir.Loc.line
  in
  let edges = ref [] in
  for n = 0 to Sdg.num_nodes g - 1 do
    if not (Sdg.is_dead g n) then
      Sdg.deps_iter g n (fun m t ->
          edges := Printf.sprintf "%s -%d-> %s" (name n) t (name m) :: !edges)
  done;
  Digest.to_hex (Digest.string (String.concat "\n" (List.sort compare !edges)))

(* MD5 of a mod-ref result: the number of method contexts, then every
   context's mod and ref sets in [LocSet] order.  Equal digests mean the
   same tables, location for location. *)
let modref_digest (pta : Slice_pta.Andersen.result)
    (mr : Slice_tabulation.Modref.t) : string =
  let open Slice_pta in
  let open Slice_tabulation in
  let buf = Buffer.create 4096 in
  let n = Andersen.num_call_graph_nodes pta in
  Buffer.add_string buf (string_of_int n);
  let set tag s =
    Buffer.add_char buf tag;
    Modref.LocSet.iter
      (fun l ->
        (match l with
        | Modref.Lfield (o, f) -> Printf.bprintf buf "f%d.%s" o f
        | Modref.Lstatic (c, f) -> Printf.bprintf buf "s%s.%s" c f
        | Modref.Larray_len o -> Printf.bprintf buf "l%d" o);
        Buffer.add_char buf ',')
      s
  in
  for mc = 0 to n - 1 do
    set 'M' (Modref.mod_of mr mc);
    set 'R' (Modref.ref_of mr mc)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* MD5 of a program's variable tables: every method in qualified-name
   order, then each [m_vars] entry as (index, name, kind, type).  The
   slice and graph digests are blind to variable numbering and to SSA
   version names ([x#N]); equal digests mean those are the same too. *)
let vars_digest (p : Slice_ir.Program.t) : string =
  let open Slice_ir in
  let meths = Program.fold_methods p (fun acc m -> m :: acc) [] in
  let meths =
    List.sort
      (fun a b -> Instr.compare_method_qname a.Instr.m_qname b.Instr.m_qname)
      meths
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun m ->
      Printf.bprintf buf "M%s\n" (Instr.method_qname_to_string m.Instr.m_qname);
      Array.iteri
        (fun i vi ->
          let kind =
            match vi.Instr.vi_kind with
            | Instr.Vparam k -> Printf.sprintf "p%d" k
            | Instr.Vlocal -> "l"
            | Instr.Vtemp -> "t"
            | Instr.Vssa o -> Printf.sprintf "s%d" o
          in
          Printf.bprintf buf "%d:%s:%s:%s\n" i vi.Instr.vi_name kind
            (Types.ty_to_string vi.Instr.vi_ty))
        m.Instr.m_vars)
    meths;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* An analysis's arena must describe the program's current bodies after
   every update tier, and the handle's stats must report its footprint,
   the points-to sets' and the heap index's. *)
let check_arena ~(ctx : string) (h : Slice_core.Engine.handle) : unit =
  let a = h.Slice_core.Engine.h_analysis in
  (match
     Slice_ir.Arena.check_views a.Slice_core.Engine.program
       a.Slice_core.Engine.arena
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: arena views: %s" ctx msg);
  let s = h.Slice_core.Engine.h_stats in
  Alcotest.(check int)
    (ctx ^ ": stats.arena_bytes = Arena.bytes")
    (Slice_ir.Arena.bytes a.Slice_core.Engine.arena)
    s.Slice_core.Engine.arena_bytes;
  Alcotest.(check int)
    (ctx ^ ": stats.pta_set_bytes = Andersen.set_bytes")
    (Slice_pta.Andersen.set_bytes a.Slice_core.Engine.pta)
    s.Slice_core.Engine.pta_set_bytes;
  Alcotest.(check int)
    (ctx ^ ": stats.heap_index_bytes = Sdg.heap_index_bytes")
    (Slice_core.Sdg.heap_index_bytes a.Slice_core.Engine.sdg)
    s.Slice_core.Engine.heap_index_bytes

(* Replace the first occurrence of [old_s]. *)
let replace (src : string) (old_s : string) (new_s : string) : string =
  let ls = String.length src and lo = String.length old_s in
  let rec find j =
    if j + lo > ls then failwith ("replace: " ^ old_s)
    else if String.sub src j lo = old_s then j
    else find (j + 1)
  in
  let j = find 0 in
  String.sub src 0 j ^ new_s ^ String.sub src (j + lo) (ls - j - lo)
