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
    iter g i (fun m k ->
        Buffer.add_string buf (string_of_int m);
        Buffer.add_char buf ':';
        Buffer.add_string buf (string_of_int (Sdg.edge_kind_tag k));
        Buffer.add_char buf ',')
  in
  for i = 0 to n - 1 do
    row 'D' Sdg.deps_iter i;
    row 'U' Sdg.uses_iter i
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* MD5 of a mod-ref result: the number of method contexts, then every
   context's mod and ref sets in [LocSet] order.  Equal digests mean the
   same tables, location for location. *)
let modref_digest (pta : Slice_pta.Andersen.result) (mr : Slice_pta.Modref.t)
    : string =
  let open Slice_pta in
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
   every update tier, and the handle's stats must report its footprint. *)
let check_arena ~(ctx : string) (h : Slice_core.Engine.handle) : unit =
  let a = h.Slice_core.Engine.h_analysis in
  (match
     Slice_ir.Arena.check_views a.Slice_core.Engine.program
       a.Slice_core.Engine.arena
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: arena views: %s" ctx msg);
  Alcotest.(check int)
    (ctx ^ ": stats.arena_bytes = Arena.bytes")
    (Slice_ir.Arena.bytes a.Slice_core.Engine.arena)
    h.Slice_core.Engine.h_stats.Slice_core.Engine.arena_bytes
