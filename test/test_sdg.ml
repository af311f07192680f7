(* SDG construction tests: edge classification (the heart of thin slicing),
   heap dependence wiring, parameter wiring, and control dependences. *)

open Slice_core
open Slice_workloads
open Helpers

let edges_of_kind (g : Sdg.t) (n : Sdg.node) (k : Sdg.edge_kind) =
  List.filter (fun (_, kind) -> kind = k) (Sdg.deps g n)

let node_line g n = (Sdg.node_loc g n).Slice_ir.Loc.line

(* Figure 2/3: for the seed v = z.f,
   - the producer-heap edge goes to the store w.f = y,
   - the base-pointer edge goes to the def of z,
   - the control edge goes to the conditional. *)
let test_fig2_edge_classes () =
  let src = Paper_figures.fig2 in
  let a = analysis src in
  let g = a.Engine.sdg in
  let seed_line = line_of ~src ~pattern:Paper_figures.fig2_seed in
  let seeds = Engine.seeds_at_line_exn ~filter:Engine.Only_loads a seed_line in
  Alcotest.(check int) "one load node" 1 (List.length seeds);
  let seed = List.hd seeds in
  let heap = edges_of_kind g seed Sdg.Producer_heap in
  Alcotest.(check int) "one heap producer" 1 (List.length heap);
  Alcotest.(check int) "heap producer is the store"
    (line_of ~src ~pattern:"w.f = y;")
    (node_line g (fst (List.hd heap)));
  let base = edges_of_kind g seed Sdg.Base_pointer in
  Alcotest.(check int) "one base pointer" 1 (List.length base);
  Alcotest.(check int) "base pointer is z's def"
    (line_of ~src ~pattern:"A z = x;")
    (node_line g (fst (List.hd base)));
  let ctl = edges_of_kind g seed Sdg.Control in
  Alcotest.(check int) "one control dep" 1 (List.length ctl);
  Alcotest.(check int) "control dep is the conditional"
    (line_of ~src ~pattern:"if (w == z)")
    (node_line g (fst (List.hd ctl)))

let test_param_and_return_wiring () =
  let src =
    {|int inc(int x) { return x + 1; }
void main(String[] args) {
  int a = 41;
  int b = inc(a);
  print(itoa(b));
}|}
  in
  let a = analysis src in
  let g = a.Engine.sdg in
  (* the print's argument chain must reach 41 through the call *)
  let seed_line = line_of ~src ~pattern:"print(itoa(b));" in
  let lines =
    Slicer.slice_line_numbers ~forward:false g
      ~seeds:(Engine.seeds_at_line_exn a seed_line)
      Slicer.Thin
  in
  Alcotest.(check bool) "return stmt in slice" true
    (List.mem (line_of ~src ~pattern:"return x + 1;") lines);
  Alcotest.(check bool) "actual arg def in slice" true
    (List.mem (line_of ~src ~pattern:"int a = 41;") lines)

let test_heap_field_dependence () =
  let src =
    {|class Cell { int v; }
void main(String[] args) {
  Cell c = new Cell();
  c.v = 7;
  Cell d = new Cell();
  d.v = 8;
  print(itoa(c.v));
}|}
  in
  let a = analysis src in
  let g = a.Engine.sdg in
  let seed_line = line_of ~src ~pattern:"print(itoa(c.v));" in
  let lines =
    Slicer.slice_line_numbers ~forward:false g
      ~seeds:(Engine.seeds_at_line_exn a seed_line)
      Slicer.Thin
  in
  Alcotest.(check bool) "store to c included" true
    (List.mem (line_of ~src ~pattern:"c.v = 7;") lines);
  (* allocation-site sensitivity keeps the other cell's store out *)
  Alcotest.(check bool) "store to d excluded" false
    (List.mem (line_of ~src ~pattern:"d.v = 8;") lines)

let test_array_length_dependence () =
  let src =
    {|void main(String[] args) {
  int n = 3 + 4;
  int[] a = new int[n];
  print(itoa(a.length));
}|}
  in
  let a = analysis src in
  let g = a.Engine.sdg in
  let seed_line = line_of ~src ~pattern:"print(itoa(a.length));" in
  let lines =
    Slicer.slice_line_numbers ~forward:false g
      ~seeds:(Engine.seeds_at_line_exn a seed_line)
      Slicer.Thin
  in
  Alcotest.(check bool) "allocation in slice" true
    (List.mem (line_of ~src ~pattern:"new int[n]") lines);
  Alcotest.(check bool) "length source in slice" true
    (List.mem (line_of ~src ~pattern:"int n = 3 + 4;") lines)

let test_control_dependences () =
  let src =
    {|void main(String[] args) {
  int x = parseInt(args[0]);
  int y = 0;
  if (x > 0) {
    y = 1;
  }
  print(itoa(y));
}|}
  in
  let a = analysis src in
  let g = a.Engine.sdg in
  let assign_line = line_of ~src ~pattern:"y = 1;" in
  let nodes = Sdg.nodes_at_line g ~file:None ~line:assign_line in
  let has_ctl_to_if =
    List.exists
      (fun n ->
        List.exists
          (fun (dep, kind) ->
            kind = Sdg.Control
            && node_line g dep = line_of ~src ~pattern:"if (x > 0)")
          (Sdg.deps g n))
      nodes
  in
  Alcotest.(check bool) "y=1 control-dependent on the if" true has_ctl_to_if

let test_entry_control_to_call_site () =
  let src =
    {|void helper() { print("h"); }
void main(String[] args) { helper(); }|}
  in
  let a = analysis src in
  let g = a.Engine.sdg in
  (* the print inside helper is control-dependent on main's call site *)
  let print_line = line_of ~src ~pattern:{|print("h");|} in
  let call_line = line_of ~src ~pattern:"{ helper(); }" in
  let nodes = Sdg.nodes_at_line g ~file:None ~line:print_line in
  let ok =
    List.exists
      (fun n ->
        List.exists
          (fun (dep, kind) -> kind = Sdg.Control && node_line g dep = call_line)
          (Sdg.deps g n))
      nodes
  in
  Alcotest.(check bool) "callee governed by call site" true ok

let test_scalar_statement_count () =
  let a = analysis Paper_figures.fig2 in
  let g = a.Engine.sdg in
  Alcotest.(check bool) "some statements" true (Sdg.num_scalar_statements g > 5);
  Alcotest.(check bool) "nodes >= statements" true
    (Sdg.num_nodes g >= Sdg.num_scalar_statements g)

let test_dot_export () =
  let a = analysis Paper_figures.fig2 in
  let dot = Sdg.to_dot a.Engine.sdg in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph")

(* Golden adjacency digests ([Helpers.adjacency_digest]): node count
   and every row of both directions, edge for edge and in row order, on
   the paper workloads and a 5000-statement generated program.  The
   constants were recorded from the list-adjacency build that preceded
   the one-pass CSR build, so they pin that the rewrite kept the graph
   and its row order. *)
let golden_digests =
  [ ("nanoxml", "a0f2889dc8d3a4da30b1e92a5096a404");
    ("jtopas", "81905fa3f282c9a3703a6b746c96de78");
    ("ant", "27652b74d78efd5579c0230aee8f1338");
    ("xmlsec", "25e5d6ae9d3cf8d400ac765c8b1aeb26");
    ("mtrt", "5fee83352726e8148f7e462b7c8751e8");
    ("jess", "c0f5641fdb7773adc63d7182cdec8238");
    ("javac", "d06f26a8c89349ce33739ce52aa1c807");
    ("jack", "ce4a87c05747b1b1d1be9a3668571afa");
    ("pipeline-32", "5d7efb696b3a28e7286a0444f6152ca1");
    ("scaled-5000", "8ec6e7072fe4833998902922a94583d1") ]

let test_golden_adjacency_digests () =
  let scaled = Slice_fuzz.Gen_tj.generate_scaled ~seed:1 ~stmts:5000 in
  List.iter
    (fun (name, src) ->
      let a = Engine.of_source ~file:(name ^ ".tj") src in
      Alcotest.(check string)
        (name ^ " adjacency digest")
        (List.assoc name golden_digests)
        (adjacency_digest a.Engine.sdg))
    (Suites.paper_workloads
    @ [ ("scaled-5000", scaled.Slice_fuzz.Gen_tj.sc_src) ])

(* The graph reads one statement store: with every method body dropped
   once the arena is lowered, [Sdg.build] still gives the same graph,
   row for row, and every node the same location, countability and
   rendering. *)
let test_build_reads_only_the_arena () =
  let scaled = Slice_fuzz.Gen_tj.generate_scaled ~seed:1 ~stmts:5000 in
  List.iter
    (fun (name, src) ->
      let p = Slice_front.Frontend.load_exn ~file:(name ^ ".tj") src in
      let pta = Slice_pta.Andersen.analyze p in
      let arena = Slice_ir.Arena.build p in
      let g = Sdg.build ~arena p pta in
      Slice_ir.Program.iter_methods p (fun m ->
          m.Slice_ir.Instr.m_body <- Slice_ir.Instr.Abstract);
      let g' = Sdg.build ~arena p pta in
      Alcotest.(check string)
        (name ^ ": adjacency without bodies")
        (adjacency_digest g) (adjacency_digest g');
      let show g n = Format.asprintf "%a" (Sdg.pp_node g) n in
      for n = 0 to Sdg.num_nodes g - 1 do
        if
          not
            (Slice_ir.Loc.equal (Sdg.node_loc g n) (Sdg.node_loc g' n)
            && Sdg.node_countable g n = Sdg.node_countable g' n
            && String.equal (show g n) (show g' n))
        then Alcotest.failf "%s: node %d differs without bodies" name n
      done)
    (Suites.paper_workloads
    @ [ ("scaled-5000", scaled.Slice_fuzz.Gen_tj.sc_src) ])

let test_build_counts_csr_telemetry () =
  let a, snap = Slice_obs.scoped (fun () -> analysis Paper_figures.fig2) in
  let g = a.Engine.sdg in
  let counter k = List.assoc_opt k snap.Slice_obs.snap_counters in
  Alcotest.(check (option int)) "sdg.csr_nodes" (Some (Sdg.num_nodes g))
    (counter "sdg.csr_nodes");
  Alcotest.(check (option int)) "sdg.csr_edges" (Some (Sdg.num_edges g))
    (counter "sdg.csr_edges");
  Alcotest.(check bool) "sdg.csr_bytes recorded" true
    (List.mem_assoc "sdg.csr_bytes" snap.Slice_obs.snap_gauges)

(* Regression for the heap-counter skew: [sdg.heap_pairs_emitted] must
   equal the number of distinct Producer_heap edges in the graph (the
   bump and the [add_edge] call share one pass over the deduplicated
   pair buffers), and [considered >= emitted] always. *)
let test_heap_counters_exact () =
  List.iter
    (fun (name, src) ->
      let a, snap = Slice_obs.scoped (fun () -> analysis src) in
      let g = a.Engine.sdg in
      let heap_edges = ref 0 in
      for n = 0 to Sdg.num_nodes g - 1 do
        Sdg.deps_iter g n (fun _ t ->
            if t = Sdg.edge_kind_tag Sdg.Producer_heap then incr heap_edges)
      done;
      let counter k =
        match List.assoc_opt k snap.Slice_obs.snap_counters with
        | Some v -> v
        | None -> 0
      in
      let emitted = counter "sdg.heap_pairs_emitted" in
      let considered = counter "sdg.heap_pairs_considered" in
      Alcotest.(check int)
        (name ^ ": emitted == distinct Producer_heap edges")
        !heap_edges emitted;
      Alcotest.(check bool)
        (name ^ ": considered >= emitted")
        true (considered >= emitted))
    [ ("fig1", Paper_figures.fig1); ("fig2", Paper_figures.fig2);
      ("nanoxml", Prog_nanoxml.base); ("javac", Prog_javac.base) ]

(* Node identity round trip ([Sdg.check_index]): every live node's
   decoded descriptor leads back to it through the packed-key index, and
   descriptors are distinct.  On every paper workload, after a chain of
   patches that retires and re-interns a caller's actual-in nodes, and
   on a call with 300 arguments, past any small fixed width for the
   argument index. *)
let check_index what g =
  match Sdg.check_index g with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

let test_node_identity_round_trip () =
  List.iter
    (fun (name, src) ->
      check_index name (Engine.of_source ~file:(name ^ ".tj") src).Engine.sdg)
    Suites.paper_workloads;
  let base =
    {|class A {
  int f;
  int get() { return this.f; }
  void set(int v, int w) { this.f = v + w; }
}
int compute(int x, int k) {
  int y = x * 2;
  return y + k;
}
void main(String[] args) {
  A a = new A();
  a.set(5, 1);
  int z = compute(a.get(), 7);
  print("" + z);
}
|}
  in
  let file = "chain.tj" in
  let v1 = replace base "a.set(5, 1)" "a.set(6, 1)" in
  let v2 = replace v1 "x * 2" "x * 3" in
  let v3 = replace v2 "a.get(), 7" "a.get(), 8" in
  let h =
    List.fold_left
      (fun h v ->
        let h, rep = Engine.update h [ (file, v) ] in
        Alcotest.(check string) "patched" "patched"
          (Engine.update_path_to_string rep.Engine.up_path);
        check_index "patched chain" h.Engine.h_analysis.Engine.sdg;
        h)
      (Engine.load [ (file, base) ])
      [ v1; v2; v3 ]
  in
  Alcotest.(check bool) "the chain retired nodes" true
    (let g = h.Engine.h_analysis.Engine.sdg in
     Sdg.num_live_nodes g < Sdg.num_nodes g);
  let arity = 300 in
  let params = List.init arity (Printf.sprintf "int p%d") in
  let args = List.init arity string_of_int in
  let wide =
    Printf.sprintf
      "int wide(%s) { return p0 + p%d; }\nvoid main(String[] args) {\n  int r = wide(%s);\n  print(\"\" + r);\n}\n"
      (String.concat ", " params) (arity - 1) (String.concat ", " args)
  in
  let g = (analysis wide).Engine.sdg in
  check_index "300-argument call" g;
  let top = ref (-1) in
  for n = 0 to Sdg.num_nodes g - 1 do
    match Sdg.node_desc g n with
    | Sdg.Actual_in (_, _, i) -> top := max !top i
    | Sdg.Stmt _ | Sdg.Formal _ -> ()
  done;
  Alcotest.(check int) "last argument index" (arity - 1) !top

let suite =
  [ Alcotest.test_case "fig2 edge classes" `Quick test_fig2_edge_classes;
    Alcotest.test_case "param/return wiring" `Quick test_param_and_return_wiring;
    Alcotest.test_case "heap field dependence" `Quick test_heap_field_dependence;
    Alcotest.test_case "array length dependence" `Quick test_array_length_dependence;
    Alcotest.test_case "control dependences" `Quick test_control_dependences;
    Alcotest.test_case "entry control to call site" `Quick test_entry_control_to_call_site;
    Alcotest.test_case "scalar statement count" `Quick test_scalar_statement_count;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "golden adjacency digests" `Quick
      test_golden_adjacency_digests;
    Alcotest.test_case "build csr telemetry" `Quick
      test_build_counts_csr_telemetry;
    Alcotest.test_case "heap counters exact" `Quick test_heap_counters_exact;
    Alcotest.test_case "node identity round trip" `Quick
      test_node_identity_round_trip;
    Alcotest.test_case "build reads only the arena" `Quick
      test_build_reads_only_the_arena ]
