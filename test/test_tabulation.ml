(* Context-sensitive (tabulation) slicer tests:
   - context sensitivity kills unrealizable paths that the CI slicer keeps;
   - the CS slice is contained in the CI slice;
   - the heap-parameter representation is strictly larger than the direct
     representation (the paper's scalability bottleneck). *)

open Slice_core
open Slice_workloads
open Slice_tabulation
open Helpers

module IntSet = Set.Make (Int)

let cs_slice_lines src ~seed_pattern mode =
  let p = load src in
  let pta = Slice_pta.Andersen.analyze p in
  let t = Tabulation.build p pta in
  let line = line_of ~src ~pattern:seed_pattern in
  let seeds = Tabulation.nodes_at_line t ~line in
  Alcotest.(check bool) "has seeds" true (seeds <> []);
  Tabulation.slice_lines t (Tabulation.slice t ~seeds mode)

(* The classic unrealizable-path example: id() called from two sites; the
   result printed comes from the second call, and a context-sensitive
   slicer must not drag in the first site's argument. *)
let id_src =
  {|int id(int x) { return x; }
void main(String[] args) {
  int a = 11;
  int b = 22;
  int ra = id(a);
  int rb = id(b);
  print(itoa(rb));
  print(itoa(ra));
}|}

let test_unrealizable_paths () =
  let cs = cs_slice_lines id_src ~seed_pattern:"print(itoa(rb));" Tabulation.Thin in
  Alcotest.(check bool) "b's def included" true
    (List.mem (line_of ~src:id_src ~pattern:"int b = 22;") cs);
  Alcotest.(check bool) "a's def excluded (realizable paths only)" false
    (List.mem (line_of ~src:id_src ~pattern:"int a = 11;") cs);
  (* the CI slicer conflates the two call sites *)
  let a = analysis id_src in
  let ci =
    Engine.slice_from_line a
      ~line:(line_of ~src:id_src ~pattern:"print(itoa(rb));")
      Slicer.Thin
  in
  Alcotest.(check bool) "CI includes a's def (unrealizable)" true
    (List.mem (line_of ~src:id_src ~pattern:"int a = 11;") ci)

(* Heap flow through the summary machinery: a setter/getter pair. *)
let box_src =
  {|class Box {
  int v;
  void set(int x) { this.v = x; }
  int get() { return this.v; }
}
void main(String[] args) {
  Box b = new Box();
  int k = 5 + 6;
  b.set(k);
  print(itoa(b.get()));
}|}

let test_heap_parameters () =
  let cs =
    cs_slice_lines box_src ~seed_pattern:"print(itoa(b.get()));" Tabulation.Thin
  in
  List.iter
    (fun pat ->
      Alcotest.(check bool) (pat ^ " in CS slice") true
        (List.mem (line_of ~src:box_src ~pattern:pat) cs))
    [ "void set(int x) { this.v = x; }";
      "int get() { return this.v; }";
      "int k = 5 + 6;";
      "b.set(k);" ]

let test_cs_within_ci () =
  List.iter
    (fun (src, pat) ->
      let cs_thin = cs_slice_lines src ~seed_pattern:pat Tabulation.Thin in
      (* the tabulation slicer merges container clones (its PDGs are
         per-method), so the comparable CI baseline is the no-objsens
         analysis *)
      let a = analysis ~obj_sens:false src in
      let line = line_of ~src ~pattern:pat in
      let ci_thin = Engine.slice_from_line a ~line Slicer.Thin in
      Alcotest.(check bool) "CS thin within CI thin" true
        (IntSet.subset (IntSet.of_list cs_thin) (IntSet.of_list ci_thin));
      let p = load src in
      let pta = Slice_pta.Andersen.analyze p in
      let t = Tabulation.build p pta in
      let seeds = Tabulation.nodes_at_line t ~line in
      let cs_trad =
        Tabulation.slice_lines t (Tabulation.slice t ~seeds Tabulation.Traditional)
      in
      Alcotest.(check bool) "CS thin within CS traditional" true
        (IntSet.subset (IntSet.of_list cs_thin) (IntSet.of_list cs_trad)))
    [ (Paper_figures.fig1, Paper_figures.fig1_seed);
      (Prog_jtopas.base, {|print("kinds: " + kinds);|}) ]

(* Containment/consistency on GENERATED programs: for random pipeline
   shapes, the context-sensitive thin slice stays inside the CI thin
   slice, inside its own traditional slice, and every seed line slices
   to a nonempty result that contains the seed itself. *)
let prop_containment_on_generated =
  QCheck2.Test.make ~count:6
    ~name:"tabulation containment on generated pipelines"
    QCheck2.Gen.(2 -- 8)
    (fun stages ->
      let src = Generators.pipeline_program ~stages in
      let pat = Generators.pipeline_seed_pattern in
      let line = line_of ~src ~pattern:pat in
      let p = load src in
      let pta = Slice_pta.Andersen.analyze p in
      let t = Tabulation.build p pta in
      let seeds = Tabulation.nodes_at_line t ~line in
      if seeds = [] then QCheck2.Test.fail_report "no tabulation seeds";
      let cs_thin =
        Tabulation.slice_lines t (Tabulation.slice t ~seeds Tabulation.Thin)
      in
      let cs_trad =
        Tabulation.slice_lines t
          (Tabulation.slice t ~seeds Tabulation.Traditional)
      in
      let a = analysis ~obj_sens:false src in
      let ci_thin = Engine.slice_from_line a ~line Slicer.Thin in
      List.mem line cs_thin
      && IntSet.subset (IntSet.of_list cs_thin) (IntSet.of_list ci_thin)
      && IntSet.subset (IntSet.of_list cs_thin) (IntSet.of_list cs_trad))

(* The same consistency checks on fuzz-generated programs, which mix
   virtual dispatch, containers, casts, and branches — shapes the
   hand-written examples above do not cover. *)
let test_containment_on_fuzzed () =
  List.iter
    (fun seed ->
      let r = Slice_fuzz.Gen_tj.render (Slice_fuzz.Gen_tj.gen ~seed ~max_size:25) in
      let src = r.Slice_fuzz.Gen_tj.src in
      let p = Slice_front.Frontend.load_exn ~file:"fuzz.tj" src in
      let pta = Slice_pta.Andersen.analyze p in
      let t = Tabulation.build p pta in
      List.iter
        (fun line ->
          match Tabulation.nodes_at_line t ~line with
          | [] -> ()
          | seeds ->
            let cs_thin =
              Tabulation.slice_lines t
                (Tabulation.slice t ~seeds Tabulation.Thin)
            in
            let cs_trad =
              Tabulation.slice_lines t
                (Tabulation.slice t ~seeds Tabulation.Traditional)
            in
            if not (List.mem line cs_thin) then
              Alcotest.failf "fuzz seed %d: seed line %d missing from its own \
                              thin slice" seed line;
            if
              not
                (IntSet.subset (IntSet.of_list cs_thin)
                   (IntSet.of_list cs_trad))
            then
              Alcotest.failf
                "fuzz seed %d line %d: CS thin not within CS traditional" seed
                line)
        r.Slice_fuzz.Gen_tj.seed_lines)
    [ 11; 22; 33 ]

let test_heap_param_blowup () =
  let p = load Prog_nanoxml.base in
  let pta = Slice_pta.Andersen.analyze p in
  let t = Tabulation.build p pta in
  let st = Tabulation.stats t in
  let a = Engine.analyze (load Prog_nanoxml.base) in
  let s = Engine.stats_of a in
  Alcotest.(check bool) "heap params exist" true (st.Tabulation.heap_param_nodes > 0);
  Alcotest.(check bool) "HSDG larger than scalar statements" true
    (st.Tabulation.total_nodes > s.Engine.sdg_statements)

let suite =
  [ Alcotest.test_case "unrealizable paths" `Quick test_unrealizable_paths;
    Alcotest.test_case "heap parameters" `Quick test_heap_parameters;
    Alcotest.test_case "cs within ci" `Quick test_cs_within_ci;
    QCheck_alcotest.to_alcotest prop_containment_on_generated;
    Alcotest.test_case "containment on fuzzed programs" `Quick
      test_containment_on_fuzzed;
    Alcotest.test_case "heap param blowup" `Quick test_heap_param_blowup ]
