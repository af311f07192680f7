(* Slicer tests: the subset ordering between modes, seed membership, exact
   thin slices for the paper's figures, and the BFS inspection metric. *)

open Slice_core
open Slice_workloads
open Helpers

module IntSet = Set.Make (Int)

let subset a b = IntSet.subset (IntSet.of_list a) (IntSet.of_list b)

let modes_ordered src seed_pattern =
  let a = analysis src in
  let line = line_of ~src ~pattern:seed_pattern in
  let seeds = Engine.seeds_at_line_exn a line in
  let s mode = Slicer.slice a.Engine.sdg ~seeds mode in
  let thin = s Slicer.Thin in
  let alias1 = s (Slicer.Thin_with_aliasing 1) in
  let alias2 = s (Slicer.Thin_with_aliasing 2) in
  let trad = s Slicer.Traditional_data in
  let full = s Slicer.Traditional_full in
  Alcotest.(check bool) "thin <= alias1" true (subset thin alias1);
  Alcotest.(check bool) "alias1 <= alias2" true (subset alias1 alias2);
  Alcotest.(check bool) "alias2 <= trad" true (subset alias2 trad);
  Alcotest.(check bool) "trad <= full" true (subset trad full);
  Alcotest.(check bool) "seed in thin" true
    (List.for_all (fun sd -> List.mem sd thin) seeds)

let test_mode_ordering () =
  modes_ordered Paper_figures.fig1 Paper_figures.fig1_seed;
  modes_ordered Paper_figures.fig4 "boolean open = f.isOpen();";
  modes_ordered Prog_nanoxml.base "print((String) this.lines.get(i));"

let test_fig1_exact_thin () =
  let src = Paper_figures.fig1 in
  let a = analysis src in
  let line = line_of ~src ~pattern:Paper_figures.fig1_seed in
  let thin = Engine.slice_from_line a ~line Slicer.Thin in
  (* the producer chain of the printed string (paper, section 1) *)
  let expected_patterns =
    [ "this.elems[count++] = p;";              (* Vector.add's store *)
      "return this.elems[ind];";               (* Vector.get's load *)
      "String fullName = input.readLine();";
      {|int spaceInd = fullName.indexOf(" ");|};
      "String firstName = fullName.substring(0, spaceInd - 1);";
      "firstNames.add(firstName);";
      "String firstName = (String) firstNames.get(i);";
      {|print("FIRST NAME: " + firstName);|};
      "Vector firstNames = readNames(new InputStream(args[0]));" ]
  in
  let expected = List.map (fun pat -> line_of ~src ~pattern:pat) expected_patterns in
  Alcotest.(check (list int)) "thin slice lines" (List.sort compare expected)
    (List.sort compare thin);
  (* none of the SessionState plumbing is in the thin slice *)
  List.iter
    (fun pat ->
      Alcotest.(check bool) (pat ^ " excluded") false
        (List.mem (line_of ~src ~pattern:pat) thin))
    [ "void setNames(Vector v) { this.names = v; }";
      "SessionState s = getState();";
      "return Globals.state;" ]

let test_fig1_traditional_includes_plumbing () =
  let src = Paper_figures.fig1 in
  let a = analysis src in
  let line = line_of ~src ~pattern:Paper_figures.fig1_seed in
  let trad = Engine.slice_from_line a ~line Slicer.Traditional_data in
  List.iter
    (fun pat ->
      Alcotest.(check bool) (pat ^ " included") true
        (List.mem (line_of ~src ~pattern:pat) trad))
    [ "void setNames(Vector v) { this.names = v; }";
      "SessionState s = getState();";
      "return Globals.state;";
      "Vector() { this.elems = new Object[10]; this.count = 0; }" ]

let test_thin_ignores_base_pointers () =
  (* the defining property: base-pointer manipulation of the container is
     not in the thin slice (paper, "Advantages of Thin Slicing") *)
  let src = Paper_figures.fig2 in
  let a = analysis src in
  let line = line_of ~src ~pattern:Paper_figures.fig2_seed in
  let thin = Engine.slice_from_line ~filter:Engine.Only_loads a ~line Slicer.Thin in
  let expected =
    [ line_of ~src ~pattern:"B y = new B();";
      line_of ~src ~pattern:"w.f = y;";
      line_of ~src ~pattern:Paper_figures.fig2_seed ]
  in
  Alcotest.(check (list int)) "fig2 thin = {3,5,7}" (List.sort compare expected)
    (List.sort compare thin)

let test_bfs_metric () =
  let src = Paper_figures.fig1 in
  let a = analysis src in
  let line = line_of ~src ~pattern:Paper_figures.fig1_seed in
  let buggy = line_of ~src ~pattern:Paper_figures.fig1_buggy_line in
  let thin = Engine.inspect_from_line a ~line ~desired:[ buggy ] Slicer.Thin in
  let trad =
    Engine.inspect_from_line a ~line ~desired:[ buggy ] Slicer.Traditional_data
  in
  Alcotest.(check bool) "thin finds the bug" true thin.Inspect.found;
  Alcotest.(check bool) "trad finds the bug" true trad.Inspect.found;
  Alcotest.(check bool) "thin inspects no more than trad" true
    (thin.Inspect.inspected <= trad.Inspect.inspected);
  Alcotest.(check bool) "inspected <= slice size" true
    (thin.Inspect.inspected <= thin.Inspect.slice_size);
  (* unreachable desired: metric reports not-found with full exploration *)
  let missing = Engine.inspect_from_line a ~line ~desired:[ 99999 ] Slicer.Thin in
  Alcotest.(check bool) "missing not found" false missing.Inspect.found;
  Alcotest.(check int) "explored everything" missing.Inspect.slice_size
    missing.Inspect.inspected

let test_bfs_order_deterministic () =
  let src = Prog_nanoxml.base in
  let a = analysis src in
  let line = line_of ~src ~pattern:"print((String) this.lines.get(i));" in
  let seeds = Engine.seeds_at_line_exn a line in
  let r1 = Inspect.bfs a.Engine.sdg ~seeds ~desired:[] Slicer.Traditional_data in
  let r2 = Inspect.bfs a.Engine.sdg ~seeds ~desired:[] Slicer.Traditional_data in
  Alcotest.(check bool) "same order" true (r1.Inspect.order = r2.Inspect.order)

(* Regression for the duplicate-enqueue fix: with a zero aliasing budget
   no costly edge is ever crossed, so [Thin_with_aliasing 0] must traverse
   EXACTLY like [Thin] — same nodes and, walk for walk, the same telemetry
   (the old walk could re-enqueue nodes and visit them twice). *)
let test_alias0_equals_thin () =
  Slice_obs.set_enabled true;
  let src = Paper_figures.fig2 in
  let a = analysis src in
  let g = a.Engine.sdg in
  let line = line_of ~src ~pattern:Paper_figures.fig2_seed in
  let seeds = Engine.seeds_at_line_exn a line in
  let thin_nodes, thin_snap =
    Slice_obs.scoped (fun () -> Slicer.slice g ~seeds Slicer.Thin)
  in
  let alias0_nodes, alias0_snap =
    Slice_obs.scoped (fun () ->
        Slicer.slice g ~seeds (Slicer.Thin_with_aliasing 0))
  in
  Alcotest.(check (list int)) "same nodes" thin_nodes alias0_nodes;
  let slicer_counters snap =
    List.filter
      (fun (k, _) -> String.length k >= 7 && String.sub k 0 7 = "slicer.")
      snap.Slice_obs.snap_counters
  in
  Alcotest.(check (list (pair string int)))
    "same traversal counters"
    (slicer_counters thin_snap) (slicer_counters alias0_snap);
  (* and a positive budget is genuinely different on fig2 (base pointers) *)
  Alcotest.(check bool) "alias1 differs" true
    (Slicer.slice g ~seeds (Slicer.Thin_with_aliasing 1) <> thin_nodes)

(* The chop is the intersection of the forward and backward walks; the
   sorted-merge implementation is symmetric in which side is enumerated
   (the old one filtered the backward walk through a table of the forward
   walk only) and emits a sorted-unique list. *)
let test_chop_symmetric () =
  let src = Paper_figures.fig1 in
  let a = analysis src in
  let g = a.Engine.sdg in
  let seeds_of pat =
    Engine.seeds_at_line_exn a (line_of ~src ~pattern:pat)
  in
  let source = seeds_of "String fullName = input.readLine();" in
  let sink = seeds_of Paper_figures.fig1_seed in
  List.iter
    (fun mode ->
      let chop = Slicer.chop g ~source ~sink mode in
      let fwd = IntSet.of_list (Slicer.forward_slice g ~seeds:source mode) in
      let bwd = IntSet.of_list (Slicer.slice g ~seeds:sink mode) in
      Alcotest.(check (list int))
        ("chop = fwd /\\ bwd under " ^ Slicer.mode_to_string mode)
        (IntSet.elements (IntSet.inter fwd bwd))
        chop;
      Alcotest.(check (list int))
        ("chop = bwd /\\ fwd under " ^ Slicer.mode_to_string mode)
        (IntSet.elements (IntSet.inter bwd fwd))
        chop;
      Alcotest.(check (list int))
        ("sorted-unique under " ^ Slicer.mode_to_string mode)
        (List.sort_uniq compare chop) chop)
    [ Slicer.Thin; Slicer.Thin_with_aliasing 1; Slicer.Traditional_data;
      Slicer.Traditional_full ];
  (* non-trivial on at least one mode *)
  Alcotest.(check bool) "thin chop non-empty" true
    (Slicer.chop g ~source ~sink Slicer.Thin <> [])

(* Batched slicing returns, per line, exactly what the one-at-a-time
   entry point returns (scratch reuse must not leak state across seeds). *)
let test_batch_matches_single () =
  let src = Paper_figures.fig1 in
  let a = analysis src in
  let lines =
    List.map
      (fun pat -> line_of ~src ~pattern:pat)
      [ Paper_figures.fig1_seed;
        "String fullName = input.readLine();";
        "firstNames.add(firstName);" ]
  in
  List.iter
    (fun mode ->
      let batched = Engine.slice_batch a ~lines mode in
      List.iter2
        (fun line (line', batch_lines) ->
          Alcotest.(check int) "line order preserved" line line';
          Alcotest.(check (list int))
            (Printf.sprintf "batch = single (line %d, %s)" line
               (Slicer.mode_to_string mode))
            (Engine.slice_from_line a ~line mode)
            batch_lines)
        lines batched)
    [ Slicer.Thin; Slicer.Thin_with_aliasing 2; Slicer.Traditional_full ];
  (* unknown line raises the same error as the single-slice path *)
  Alcotest.check_raises "no seed" (Engine.No_seed 99999) (fun () ->
      ignore (Engine.slice_batch a ~lines:[ 99999 ] Slicer.Thin))

(* A straight chain of [n] base-pointer hops: slicing backward from the
   last load under [Thin_with_aliasing k] crosses exactly [min k 254]
   costly edges, so the slice grows by one load per unit of budget until
   the clamp saturates.  Long enough (n > 255) to expose any clamp
   disagreement between the CSR walk and [Reference]. *)
let chain_program (n : int) : string =
  let b = Buffer.create (n * 24) in
  Buffer.add_string b "class Box { Box f; }\n";
  Buffer.add_string b "void main(String[] args) {\n";
  Buffer.add_string b "  Box b0 = new Box();\n";
  Buffer.add_string b "  b0.f = b0;\n";
  for i = 1 to n do
    Buffer.add_string b (Printf.sprintf "  Box b%d = b%d.f;\n" i (i - 1))
  done;
  Buffer.add_string b "  print(\"done\");\n}\n";
  Buffer.contents b

(* Regression for the budget-saturation parity gap: the CSR walk stores
   budget+1 in a byte and clamped [Thin_with_aliasing k] at 254, while
   [Reference] used the unclamped k — so the two implementations diverged
   for k >= 255 on any path longer than the clamp.  The clamp now lives
   in ONE place ([Slicer.initial_budget], exposed as
   [Slicer.max_aliasing_budget]) that every traversal reads. *)
let test_budget_clamp_boundary () =
  Alcotest.(check int) "saturation point" 254 Slicer.max_aliasing_budget;
  Alcotest.(check int) "initial_budget clamps"
    Slicer.max_aliasing_budget
    (Slicer.initial_budget (Slicer.Thin_with_aliasing 1000));
  Alcotest.(check int) "initial_budget below the clamp" 253
    (Slicer.initial_budget (Slicer.Thin_with_aliasing 253));
  let n = 300 in
  let src = chain_program n in
  let a = analysis src in
  let g = a.Engine.sdg in
  let line = line_of ~src ~pattern:(Printf.sprintf "Box b%d = b%d.f;" n (n - 1)) in
  let seeds = Engine.seeds_at_line_exn ~filter:Engine.Only_loads a line in
  let csr k = Slicer.slice g ~seeds (Slicer.Thin_with_aliasing k) in
  let reference k =
    Slice_oracle.Reference_walk.slice g ~seeds (Slicer.Thin_with_aliasing k)
  in
  List.iter
    (fun k ->
      Alcotest.(check (list int))
        (Printf.sprintf "CSR == Reference at k=%d" k)
        (reference k) (csr k))
    [ 253; 254; 255; 1000 ];
  Alcotest.(check (list int)) "k=255 saturates to k=254" (csr 254) (csr 255);
  Alcotest.(check (list int)) "k=1000 saturates to k=254" (csr 254) (csr 1000);
  Alcotest.(check bool) "k=253 is strictly below the saturation point" true
    (List.length (csr 253) < List.length (csr 254))

(* Regression for the multi-file duplicate-lines bug: distinct files share
   line numbers, and [slice_line_numbers] deduplicated (file, line) PAIRS
   before dropping the file — so a slice touching a.tj:3 and b.tj:3
   reported line 3 twice.  The projection must be sorted-distinct over the
   bare ints. *)
let two_file_a =
  "void main(String[] args) {\n\
  \  int x = mk();\n\
  \  print(itoa(use(x)));\n\
   }\n"

let two_file_b =
  "int mk() {\n\
  \  int a = 1;\n\
  \  return a + 1;\n\
   }\n\
   int use(int v) {\n\
  \  return v * 2;\n\
   }\n"

let test_two_file_line_numbers () =
  let a = Engine.of_sources [ ("a.tj", two_file_a); ("b.tj", two_file_b) ] in
  let g = a.Engine.sdg in
  let seeds = Engine.seeds_at_line_exn ~filter:Engine.Only_calls a 3 in
  let mode = Slicer.Traditional_data in
  let locs = Slicer.nodes_to_lines g (Slicer.slice g ~seeds mode) in
  let files =
    List.sort_uniq compare (List.map (fun l -> l.Slice_ir.Loc.file) locs)
  in
  Alcotest.(check (list string)) "slice spans both files" [ "a.tj"; "b.tj" ]
    files;
  let lines = Slicer.slice_line_numbers g ~seeds mode in
  Alcotest.(check bool) "projection is non-vacuous (some line is in both files)"
    true
    (List.length locs > List.length lines);
  Alcotest.(check (list int)) "sorted distinct ints"
    (List.sort_uniq compare lines)
    lines;
  Alcotest.(check (list int)) "locs_to_line_numbers agrees"
    (Slicer.locs_to_line_numbers locs)
    lines;
  (* the Engine batch projection goes through the same dedup *)
  List.iter
    (fun (_, batch_lines) ->
      Alcotest.(check (list int)) "batch lines sorted distinct"
        (List.sort_uniq compare batch_lines)
        batch_lines)
    (Engine.slice_batch ~filter:Engine.Only_calls a ~lines:[ 3 ] mode);
  (* the per-file seed lookup splits the shared line between the files *)
  let at file = Sdg.nodes_at_line g ~file ~line:3 in
  let in_a = at (Some "a.tj") and in_b = at (Some "b.tj") in
  Alcotest.(check bool) "line 3 has nodes in both files" true
    (in_a <> [] && in_b <> []);
  Alcotest.(check (list int)) "file:None is the union of the two files"
    (List.sort compare (in_a @ in_b))
    (at None);
  Alcotest.(check (list int)) "an unknown file has no nodes" []
    (at (Some "c.tj"));
  Helpers.check_loc_columns ~ctx:"two files" ~slices:[ Slicer.slice g ~seeds mode ] g

(* Line keys of a many-file program: 50 one-method class files and a
   600-line main.  Keys once packed [rank * stride + line] with one stride
   for every file (the longest file's line count + 1), so the key space —
   and the stamp [nodes_to_lines] allocates on every query — grew with
   files × the longest file.  Each file now gets its own base, so the
   space is bounded by the source's own line count. *)
let many_file_units () =
  let classes =
    List.init 50 (fun i ->
        ( Printf.sprintf "c%02d.tj" i,
          Printf.sprintf
            "class C%d {\n  int v;\n  C%d(int x) { this.v = x; }\n  int get() { return this.v + %d; }\n}\n"
            i i i ))
  in
  let main =
    let b = Buffer.create 16384 in
    Buffer.add_string b "void main(String[] args) {\n  int acc = 0;\n";
    List.iteri
      (fun i _ ->
        Printf.bprintf b "  C%d o%d = new C%d(%d);\n  acc = acc + o%d.get();\n"
          i i i i i)
      classes;
    (* pad main to 600 lines *)
    for _ = 1 to 495 do
      Buffer.add_string b "  acc = acc + 1;\n"
    done;
    Buffer.add_string b "  print(itoa(acc));\n}\n";
    Buffer.contents b
  in
  ("main.tj", main) :: classes

let test_many_file_line_keys () =
  let units = many_file_units () in
  let a = Engine.of_sources units in
  let g = a.Engine.sdg in
  let source_lines =
    List.fold_left
      (* each unit ends in a newline, so this counts lines + 1 *)
      (fun acc (_, src) -> acc + List.length (String.split_on_char '\n' src))
      0 units
  in
  Alcotest.(check bool)
    (Printf.sprintf "num_line_keys %d <= sum of (lines + 1) %d"
       (Sdg.num_line_keys g) source_lines)
    true
    (Sdg.num_line_keys g <= source_lines);
  (* line 4 holds a [get] body in every class file and a statement of
     main: [~file:None] is the union of the per-file answers *)
  let at file = Sdg.nodes_at_line g ~file ~line:4 in
  let per_file = List.concat_map (fun (f, _) -> at (Some f)) units in
  Alcotest.(check bool) "line 4 has nodes in every file" true
    (List.for_all (fun (f, _) -> at (Some f) <> []) units);
  Alcotest.(check (list int)) "file:None is the union of the files"
    (List.sort compare per_file) (at None);
  let print_line =
    line_of ~src:(List.assoc "main.tj" units) ~pattern:"print(itoa(acc));"
  in
  let seeds = Sdg.nodes_at_line g ~file:(Some "main.tj") ~line:print_line in
  let slice = Slicer.slice g ~seeds Slicer.Thin in
  Alcotest.(check bool) "the slice reaches the class files" true
    (List.exists
       (fun l -> l.Slice_ir.Loc.file <> "main.tj")
       (Slicer.nodes_to_lines g slice));
  Helpers.check_loc_columns ~ctx:"many files" ~slices:[ slice ] g

(* The shared walk scratch: reused across walks, graphs and directions,
   it returns exactly what the seed algorithm does (walks must fully
   restore the buffers they touch, and grow them for a bigger graph). *)
let test_shared_scratch_reuse () =
  let src1 = Paper_figures.fig1 and src2 = Prog_nanoxml.base in
  let a1 = analysis src1 and a2 = analysis src2 in
  let g1 = a1.Engine.sdg and g2 = a2.Engine.sdg in
  let seeds1 =
    Engine.seeds_at_line_exn a1 (line_of ~src:src1 ~pattern:Paper_figures.fig1_seed)
  in
  let seeds2 =
    Engine.seeds_at_line_exn a2
      (line_of ~src:src2 ~pattern:"print((String) this.lines.get(i));")
  in
  List.iter
    (fun mode ->
      Slicer.shrink_shared_scratch ~keep:(Sdg.num_nodes g1);
      Alcotest.(check (list int)) "g1 backward on the shared scratch"
        (Slice_oracle.Reference_walk.slice g1 ~seeds:seeds1 mode)
        (Slicer.slice g1 ~seeds:seeds1 mode);
      (* the same buffers then walk a BIGGER graph (grow-only) *)
      Alcotest.(check (list int)) "g2 backward on the same scratch"
        (Slice_oracle.Reference_walk.slice g2 ~seeds:seeds2 mode)
        (Slicer.slice g2 ~seeds:seeds2 mode);
      Alcotest.(check bool) "walking g2 grew the scratch" true
        (Slicer.shared_scratch_capacity () >= Sdg.num_nodes g2);
      Alcotest.(check (list int)) "g2 forward on the same scratch"
        (Slice_oracle.Reference_walk.forward_slice g2 ~seeds:seeds2 mode)
        (Slicer.forward_slice g2 ~seeds:seeds2 mode);
      (* and back to the small graph *)
      Alcotest.(check (list int)) "g1 again on the same scratch"
        (Slice_oracle.Reference_walk.slice g1 ~seeds:seeds1 mode)
        (Slicer.slice g1 ~seeds:seeds1 mode))
    [ Slicer.Thin; Slicer.Thin_with_aliasing 1; Slicer.Traditional_full ]

(* Shrink: the serve daemon's eviction path.  Growing the shared scratch
   on a big graph, shrinking, and re-walking must (a) actually release
   capacity, (b) stay correct — the next walk just regrows. *)
let test_scratch_shrink_roundtrip () =
  let small = analysis Paper_figures.fig1 and big = analysis Prog_nanoxml.base in
  let g_small = small.Engine.sdg and g_big = big.Engine.sdg in
  let n_small = Sdg.num_nodes g_small and n_big = Sdg.num_nodes g_big in
  Alcotest.(check bool) "nanoxml dwarfs fig1" true (n_big > n_small);
  let seeds =
    Engine.seeds_at_line_exn big
      (line_of ~src:Prog_nanoxml.base
         ~pattern:"print((String) this.lines.get(i));")
  in
  Slicer.shrink_shared_scratch ~keep:n_small;
  ignore (Slicer.slice g_small ~seeds:[ 0 ] Slicer.Thin);
  Alcotest.(check int) "sized to the small graph" n_small
    (Slicer.shared_scratch_capacity ());
  let r1 = Slicer.slice g_big ~seeds Slicer.Thin in
  Alcotest.(check bool) "walking the big graph grew it" true
    (Slicer.shared_scratch_capacity () >= n_big);
  Slicer.shrink_shared_scratch ~keep:n_small;
  Alcotest.(check int) "shrunk back to keep" n_small
    (Slicer.shared_scratch_capacity ());
  Alcotest.(check (list int)) "correct after shrinking (regrows)" r1
    (Slicer.slice g_big ~seeds Slicer.Thin);
  Slicer.shrink_shared_scratch ~keep:0;
  Alcotest.(check int) "keep clamps to at least one node" 1
    (Slicer.shared_scratch_capacity ())

let test_provenance_shrink_invalidates () =
  let small = analysis Paper_figures.fig1 and big = analysis Prog_nanoxml.base in
  let g_big = big.Engine.sdg in
  let n_small = Sdg.num_nodes small.Engine.sdg in
  let seeds =
    Engine.seeds_at_line_exn big
      (line_of ~src:Prog_nanoxml.base
         ~pattern:"print((String) this.lines.get(i));")
  in
  let prov = Slicer.create_provenance small.Engine.sdg in
  let r1 = Slicer.slice ~prov g_big ~seeds Slicer.Thin in
  let member = List.hd (List.rev r1) in
  Alcotest.(check bool) "witness before shrink" true
    (Slicer.witness prov member <> None);
  Slicer.shrink_provenance prov ~keep:n_small;
  Alcotest.(check int) "side tables shrunk" n_small
    (Slicer.provenance_capacity prov);
  (* stale records must not survive the shrink: no mode, no witnesses *)
  Alcotest.(check bool) "recorded mode cleared" true
    (Slicer.provenance_mode prov = None);
  Alcotest.(check bool) "witness gone after shrink" true
    (Slicer.witness prov member = None);
  (* a fresh recorded walk through the shrunk handle works again *)
  let r2 = Slicer.slice ~prov g_big ~seeds Slicer.Thin in
  Alcotest.(check (list int)) "re-walk equal" r1 r2;
  Alcotest.(check bool) "witness restored by the re-walk" true
    (Slicer.witness prov member <> None)

let suite =
  [ Alcotest.test_case "mode ordering" `Quick test_mode_ordering;
    Alcotest.test_case "fig1 exact thin slice" `Quick test_fig1_exact_thin;
    Alcotest.test_case "fig1 traditional plumbing" `Quick
      test_fig1_traditional_includes_plumbing;
    Alcotest.test_case "thin ignores base pointers" `Quick
      test_thin_ignores_base_pointers;
    Alcotest.test_case "bfs metric" `Quick test_bfs_metric;
    Alcotest.test_case "bfs deterministic" `Quick test_bfs_order_deterministic;
    Alcotest.test_case "alias budget 0 == thin" `Quick test_alias0_equals_thin;
    Alcotest.test_case "chop symmetric" `Quick test_chop_symmetric;
    Alcotest.test_case "batch matches single" `Quick test_batch_matches_single;
    Alcotest.test_case "budget clamp boundary parity" `Quick
      test_budget_clamp_boundary;
    Alcotest.test_case "two-file line-number dedup" `Quick
      test_two_file_line_numbers;
    Alcotest.test_case "many-file line keys" `Quick test_many_file_line_keys;
    Alcotest.test_case "shared scratch reuse" `Quick test_shared_scratch_reuse;
    Alcotest.test_case "scratch shrink roundtrip" `Quick
      test_scratch_shrink_roundtrip;
    Alcotest.test_case "provenance shrink invalidates records" `Quick
      test_provenance_shrink_invalidates ]
