(* Incremental re-analysis: edit -> delta -> patched SDG.

   The oracle throughout: a handle carried through [Engine.update] must
   answer every query exactly like a fresh [Engine.load] of the edited
   sources — slices in every mode, canonical points-to and call-graph
   dumps, inspection reports, stats.  The tiers (Noop / Patched /
   Resolved_incremental / Resolved_fresh / Rebuilt) only change how
   much work runs, never the answers. *)

open Slice_core
open Slice_front

(* ----- fixture program ----- *)

(* Small but layered: a class with field state, a helper free function,
   heap flow through [set]/[get], and a printing main.  Each tier's edit
   targets a different method body. *)
let base_src =
  {|class A {
  int f;
  int get() { return this.f; }
  void set(int v) { this.f = v + 0; }
}
int compute(int x) {
  int y = x * 2;
  return y + 1;
}
void main(String[] args) {
  A a = new A();
  a.set(5);
  int z = compute(a.get());
  print("" + z);
}
|}

let file = "inc.tj"

(* Line of the first occurrence of [sub] (1-based). *)
let line_of (src : string) (sub : string) : int =
  let lines = String.split_on_char '\n' src in
  let rec go i = function
    | [] -> failwith ("line_of: " ^ sub)
    | l :: rest ->
      let has =
        let ll = String.length l and ls = String.length sub in
        let rec at j = j + ls <= ll && (String.sub l j ls = sub || at (j + 1)) in
        ls = 0 || at 0
      in
      if has then i else go (i + 1) rest
  in
  go 1 lines

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

let all_modes =
  [ Slicer.Thin; Slicer.Thin_with_aliasing 1; Slicer.Traditional_data;
    Slicer.Traditional_full ]

(* The full oracle: updated handle vs fresh load of the same sources. *)
let check_equiv ~(what : string) (h : Engine.handle)
    (sources : (string * string) list) (seed_lines : int list) : unit =
  let fresh = Engine.load sources in
  let a = h.Engine.h_analysis and b = fresh.Engine.h_analysis in
  List.iter
    (fun mode ->
      List.iter
        (fun line ->
          let name =
            Printf.sprintf "%s: slice @%d %s" what line
              (Slicer.mode_to_string mode)
          in
          Alcotest.(check (list int))
            name
            (Engine.slice_from_line b ~line mode)
            (Engine.slice_from_line a ~line mode))
        seed_lines)
    all_modes;
  Alcotest.(check (list (pair string (list string))))
    (what ^ ": canonical pts dump")
    (Engine.pts_dump_canonical b)
    (Engine.pts_dump_canonical a);
  Alcotest.(check (list (pair string (list string))))
    (what ^ ": canonical call graph")
    (Engine.call_graph_dump_canonical b)
    (Engine.call_graph_dump_canonical a);
  Helpers.check_arena ~ctx:what h;
  let s1 = h.Engine.h_stats and s2 = fresh.Engine.h_stats in
  Alcotest.(check int) (what ^ ": methods") s2.Engine.methods s1.Engine.methods;
  Alcotest.(check int)
    (what ^ ": ir_statements")
    s2.Engine.ir_statements s1.Engine.ir_statements;
  Alcotest.(check int)
    (what ^ ": sdg_statements")
    s2.Engine.sdg_statements s1.Engine.sdg_statements;
  Alcotest.(check int)
    (what ^ ": live sdg_nodes")
    s2.Engine.sdg_nodes s1.Engine.sdg_nodes;
  (* The per-program edge census a resident daemon reports.  The fresh
     load's scoped snapshot can carry zero-valued counters interned by
     earlier tests in this process; the census never emits zeros, so
     filter them before comparing. *)
  let nonzero (snap : Slice_obs.snapshot) =
    { snap with
      Slice_obs.snap_counters =
        List.filter (fun (_, v) -> v <> 0) snap.Slice_obs.snap_counters }
  in
  Alcotest.(check string)
    (what ^ ": edges_by_kind")
    (Slice_obs.Json.to_string
       (Engine.edges_by_kind_json (nonzero s2.Engine.obs)))
    (Slice_obs.Json.to_string
       (Engine.edges_by_kind_json
          (Engine.edge_census_snapshot a.Engine.sdg)))

let path_testable =
  Alcotest.testable
    (fun fmt p -> Format.pp_print_string fmt (Engine.update_path_to_string p))
    ( = )

(* ----- delta classifier units ----- *)

let test_skeleton () =
  let sk = Delta.skeleton base_src in
  Alcotest.(check int)
    "skeleton preserves line count"
    (List.length (String.split_on_char '\n' base_src))
    (List.length (String.split_on_char '\n' sk));
  (* Body interiors are blanked... *)
  let contains s sub =
    let ls = String.length s and lo = String.length sub in
    let rec at j = j + lo <= ls && (String.sub s j lo = sub || at (j + 1)) in
    at 0
  in
  Alcotest.(check bool) "body expr blanked" false (contains sk "x * 2");
  (* ...while signatures survive. *)
  Alcotest.(check bool) "signature kept" true (contains sk "int compute(int x)")

let test_diff_tiers () =
  let units src = [ (file, src) ] in
  (match Delta.diff ~old_sources:(units base_src) ~new_sources:(units base_src)
   with
  | Delta.Same -> ()
  | _ -> Alcotest.fail "byte-equal should be Same");
  (match
     Delta.diff ~old_sources:(units base_src)
       ~new_sources:(units (replace base_src "x * 2" "x * 3"))
   with
  | Delta.Bodies [ cm ] ->
    Alcotest.(check string) "changed method" "compute" cm.Delta.cm_name;
    Alcotest.(check (option string)) "free function" None cm.Delta.cm_class
  | _ -> Alcotest.fail "body edit should be Bodies [compute]");
  (match
     Delta.diff ~old_sources:(units base_src)
       ~new_sources:
         (units (replace base_src "int compute(int x)" "int compute(int q)"))
   with
  | Delta.Structural -> ()
  | _ -> Alcotest.fail "signature edit should be Structural");
  (match
     Delta.diff ~old_sources:(units base_src)
       ~new_sources:(units (base_src ^ "\n"))
   with
  | Delta.Structural -> ()
  | _ -> Alcotest.fail "line-count change should be Structural");
  (* Unit lists that differ in file names are Structural. *)
  match
    Delta.diff ~old_sources:(units base_src)
      ~new_sources:[ ("other.tj", base_src) ]
  with
  | Delta.Structural -> ()
  | _ -> Alcotest.fail "renamed unit should be Structural"

(* ----- update tiers ----- *)

let seed_lines_of src = [ line_of src "print("; line_of src "int z = " ]

let test_update_noop () =
  let h = Engine.load [ (file, base_src) ] in
  let h', rep = Engine.update h [ (file, base_src) ] in
  Alcotest.check path_testable "noop path" Engine.Noop rep.Engine.up_path;
  Alcotest.(check int) "nothing relowered" 0 rep.Engine.up_relowered;
  Alcotest.(check bool) "same handle" true (h == h')

let test_update_patched () =
  let h = Engine.load [ (file, base_src) ] in
  let gen0 = Sdg.generation h.Engine.h_analysis.Engine.sdg in
  let edited = replace base_src "x * 2" "x * 3" in
  let h', rep = Engine.update h [ (file, edited) ] in
  Alcotest.check path_testable "patched path" Engine.Patched rep.Engine.up_path;
  Alcotest.(check int) "one body relowered" 1 rep.Engine.up_relowered;
  Alcotest.(check bool)
    "segments refrozen < total" true
    (rep.Engine.up_segments_refrozen < rep.Engine.up_segments_total);
  Alcotest.(check bool)
    "graph patched in place" true
    (h'.Engine.h_analysis.Engine.sdg == h.Engine.h_analysis.Engine.sdg);
  Alcotest.(check int)
    "generation bumped" (gen0 + 1)
    (Sdg.generation h'.Engine.h_analysis.Engine.sdg);
  check_equiv ~what:"patched" h' [ (file, edited) ] (seed_lines_of edited)

(* A chain of patches: each one must stay equivalent to a fresh load. *)
let test_update_patched_chain () =
  let h = Engine.load [ (file, base_src) ] in
  let v1 = replace base_src "x * 2" "x * 9" in
  let v2 = replace v1 "v + 0" "v + 1" in
  let v3 = replace v2 "\"\" + z" "\"z=\" + z" in
  let h1, r1 = Engine.update h [ (file, v1) ] in
  let h2, r2 = Engine.update h1 [ (file, v2) ] in
  let h3, r3 = Engine.update h2 [ (file, v3) ] in
  List.iter
    (fun (r : Engine.update_report) ->
      Alcotest.check path_testable "chain patched" Engine.Patched
        r.Engine.up_path)
    [ r1; r2; r3 ];
  check_equiv ~what:"patch chain" h3 [ (file, v3) ] (seed_lines_of v3)

(* Editing the entry method exercises the $clinit-prepend replay. *)
let test_update_patched_entry () =
  let h = Engine.load [ (file, base_src) ] in
  let edited = replace base_src "a.set(5)" "a.set(7)" in
  let h', rep = Engine.update h [ (file, edited) ] in
  Alcotest.check path_testable "entry edit patched" Engine.Patched
    rep.Engine.up_path;
  check_equiv ~what:"entry edit" h' [ (file, edited) ] (seed_lines_of edited)

(* The arena the SDG reads must follow every tier that keeps the
   analysis: a Patched body edit re-lowers the edited method into it, a
   Patched method add or remove appends or drops that method, and a
   resolved update lowers it whole. *)
let test_arena_every_tier () =
  let step ~ctx want h src =
    let h', rep = Engine.update h [ (file, src) ] in
    Alcotest.check path_testable ctx want rep.Engine.up_path;
    Helpers.check_arena ~ctx h';
    h'
  in
  let h0 = Engine.load [ (file, base_src) ] in
  Helpers.check_arena ~ctx:"load" h0;
  let v1 = replace base_src "x * 2" "x * 3" in
  let h1 = step ~ctx:"patched body edit" Engine.Patched h0 v1 in
  let v2 = v1 ^ "int zzextra(int q) {\n  return q + 4;\n}\n" in
  let h2 = step ~ctx:"method add" Engine.Patched h1 v2 in
  let h3 = step ~ctx:"method remove" Engine.Patched h2 v1 in
  let v4 =
    replace v1 "void set(int v) { this.f = v + 0; }"
      "void set(int v) { A t = new A(); this.f = v; }"
  in
  let h4 = step ~ctx:"resolved" Engine.Resolved_incremental h3 v4 in
  check_equiv ~what:"arena chain" h4 [ (file, v4) ] (seed_lines_of v4)

let test_update_resolved () =
  let h = Engine.load [ (file, base_src) ] in
  (* Same line count, but a new allocation site: the constraint summary
     moves, so the solved points-to result cannot be re-keyed — but the
     affected cone (one method with almost no pointer flow) is small,
     so the bitset solver repairs it in place. *)
  let edited =
    replace base_src "void set(int v) { this.f = v + 0; }"
      "void set(int v) { A t = new A(); this.f = v; }"
  in
  let h', rep = Engine.update h [ (file, edited) ] in
  Alcotest.check path_testable "resolved path" Engine.Resolved_incremental
    rep.Engine.up_path;
  Alcotest.(check int) "one body relowered" 1 rep.Engine.up_relowered;
  check_equiv ~what:"resolved" h' [ (file, edited) ] (seed_lines_of edited)

(* A summary move in the entry method retracts every context reachable
   only through it, so the affected cone is the whole node universe:
   [Andersen.resolve_delta] declines it as [`Cone_too_big], and the
   update takes a fresh solve over the mutated program. *)
let test_update_resolved_fresh () =
  let h = Engine.load [ (file, base_src) ] in
  let edited =
    replace base_src "A a = new A();" "A a = new A(); A b = new A();"
  in
  let h', rep = Engine.update h [ (file, edited) ] in
  Alcotest.check path_testable "resolved-fresh path" Engine.Resolved_fresh
    rep.Engine.up_path;
  Alcotest.(check int) "one body relowered" 1 rep.Engine.up_relowered;
  check_equiv ~what:"resolved-fresh" h' [ (file, edited) ]
    (seed_lines_of edited)

(* Work proportional to the edit on javac: constant tweaks inside N
   distinct scanner predicates stay on the Patched path, re-lower exactly
   N bodies, and re-wire a strict subset of the SDG segments that does
   not shrink as N grows. *)
let test_update_patched_n_methods () =
  let src = Slice_workloads.Prog_javac.base in
  let file = "javac.tj" in
  let edits =
    [ ("c == 9;", "c == 10;");   (* Scanner.isSpace *)
      ("c <= 57;", "c <= 56;");  (* Scanner.isDigit *)
      ("c == 95;", "c == 94;") ] (* Scanner.isNameChar *)
  in
  let h0 = Engine.load [ (file, src) ] in
  let refrozen =
    List.mapi
      (fun i _ ->
        let n = i + 1 in
        let edited =
          List.fold_left
            (fun acc (o, by) -> replace acc o by)
            src
            (List.filteri (fun j _ -> j < n) edits)
        in
        let h', rep = Engine.update h0 [ (file, edited) ] in
        let what = Printf.sprintf "%d-method edit" n in
        Alcotest.check path_testable (what ^ ": path") Engine.Patched
          rep.Engine.up_path;
        Alcotest.(check int) (what ^ ": relowered") n rep.Engine.up_relowered;
        if rep.Engine.up_segments_refrozen >= rep.Engine.up_segments_total
        then
          Alcotest.failf "%s: %d of %d segments refrozen" what
            rep.Engine.up_segments_refrozen rep.Engine.up_segments_total;
        if n = List.length edits then
          check_equiv ~what h' [ (file, edited) ]
            [ line_of edited "c == 10;"; line_of edited "print(" ];
        rep.Engine.up_segments_refrozen)
      edits
  in
  Alcotest.(check (list int))
    "refrozen segments non-decreasing in N"
    (List.sort compare refrozen) refrozen

let test_update_rebuilt () =
  let h = Engine.load [ (file, base_src) ] in
  (* A field addition changes the class shell: no incremental tier
     admits it. *)
  let edited = replace base_src "int f;" "int f;\n  int f2;" in
  let h', rep = Engine.update h [ (file, edited) ] in
  Alcotest.check path_testable "rebuilt path" Engine.Rebuilt rep.Engine.up_path;
  (* a rebuild forced by a failing incremental tier prints apart *)
  Alcotest.(check string) "fallback spelling"
    "rebuilt (fallback: Failure(\"x\"))"
    (Engine.update_path_to_string
       (Engine.Rebuilt_fallback (Printexc.to_string (Failure "x"))));
  Alcotest.(check int)
    "rebuild refreezes everything" rep.Engine.up_segments_total
    rep.Engine.up_segments_refrozen;
  check_equiv ~what:"rebuilt" h' [ (file, edited) ] (seed_lines_of edited)

let test_update_multifile () =
  let a_src =
    {|class A {
  int f;
  int get() { return this.f; }
  void set(int v) { this.f = v + 0; }
}
|}
  in
  let b_src =
    {|int compute(int x) {
  int y = x * 2;
  return y + 1;
}
void main(String[] args) {
  A a = new A();
  a.set(5);
  int z = compute(a.get());
  print("" + z);
}
|}
  in
  let h = Engine.load [ ("a.tj", a_src); ("b.tj", b_src) ] in
  let b2 = replace b_src "x * 2" "x * 5" in
  let h', rep = Engine.update h [ ("a.tj", a_src); ("b.tj", b2) ] in
  Alcotest.check path_testable "multifile patched" Engine.Patched
    rep.Engine.up_path;
  check_equiv ~what:"multifile" h'
    [ ("a.tj", a_src); ("b.tj", b2) ]
    [ line_of b2 "print("; line_of b2 "int z = " ];
  (* Edit in the class file too. *)
  let a2 = replace a_src "v + 0" "v + 0 + 0" in
  let h'', rep2 = Engine.update h' [ ("a.tj", a2); ("b.tj", b2) ] in
  Alcotest.check path_testable "class-method patched" Engine.Patched
    rep2.Engine.up_path;
  check_equiv ~what:"multifile-2" h''
    [ ("a.tj", a2); ("b.tj", b2) ]
    [ line_of b2 "print(" ]

(* A body edit whose interior is garbage: classified Bodies, but both
   the incremental path and the rebuild fallback hit the parse error.
   The update must raise cleanly and leave the input handle usable. *)
let test_update_invalid_body () =
  let h = Engine.load [ (file, base_src) ] in
  let line = line_of base_src "print(" in
  let before = Engine.slice_from_line h.Engine.h_analysis ~line Slicer.Thin in
  let edited = replace base_src "int y = x * 2;" "int y = @#$ !!;" in
  (match Engine.update h [ (file, edited) ] with
  | exception _ -> ()
  | _ -> Alcotest.fail "garbage body should not analyze");
  Alcotest.(check (list int))
    "input handle survives failed update" before
    (Engine.slice_from_line h.Engine.h_analysis ~line Slicer.Thin)

(* ----- provenance staleness across an update (witness replay) ----- *)

let test_witness_stale_after_update () =
  let h = Engine.load [ (file, base_src) ] in
  let a = h.Engine.h_analysis in
  let g = a.Engine.sdg in
  let line = line_of base_src "print(" in
  let seeds = Engine.seeds_at_line_exn a line in
  let prov = Slicer.create_provenance g in
  let members = Slicer.slice ~prov g ~seeds Slicer.Thin in
  let n = List.hd members in
  Alcotest.(check bool)
    "witness before update" true
    (Slicer.witness prov n <> None);
  let edited = replace base_src "x * 2" "x * 4" in
  let h', rep = Engine.update h [ (file, edited) ] in
  Alcotest.check path_testable "patched" Engine.Patched rep.Engine.up_path;
  (* The recorded walk predates the patch: generation-stamped records
     must refuse, not replay a path through retired nodes. *)
  Alcotest.(check bool)
    "witness stale after update" true
    (Slicer.witness prov n = None);
  Alcotest.(check bool)
    "distance stale after update" true
    (Slicer.distance prov n = None);
  (* A fresh recorded walk over the patched graph answers again. *)
  let a' = h'.Engine.h_analysis in
  let seeds' = Engine.seeds_at_line_exn a' line in
  let members' = Slicer.slice ~prov a'.Engine.sdg ~seeds:seeds' Slicer.Thin in
  Alcotest.(check bool)
    "witness answers after re-walk" true
    (Slicer.witness prov (List.hd members') <> None)

(* witness_from_line walks fresh provenance per query — it must answer
   identically on an updated handle and a fresh load. *)
let test_witness_from_line_after_update () =
  let h = Engine.load [ (file, base_src) ] in
  let edited = replace base_src "x * 2" "x * 6" in
  let h', _ = Engine.update h [ (file, edited) ] in
  let fresh = Engine.load [ (file, edited) ] in
  let seed_line = line_of edited "print(" in
  let target = line_of edited "int y = x * 6;" in
  let steps a =
    match
      Engine.witness_from_line a ~seed_line ~line:target Slicer.Thin
    with
    | None -> Alcotest.fail "producer line must be a member"
    | Some steps ->
      List.map
        (fun (s : Slicer.witness_step) ->
          let loc = Sdg.node_loc a.Engine.sdg s.Slicer.wit_node in
          (loc.Slice_ir.Loc.line, s.Slicer.wit_kind, s.Slicer.wit_dist))
        steps
  in
  Alcotest.(check bool)
    "witness parity on updated handle" true
    (steps h'.Engine.h_analysis = steps fresh.Engine.h_analysis)

(* ----- inspection metric on updated handles ----- *)

let test_inspect_after_update () =
  let h = Engine.load [ (file, base_src) ] in
  let edited = replace base_src "v + 0" "v + 2" in
  let h', rep = Engine.update h [ (file, edited) ] in
  Alcotest.check path_testable "patched" Engine.Patched rep.Engine.up_path;
  let fresh = Engine.load [ (file, edited) ] in
  let line = line_of edited "print(" in
  let desired = [ line_of edited "this.f = v + 2" ] in
  List.iter
    (fun mode ->
      let r a = Engine.inspect_from_line a ~line ~desired mode in
      let ra = r h'.Engine.h_analysis and rb = r fresh.Engine.h_analysis in
      let name what =
        Printf.sprintf "inspect %s (%s)" what (Slicer.mode_to_string mode)
      in
      Alcotest.(check int) (name "inspected") rb.Inspect.inspected
        ra.Inspect.inspected;
      Alcotest.(check bool) (name "found") rb.Inspect.found ra.Inspect.found;
      Alcotest.(check int) (name "slice_size") rb.Inspect.slice_size
        ra.Inspect.slice_size;
      Alcotest.(check (list (pair string int)))
        (name "order") rb.Inspect.order ra.Inspect.order;
      Alcotest.(check (list int))
        (name "order_depths") rb.Inspect.order_depths ra.Inspect.order_depths)
    all_modes

(* ----- scratch / provenance shrink roundtrip after updates ----- *)

let test_shrink_roundtrip_after_update () =
  let h = Engine.load [ (file, base_src) ] in
  let a = h.Engine.h_analysis in
  let g = a.Engine.sdg in
  let line = line_of base_src "print(" in
  let seeds = Engine.seeds_at_line_exn a line in
  let prov = Slicer.create_provenance g in
  let before = Slicer.slice ~prov g ~seeds Slicer.Thin in
  Alcotest.(check bool)
    "scratch sized for graph" true
    (Slicer.shared_scratch_capacity () >= Sdg.num_nodes g);
  (* Mirror the daemon's eviction shrink: drop to a tiny high-water
     mark, then verify walks regrow and answer identically. *)
  Slicer.shrink_shared_scratch ~keep:1;
  Slicer.shrink_provenance prov ~keep:1;
  Alcotest.(check int) "scratch shrunk" 1 (Slicer.shared_scratch_capacity ());
  Alcotest.(check int) "prov shrunk" 1 (Slicer.provenance_capacity prov);
  Alcotest.(check bool)
    "shrink drops recorded walk" true
    (Slicer.witness prov (List.hd before) = None);
  let again = Slicer.slice ~prov g ~seeds Slicer.Thin in
  Alcotest.(check (list int)) "walk after shrink" before again;
  Alcotest.(check bool)
    "scratch regrew" true
    (Slicer.shared_scratch_capacity () >= Sdg.num_nodes g);
  (* After an update the same resident buffers keep working against the
     patched (larger) graph. *)
  let edited = replace base_src "x * 2" "x * 8" in
  let h', _ = Engine.update h [ (file, edited) ] in
  let a' = h'.Engine.h_analysis in
  let seeds' = Engine.seeds_at_line_exn a' line in
  let after_update = Slicer.slice ~prov a'.Engine.sdg ~seeds:seeds' Slicer.Thin in
  let fresh = Engine.load [ (file, edited) ] in
  let fa = fresh.Engine.h_analysis in
  let expect =
    Slicer.slice fa.Engine.sdg
      ~seeds:(Engine.seeds_at_line_exn fa line)
      Slicer.Thin
  in
  Alcotest.(check (list int))
    "patched-graph walk line parity"
    (Slicer.locs_to_line_numbers (Slicer.nodes_to_lines fa.Engine.sdg expect))
    (Slicer.locs_to_line_numbers
       (Slicer.nodes_to_lines a'.Engine.sdg after_update))

let suite =
  [ Alcotest.test_case "skeleton" `Quick test_skeleton;
    Alcotest.test_case "diff tiers" `Quick test_diff_tiers;
    Alcotest.test_case "update noop" `Quick test_update_noop;
    Alcotest.test_case "update patched" `Quick test_update_patched;
    Alcotest.test_case "update patched chain" `Quick test_update_patched_chain;
    Alcotest.test_case "update patched entry" `Quick test_update_patched_entry;
    Alcotest.test_case "update resolved" `Quick test_update_resolved;
    Alcotest.test_case "arena follows every tier" `Quick test_arena_every_tier;
    Alcotest.test_case "update resolved-fresh (bitset, cone too big)" `Quick
      test_update_resolved_fresh;
    Alcotest.test_case "update patched N methods (javac)" `Quick
      test_update_patched_n_methods;
    Alcotest.test_case "update rebuilt" `Quick test_update_rebuilt;
    Alcotest.test_case "update multifile" `Quick test_update_multifile;
    Alcotest.test_case "invalid body edit" `Quick test_update_invalid_body;
    Alcotest.test_case "witness stale after update" `Quick
      test_witness_stale_after_update;
    Alcotest.test_case "witness parity after update" `Quick
      test_witness_from_line_after_update;
    Alcotest.test_case "inspect after update" `Quick test_inspect_after_update;
    Alcotest.test_case "shrink roundtrip after update" `Quick
      test_shrink_roundtrip_after_update ]
