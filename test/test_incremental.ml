(* Incremental re-analysis: edit -> delta -> patched SDG.

   The oracle throughout: a handle carried through [Engine.update] must
   answer every query exactly like a fresh [Engine.load] of the edited
   sources — slices in every mode, canonical points-to and call-graph
   dumps, inspection reports, stats.  The tiers (Noop / Patched /
   Resolved_incremental / Rebuilt) only change how much work runs,
   never the answers. *)

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

let replace = Helpers.replace

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
  (* A whole method added or removed, alone or with a body edit in the
     same save, is Structural: the engine reloads. *)
  let with_extra = base_src ^ "int extra(int q) {\n  return q + 4;\n}\n" in
  List.iter
    (fun (what, old_src, new_src) ->
      match Delta.diff ~old_sources:(units old_src) ~new_sources:(units new_src)
      with
      | Delta.Structural -> ()
      | _ -> Alcotest.failf "%s should be Structural" what)
    [ ("method add", base_src, with_extra);
      ("method remove", with_extra, base_src);
      ("method add with a body edit", base_src,
        replace with_extra "x * 2" "x * 3") ];
  (* Unit lists that differ in file names are Structural. *)
  match
    Delta.diff ~old_sources:(units base_src)
      ~new_sources:[ ("other.tj", base_src) ]
  with
  | Delta.Structural -> ()
  | _ -> Alcotest.fail "renamed unit should be Structural"

(* The path [Delta.diff] took, read from its span. *)
let diff_with_path ~old_src ~new_src : Delta.t * string =
  let d, snap =
    Slice_obs.scoped (fun () ->
        Delta.diff ~old_sources:[ (file, old_src) ] ~new_sources:[ (file, new_src) ])
  in
  match snap.Slice_obs.snap_spans with
  | [ sp ] when sp.Slice_obs.sp_name = "delta.diff" -> (
    match List.assoc_opt "path" sp.Slice_obs.sp_args with
    | Some path -> (d, path)
    | None -> Alcotest.fail "delta.diff span without a path")
  | _ -> Alcotest.fail "diff ran outside one delta.diff span"

(* A mini unit's declarations, or the error it fails to parse with. *)
let parse_mini (cm : Delta.changed_method) =
  match
    Parser.parse_string ~line:cm.Delta.cm_line ~file:cm.Delta.cm_file
      cm.Delta.cm_mini
  with
  | cu -> Ok cu.Ast.cu_decls
  | exception e -> Error (Printexc.to_string e)

(* The method declarations of a parsed unit, keyed by class and name. *)
let methods_of (decls : Ast.decl list) =
  List.concat_map
    (function
      | Ast.Dclass cd ->
        List.map
          (fun (md : Ast.method_decl) -> ((Some cd.Ast.cd_name, md.Ast.md_name), md))
          cd.Ast.cd_methods
      | Ast.Dfunc md -> [ ((None, md.Ast.md_name), md) ])
    decls

(* [diff] answers like the full scan: the same tier, the same changed
   methods, and mini units that parse to the same declarations.  When
   the whole new file parses, each mini unit's method is the file's own
   declaration of it, locations included. *)
let check_like_scan ~what ~old_src ~new_src (d : Delta.t) =
  let scan =
    Delta.diff_scan ~old_sources:[ (file, old_src) ] ~new_sources:[ (file, new_src) ]
  in
  let whole =
    match Parser.parse_string ~file new_src with
    | cu -> Some (methods_of cu.Ast.cu_decls)
    | exception _ -> None
  in
  let same_cm (x : Delta.changed_method) (y : Delta.changed_method) =
    x.Delta.cm_file = y.Delta.cm_file
    && x.Delta.cm_class = y.Delta.cm_class
    && x.Delta.cm_name = y.Delta.cm_name
    && parse_mini x = parse_mini y
    &&
    match (whole, parse_mini x) with
    | Some ms, Ok decls ->
      List.for_all
        (fun (key, md) ->
          key <> (x.Delta.cm_class, x.Delta.cm_name)
          || List.exists (fun (k, md') -> k = key && md' = md) ms)
        (methods_of decls)
    | _ -> true
  in
  let agree =
    match (d, scan) with
    | Delta.Same, Delta.Same | Delta.Structural, Delta.Structural -> true
    | Delta.Bodies xs, Delta.Bodies ys ->
      List.length xs = List.length ys && List.for_all2 same_cm xs ys
    | _ -> false
  in
  if not agree then Alcotest.failf "%s: diff and the full scan disagree" what

(* Bodies dense in the bytes the brace scanner reads ahead after
   (division, comments, string escapes), so that mutations land next to
   them. *)
let scanner_src =
  {|class B {
  int k;
  int div(int x) { int q = x /2* 3 /4/ 5; /* halve *1/ then */ return q / 1; }
  String esc() { return "a\"b\\c/d*e" + "//" + "/*" + "*/"; }
}
int comm(int x) {
  // a line comment with { and } and "
  int y = x * 2 / 3; /* a block
  comment */ return y;
}
void main(String[] args) {
  B b = new B();
  print("" + comm(b.div(4)) + b.esc());
}
|}

(* [Delta.diff] classifies most edits from their changed window and
   compares skeletons without building them; the full scan and the
   skeleton strings are its references.  Over byte mutations of a small
   and a generated program, every single-byte edit of [scanner_src], and
   the reverts of all of them (which diff against the segmentation the
   window rule derived), an edit classifies as [Same] or [Bodies]
   exactly when the two skeletons are equal (unbalanced mutants, which
   [skeleton] rejects, are skipped), and every answer is the full
   scan's.  Both the window rule and the scan must decide some of the
   body edits. *)
let test_diff_matches_skeletons () =
  let rng = Random.State.make [| 20 |] in
  let gen = (Slice_fuzz.Gen_tj.generate_scaled ~seed:2 ~stmts:2_000).Slice_fuzz.Gen_tj.sc_src in
  let alphabet = "ab1 \n{};/\"*\\" in
  let compared = ref 0 and equal = ref 0 in
  let window = ref 0 and scanned = ref 0 in
  let check src mutant =
    let d, path = diff_with_path ~old_src:src ~new_src:mutant in
    check_like_scan ~what:"edit" ~old_src:src ~new_src:mutant d;
    let back, _ = diff_with_path ~old_src:mutant ~new_src:src in
    check_like_scan ~what:"revert" ~old_src:mutant ~new_src:src back;
    (match d with
    | Delta.Bodies _ -> if path = "window" then incr window else incr scanned
    | Delta.Same | Delta.Structural -> ());
    match (Delta.skeleton src, Delta.skeleton mutant) with
    | exception _ -> ()
    | a, b ->
      incr compared;
      let same = String.equal a b in
      if same then incr equal;
      let bodies =
        match d with
        | Delta.Same | Delta.Bodies _ -> true
        | Delta.Structural -> false
      in
      if bodies <> same then
        Alcotest.failf "diff says %s, skeletons %s"
          (if bodies then "bodies" else "not bodies")
          (if same then "equal" else "differ")
  in
  (* replace, insert before, or delete the byte at [i] *)
  let mutate cur i c = function
    | 0 -> String.sub cur 0 i ^ c ^ String.sub cur (i + 1) (String.length cur - i - 1)
    | 1 -> String.sub cur 0 i ^ c ^ String.sub cur i (String.length cur - i)
    | _ -> String.sub cur 0 i ^ String.sub cur (i + 1) (String.length cur - i - 1)
  in
  List.iter
    (fun src ->
      for _ = 1 to 150 do
        let s = ref src in
        for _ = 1 to 1 + Random.State.int rng 2 do
          let i = Random.State.int rng (String.length !s - 1) in
          let c = String.make 1 alphabet.[Random.State.int rng (String.length alphabet)] in
          s := mutate !s i c (Random.State.int rng 3)
        done;
        check src !s
      done)
    [ base_src; gen ];
  for i = 0 to String.length scanner_src - 1 do
    check scanner_src (mutate scanner_src i "" 2);
    String.iter
      (fun c ->
        let c = String.make 1 c in
        check scanner_src (mutate scanner_src i c 0);
        check scanner_src (mutate scanner_src i c 1))
      alphabet
  done;
  Alcotest.(check bool) "both outcomes seen" true
    (!equal > 0 && !equal < !compared);
  Alcotest.(check bool) "window rule decided some body edits" true (!window > 0);
  Alcotest.(check bool) "full scan decided some body edits" true (!scanned > 0)

(* A warm one-token tweak and its revert read no byte of the file: the
   changed window alone classifies them ([delta.bytes_scanned] 0,
   [path=window]), and the mini unit lexes only the edited method's
   lines, at 20k as at 60k statements.  Each save is a string the delta
   has never seen, as a save read from disk is. *)
let test_window_delta_counts () =
  let fresh s = Bytes.to_string (Bytes.of_string s) in
  List.iter
    (fun stmts ->
      let src, edited = Helpers.scaled_tweak ~stmts in
      let f = "scaled.tj" in
      (* the edited free function: from its header, the last line
         before the edit that starts in column 1, to its closing brace,
         the first line after it that is a bare [}] *)
      let j = Helpers.first_index ~what:"tweak" src "cur.fi = a % 1001;" in
      let header = ref j in
      while not (src.[!header - 1] = '\n' && src.[!header] <> ' ') do
        decr header
      done;
      let close = Helpers.first_index ~what:"close" (String.sub src j (String.length src - j)) "\n}" in
      let method_lines = ref 1 in
      for i = !header to j + close do
        if src.[i] = '\n' then incr method_lines
      done;
      let h = Engine.load [ (f, src) ] in
      let h, _ = Engine.update h [ (f, edited) ] in
      let h, _ = Engine.update h [ (f, src) ] in
      let save h what text =
        let (h', rep), snap =
          Slice_obs.scoped (fun () -> Engine.update h [ (f, fresh text) ])
        in
        let what = Printf.sprintf "%d %s" stmts what in
        let counter name =
          Option.value ~default:0 (List.assoc_opt name snap.Slice_obs.snap_counters)
        in
        Alcotest.check path_testable (what ^ ": path") Engine.Patched rep.Engine.up_path;
        Alcotest.(check int) (what ^ ": bytes scanned") 0 (counter "delta.bytes_scanned");
        Alcotest.(check int) (what ^ ": lines lexed") !method_lines (counter "front.lines");
        h'
      in
      let h = save h "tweak" edited in
      ignore (save h "revert" src))
    [ 20_000; 60_000 ]

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

(* The arena the SDG reads must follow every tier: a Patched body edit
   re-lowers the edited method into it, a method add or remove reloads
   it with the program, and a resolved update lowers it whole. *)
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
  let h2 = step ~ctx:"method add" Engine.Rebuilt h1 v2 in
  let h3 = step ~ctx:"method remove" Engine.Rebuilt h2 v1 in
  let v4 =
    replace v1 "void set(int v) { this.f = v + 0; }"
      "void set(int v) { A t = new A(); this.f = v; }"
  in
  let h4 = step ~ctx:"resolved" Engine.Resolved_incremental h3 v4 in
  check_equiv ~what:"arena chain" h4 [ (file, v4) ] (seed_lines_of v4)

(* Same line count, but a new allocation site: the constraint summary
   moves, so the solved points-to result cannot be re-keyed, and the
   update analyzes the mutated program afresh.  Two inputs: a move in a
   callee with almost no pointer flow, and one in the entry method,
   which every context is reached through. *)
let test_update_resolved () =
  List.iter
    (fun (what, old_s, new_s) ->
      let h = Engine.load [ (file, base_src) ] in
      let edited = replace base_src old_s new_s in
      let h', rep = Engine.update h [ (file, edited) ] in
      Alcotest.check path_testable (what ^ ": resolved path")
        Engine.Resolved_incremental rep.Engine.up_path;
      Alcotest.(check int) (what ^ ": one body relowered") 1
        rep.Engine.up_relowered;
      check_equiv ~what h' [ (file, edited) ] (seed_lines_of edited))
    [ ( "callee edit",
        "void set(int v) { this.f = v + 0; }",
        "void set(int v) { A t = new A(); this.f = v; }" );
      ("entry edit", "A a = new A();", "A a = new A(); A b = new A();") ]

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

(* ----- scratch shrink roundtrip after updates ----- *)

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
  Alcotest.(check int) "scratch shrunk" 1 (Slicer.shared_scratch_capacity ());
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

(* ----- what a patch keeps in place ----- *)

(* [base_src] with a method that holds the file's last lines, one of
   them free of statements until an edit fills it. *)
let tail_src =
  replace base_src "print(\"\" + z);" "print(\"\" + last(z));"
  ^ "int last(int q) {\n  int r = q + 1;\n  return r;\n  // spare\n}\n"

(* A patched chain: a body edit, an edit that puts a statement on a
   line past the file's last located one (so the line-key space must
   grow), a method add that shifts every later line (a reload), and a
   body edit after the shift.  After each step the statement table, the
   location columns, the edge census and the scalar-statement count,
   kept in place by each patch, equal a fresh recount, and the handle
   answers like a fresh load. *)
let test_patched_state_exact () =
  let h0 = Engine.load [ (file, tail_src) ] in
  let keys g = Sdg.num_line_keys g in
  let step ?(want = Engine.Patched) ~ctx h src =
    let h', rep = Engine.update h [ (file, src) ] in
    Alcotest.check path_testable (ctx ^ ": path") want rep.Engine.up_path;
    Helpers.check_patched_state ~ctx h'.Engine.h_analysis.Engine.sdg;
    check_equiv ~what:ctx h' [ (file, src) ]
      [ line_of src "print("; line_of src "int z = "; line_of src "return r;" ];
    h'
  in
  let v1 = replace tail_src "x * 2" "x * 3" in
  let h1 = step ~ctx:"body edit" h0 v1 in
  let v2 = replace v1 "  return r;\n  // spare\n" "  r = r + 2;\n  return r;\n" in
  (* the graph is patched in place: read its key count first *)
  let keys1 = keys h1.Engine.h_analysis.Engine.sdg in
  let h2 = step ~ctx:"edit past the last line" h1 v2 in
  Alcotest.(check bool)
    "line-key space grew" true
    (keys h2.Engine.h_analysis.Engine.sdg > keys1);
  let v3 =
    replace v2 "void main(" "int zzextra(int q) {\n  return q + 4;\n}\nvoid main("
  in
  let h3 = step ~want:Engine.Rebuilt ~ctx:"method add" h2 v3 in
  let v4 = replace v3 "a.set(5)" "a.set(6)" in
  ignore (step ~ctx:"body edit after the shift" h3 v4)

(* Pass 4 of a patch finds the changed contexts' entry callers through
   the retired nodes' [Control] rows: the call sites it visits are
   exactly those entry callers, not every call site of the program. *)
let test_patch_entry_callers () =
  let src, edited = Helpers.scaled_tweak ~stmts:5_000 in
  let f = "scaled.tj" in
  let h = Engine.load [ (f, src) ] in
  let (h', rep), snap =
    Slice_obs.scoped (fun () -> Engine.update h [ (f, edited) ])
  in
  Alcotest.check path_testable "path" Engine.Patched rep.Engine.up_path;
  let a = h'.Engine.h_analysis in
  (* the edited method: the one holding the tweaked line *)
  let j = Helpers.first_index ~what:"tweak" src "cur.fi = a % 1001;" in
  let line = ref 1 in
  String.iteri (fun i c -> if i < j && c = '\n' then incr line) src;
  let mq =
    match Sdg.nodes_at_line a.Engine.sdg ~file:None ~line:!line with
    | n :: _ -> (
      match Sdg.node_desc a.Engine.sdg n with
      | Sdg.Stmt (mc, _) -> fst (Slice_pta.Andersen.mctx_info a.Engine.pta mc)
      | Sdg.Formal _ | Sdg.Actual_in _ -> Alcotest.fail "no statement node")
    | [] -> Alcotest.failf "no node at line %d" !line
  in
  (* every call site of every context, and those calling [mq] *)
  let entry_callers = ref 0 and sites = ref 0 in
  List.iter
    (fun (mc, cmq, _) ->
      let m = Slice_ir.Program.find_method_exn a.Engine.program cmq in
      if Slice_ir.Instr.has_body m then
        Slice_ir.Instr.iter_instrs m (fun _ i ->
            match i.Slice_ir.Instr.i_kind with
            | Slice_ir.Instr.Call _ ->
              incr sites;
              List.iter
                (fun cmc ->
                  if fst (Slice_pta.Andersen.mctx_info a.Engine.pta cmc) = mq
                  then incr entry_callers)
                (Slice_pta.Andersen.call_targets a.Engine.pta ~mctx:mc
                   ~stmt:i.Slice_ir.Instr.i_id)
            | _ -> ()))
    (Slice_pta.Andersen.method_contexts a.Engine.pta);
  let visited =
    Option.value ~default:0
      (List.assoc_opt "sdg.patch.call_sites_visited"
         snap.Slice_obs.snap_counters)
  in
  Alcotest.(check bool)
    "the edited method has callers" true (!entry_callers > 0);
  Alcotest.(check int)
    "call sites visited = entry callers" !entry_callers visited;
  Alcotest.(check bool) "fewer than the program's call sites" true
    (visited < !sites)

(* Statics through a patch: the writer's body, then a reader's, is
   edited.  After each edit the slices, the live adjacency and the
   patched state equal a fresh load's, the static [Reg.count] still
   reaches its reader, and no static [count] pairs with the instance
   field [count]. *)
let test_statics_patched () =
  let f = "statics.tj" in
  let step ~ctx h src =
    let h', rep = Engine.update h [ (f, src) ] in
    Alcotest.check path_testable (ctx ^ ": path") Engine.Patched rep.Engine.up_path;
    let a = h'.Engine.h_analysis in
    let b = (Engine.load [ (f, src) ]).Engine.h_analysis in
    let at = line_of src in
    List.iter
      (fun mode ->
        List.iter
          (fun line ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s: %s @%d" ctx (Slicer.mode_to_string mode) line)
              (Engine.slice_from_line b ~line mode)
              (Engine.slice_from_line a ~line mode))
          [ at "int c = Reg.count"; at "int k = b.count"; at "return Reg.tag";
            at "print(" ])
      [ Slicer.Thin; Slicer.Traditional_data; Slicer.Traditional_full ];
    Alcotest.(check string) (ctx ^ ": live adjacency")
      (Helpers.live_adjacency_digest b.Engine.sdg)
      (Helpers.live_adjacency_digest a.Engine.sdg);
    Helpers.check_patched_state ~ctx a.Engine.sdg;
    let thin l = Engine.slice_from_line a ~line:(at l) Slicer.Thin in
    Alcotest.(check bool) (ctx ^ ": static write reaches its read") true
      (List.mem (at "Reg.count = v") (thin "int c = Reg.count"));
    Alcotest.(check bool) (ctx ^ ": no instance write at the static read")
      false
      (List.mem (at "this.count = c") (thin "int c = Reg.count"));
    Alcotest.(check bool) (ctx ^ ": no static write at the instance read")
      false
      (List.exists
         (fun l -> List.mem (at l) (thin "int k = b.count"))
         [ "static int count = 7"; "Reg.count = v"; "Other.count = v" ]);
    h'
  in
  let src = Helpers.statics_src in
  let h0 = Engine.load [ (f, src) ] in
  let v1 = replace src "v + 1" "v + 2" in
  let h1 = step ~ctx:"writer edit" h0 v1 in
  ignore (step ~ctx:"reader edit" h1 (replace v1 "c * 2" "c * 3"))

(* The heap index grows with the program, not with the edits: 100
   tweak/revert pairs leave its live cells and its bytes where the load
   put them, since a patch frees the retired accesses' cells and reuses
   free cells first. *)
let test_heap_index_edit_chain () =
  let src, edited = Helpers.scaled_tweak ~stmts:5_000 in
  let f = "scaled.tj" in
  let h = ref (Engine.load [ (f, src) ]) in
  let g = !h.Engine.h_analysis.Engine.sdg in
  let cells = Sdg.heap_index_cells g and bytes = Sdg.heap_index_bytes g in
  for _ = 1 to 100 do
    List.iter
      (fun s ->
        let h', rep = Engine.update !h [ (f, s) ] in
        Alcotest.check path_testable "path" Engine.Patched rep.Engine.up_path;
        h := h')
      [ edited; src ]
  done;
  let g' = !h.Engine.h_analysis.Engine.sdg in
  Alcotest.(check bool) "one graph, patched in place" true (g == g');
  Alcotest.(check int) "live cells" cells (Sdg.heap_index_cells g');
  Alcotest.(check int) "heap_index_bytes" bytes (Sdg.heap_index_bytes g')

(* The same one-method constant tweak costs about the same on a 20k- and
   a 60k-statement program: it retires as many nodes at both sizes, and
   the words [sdg.patch] allocates (minor + major) grow by at most half
   for three times the program.  Each graph takes the edit and its
   revert first: the first patch on a graph allocates the per-node
   overlay state and grows the arena's columns, once.  The measured
   update runs on a minor heap larger than it allocates, so no minor
   collection falls inside it: the major words are then the blocks too
   large for the minor heap, not promotions, whose amount depends on
   where a collection happens to fall. *)
let test_patch_proportional () =
  let measure stmts =
    let src, edited = Helpers.scaled_tweak ~stmts in
    let f = "scaled.tj" in
    let h = Engine.load [ (f, src) ] in
    let h, _ = Engine.update h [ (f, edited) ] in
    let h, _ = Engine.update h [ (f, src) ] in
    let gc = Gc.get () in
    Gc.set { gc with Gc.minor_heap_size = 4 * 1024 * 1024 };
    let (_, rep), snap =
      Fun.protect
        ~finally:(fun () -> Gc.set gc)
        (fun () ->
          Slice_obs.scoped (fun () -> Engine.update h [ (f, edited) ]))
    in
    Alcotest.check path_testable
      (Printf.sprintf "%d: path" stmts)
      Engine.Patched rep.Engine.up_path;
    let rec find = function
      | [] -> Alcotest.failf "%d: no sdg.patch span" stmts
      | (sp : Slice_obs.span_tree) :: rest ->
        if sp.Slice_obs.sp_name = "sdg.patch" then sp
        else find (sp.Slice_obs.sp_children @ rest)
    in
    let sp = find snap.Slice_obs.snap_spans in
    (rep.Engine.up_nodes_dead, sp.Slice_obs.sp_minor_words +. sp.Slice_obs.sp_major_words)
  in
  let dead20, words20 = measure 20_000 in
  let dead60, words60 = measure 60_000 in
  Alcotest.(check int) "same nodes retired at both sizes" dead20 dead60;
  if words60 > 1.5 *. words20 then
    Alcotest.failf "sdg.patch words: %.0f at 60k > 1.5 x %.0f at 20k" words60
      words20

let suite =
  [ Alcotest.test_case "skeleton" `Quick test_skeleton;
    Alcotest.test_case "diff tiers" `Quick test_diff_tiers;
    Alcotest.test_case "diff matches skeleton strings" `Quick
      test_diff_matches_skeletons;
    Alcotest.test_case "window delta scans no byte of the file" `Quick
      test_window_delta_counts;
    Alcotest.test_case "update noop" `Quick test_update_noop;
    Alcotest.test_case "update patched" `Quick test_update_patched;
    Alcotest.test_case "update patched chain" `Quick test_update_patched_chain;
    Alcotest.test_case "patched state exact over a chain" `Quick
      test_patched_state_exact;
    Alcotest.test_case "patch words proportional to the edit" `Quick
      test_patch_proportional;
    Alcotest.test_case "statics through a patch" `Quick test_statics_patched;
    Alcotest.test_case "heap index bounded over an edit chain" `Quick
      test_heap_index_edit_chain;
    Alcotest.test_case "patch visits only the entry callers" `Quick
      test_patch_entry_callers;
    Alcotest.test_case "update patched entry" `Quick test_update_patched_entry;
    Alcotest.test_case "update resolved" `Quick test_update_resolved;
    Alcotest.test_case "arena follows every tier" `Quick test_arena_every_tier;
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
