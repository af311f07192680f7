(* Delta-native incremental solving on the real paper workloads.

   [test_incremental] pins the update ladder's classification on small
   fixtures; this suite drives the RESOLVED tiers through substance:
   every paper workload, both sensitivities, through a deterministic
   edit chain that forces
     Rebuilt -> Resolved (summary-moving main edit)
             -> Resolved on the already-resolved handle
             -> Patched on the resolved handle (summary-neutral edit)
             -> Patched twice more (neutral whole-method add / remove)
             -> Noop
   and after EVERY step checks the incrementally updated handle against
   a from-scratch [Engine.load] of the same sources on the canonical
   (ordinal-keyed) points-to and call-graph dumps plus the headline
   stats — the incremental solver is only allowed to be faster, never
   different.

   Witness provenance is exercised at the resolved tier: a fresh
   provenance walked on a resolved handle must yield real dependence
   paths (every hop an existing SDG edge), and a provenance walked
   BEFORE a patched-tier update must go stale (witness = None) after
   it, never replay through retired nodes.

   The chain's edits are textual and workload-agnostic: a probe class
   appended at EOF (structural), edits to the first statement line of
   [main] (appending an allocation+call moves the summary; changing
   only an int constant keeps it), and a one-line method inserted
   into / removed from the probe class (the Methods tier). *)

open Slice_core

let file = "prog.tj"

let dump_to_string (d : (string * string list) list) : string =
  String.concat "\n"
    (List.map (fun (k, vs) -> k ^ " -> " ^ String.concat "," vs) d)

(* ---------------- textual edit helpers ---------------- *)

let bump_line = "  void bump(int n) { this.fi = this.fi + n; }"

let bump_line_moved =
  "  void bump(int n) { this.fi = this.fi + n; this.link = this; }"

let probe_class =
  String.concat "\n"
    [ "class ZzProbe {";
      "  int fi;";
      "  ZzProbe link;";
      "  ZzProbe() { this.fi = 3; this.link = this; }";
      "  int get() { return this.fi; }";
      bump_line;
      "}" ]
  ^ "\n"

let zzaux_line = "  int zzaux() { return this.fi; }"

let split_lines (s : string) : string list =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev rest
  | all -> List.rev all

let unsplit (lines : string list) : string = String.concat "\n" lines ^ "\n"

let ends_with_semi (l : string) : bool =
  let t = String.trim l in
  String.length t > 0 && t.[String.length t - 1] = ';'

(* 0-based index of the first statement line of [main]: every paper
   workload opens main with a one-line declaration, so "first line
   after the main header ending in a semicolon" is stable. *)
let main_header (src : string) : int =
  let lines = Array.of_list (split_lines src) in
  let is_main l =
    let rec find i =
      i + 9 <= String.length l && (String.sub l i 9 = "void main" || find (i + 1))
    in
    find 0
  in
  let rec from i =
    if i >= Array.length lines then Alcotest.fail "no main header found"
    else if is_main lines.(i) then i
    else from (i + 1)
  in
  from 0

let main_target (src : string) : int =
  let lines = Array.of_list (split_lines src) in
  let m = main_header src in
  let rec stmt i =
    if i >= Array.length lines then Alcotest.fail "no statement line in main"
    else if ends_with_semi lines.(i) then i
    else stmt (i + 1)
  in
  stmt (m + 1)

let append_to_line (src : string) (idx : int) (suffix : string) : string =
  unsplit (List.mapi (fun i l -> if i = idx then l ^ suffix else l) (split_lines src))

(* Insert / remove the [zzaux] one-liner just before the probe class's
   closing brace (the last line of the file). *)
let with_zzaux (src : string) : string =
  let lines = List.rev (split_lines src) in
  match lines with
  | "}" :: rest -> unsplit (List.rev ("}" :: zzaux_line :: rest))
  | _ -> Alcotest.fail "probe class does not close the file"

(* Swap the probe's [bump] body for one that also stores a reference:
   a one-line, line-count-preserving change whose constraint summary
   MOVES, but whose affected cone is only the probe's own nodes — the
   shape that must engage [Andersen.resolve_delta] rather than fall
   back to a fresh solve. *)
let move_bump (src : string) : string =
  let lines = split_lines src in
  if not (List.mem bump_line lines) then
    Alcotest.fail "probe bump line not found";
  unsplit
    (List.map (fun l -> if l = bump_line then bump_line_moved else l) lines)

(* ---------------- parity + tier checks ---------------- *)

let check_parity ~(ctx : string) (h : Engine.handle) =
  let fresh =
    Engine.load
      ?container_classes:h.Engine.h_container_classes
      ~obj_sens:h.Engine.h_obj_sens h.Engine.h_sources
  in
  let ia = h.Engine.h_analysis and fa = fresh.Engine.h_analysis in
  if
    dump_to_string (Engine.pts_dump_canonical ia)
    <> dump_to_string (Engine.pts_dump_canonical fa)
  then Alcotest.failf "%s: canonical points-to dumps differ" ctx;
  if
    dump_to_string (Engine.call_graph_dump_canonical ia)
    <> dump_to_string (Engine.call_graph_dump_canonical fa)
  then Alcotest.failf "%s: canonical call-graph dumps differ" ctx;
  let s1 = h.Engine.h_stats and s2 = fresh.Engine.h_stats in
  if
    (s1.Engine.methods, s1.Engine.ir_statements, s1.Engine.sdg_statements)
    <> (s2.Engine.methods, s2.Engine.ir_statements, s2.Engine.sdg_statements)
  then
    Alcotest.failf "%s: stats differ (methods %d/%d, ir %d/%d, sdg %d/%d)" ctx
      s1.Engine.methods s2.Engine.methods s1.Engine.ir_statements
      s2.Engine.ir_statements s1.Engine.sdg_statements s2.Engine.sdg_statements;
  if Sdg.num_live_nodes ia.Engine.sdg <> Sdg.num_live_nodes fa.Engine.sdg then
    Alcotest.failf "%s: live SDG node counts differ" ctx;
  Helpers.check_arena ~ctx h

let expect ~(ctx : string) (want : Engine.update_path) (rep : Engine.update_report)
    =
  if rep.Engine.up_path <> want then
    Alcotest.failf "%s: expected path %s, got %s" ctx
      (Engine.update_path_to_string want)
      (Engine.update_path_to_string rep.Engine.up_path)

let expect_resolved ~(ctx : string) (rep : Engine.update_report) =
  match rep.Engine.up_path with
  | Engine.Resolved_incremental | Engine.Resolved_fresh -> ()
  | p ->
    Alcotest.failf "%s: expected a resolved tier, got %s" ctx
      (Engine.update_path_to_string p)

(* Every witness a fresh provenance yields on [sdg] must be a real
   dependence path: starts at a seed, ends at the member, every hop an
   existing edge of the recorded kind. *)
let check_witnesses (sdg : Sdg.t) ~(seeds : Sdg.node list) ~(ctx : string) =
  let prov = Slicer.create_provenance sdg in
  let members = Slicer.slice ~prov sdg ~seeds Slicer.Thin in
  if members = [] then Alcotest.failf "%s: empty thin slice at the probe line" ctx;
  List.iter
    (fun nd ->
      match Slicer.witness prov nd with
      | None -> Alcotest.failf "%s: member %d has no witness" ctx nd
      | Some [] -> Alcotest.failf "%s: member %d has an empty witness" ctx nd
      | Some (first :: rest) ->
        if not (List.mem first.Slicer.wit_node seeds) then
          Alcotest.failf "%s: witness of %d starts at non-seed %d" ctx nd
            first.Slicer.wit_node;
        (match List.rev (first :: rest) with
        | last :: _ when last.Slicer.wit_node <> nd ->
          Alcotest.failf "%s: witness of %d ends at %d" ctx nd
            last.Slicer.wit_node
        | _ -> ());
        ignore
          (List.fold_left
             (fun (prev : Slicer.witness_step) (b : Slicer.witness_step) ->
               (match b.Slicer.wit_kind with
               | None ->
                 Alcotest.failf "%s: interior witness step without a kind" ctx
               | Some k ->
                 if
                   not
                     (List.exists
                        (fun (d, kk) -> d = b.Slicer.wit_node && kk = k)
                        (Sdg.deps sdg prev.Slicer.wit_node))
                 then
                   Alcotest.failf "%s: witness hop %d -> %d is not an SDG edge"
                     ctx prev.Slicer.wit_node b.Slicer.wit_node);
               b)
             first rest))
    members

(* ---------------- the chain ---------------- *)

type tally = { mutable resolved_incr : int; mutable resolved_fresh : int }

let tally = { resolved_incr = 0; resolved_fresh = 0 }

let note (rep : Engine.update_report) =
  match rep.Engine.up_path with
  | Engine.Resolved_incremental -> tally.resolved_incr <- tally.resolved_incr + 1
  | Engine.Resolved_fresh -> tally.resolved_fresh <- tally.resolved_fresh + 1
  | _ -> ()

let run_chain ~(obj_sens : bool) (name : string) (base : string) =
  let ctx step = Printf.sprintf "%s(objsens=%b) %s" name obj_sens step in
  let tgt = main_target base in
  let seed_line = tgt + 1 in
  let h0 = Engine.load ~obj_sens [ (file, base) ] in
  (* 1. structural: a whole new class at EOF *)
  let src1 = base ^ probe_class in
  let h1, rep1 = Engine.update h0 [ (file, src1) ] in
  expect ~ctx:(ctx "probe class append") Engine.Rebuilt rep1;
  check_parity ~ctx:(ctx "probe class append") h1;
  (* 2. summary-moving body edit in main: resolved tier *)
  let src2 =
    append_to_line src1 tgt " ZzProbe zza = new ZzProbe(); zza.bump(1);"
  in
  let h2, rep2 = Engine.update h1 [ (file, src2) ] in
  expect_resolved ~ctx:(ctx "summary-moving edit") rep2;
  note rep2;
  check_parity ~ctx:(ctx "summary-moving edit") h2;
  let a2 = h2.Engine.h_analysis in
  check_witnesses a2.Engine.sdg
    ~seeds:(Engine.seeds_at_line a2 seed_line)
    ~ctx:(ctx "witnesses on resolved handle");
  (* 3. resolve on the already-resolved handle *)
  let bump_stmt n =
    Printf.sprintf " ZzProbe zzb = new ZzProbe(); zzb.bump(%d);" n
  in
  let src3 = append_to_line src2 tgt (bump_stmt 2) in
  let h3a, rep3a = Engine.update h2 [ (file, src3) ] in
  expect_resolved ~ctx:(ctx "resolve-on-resolved") rep3a;
  note rep3a;
  check_parity ~ctx:(ctx "resolve-on-resolved") h3a;
  (* 3b. small-cone summary move: the delta solver itself.  The bump
     body's constraints only reach the probe's own nodes, far under the
     cone limits, so the solver must repair in place. *)
  let src3b = move_bump src3 in
  let h3, rep3 = Engine.update h3a [ (file, src3b) ] in
  expect ~ctx:(ctx "small-cone resolve") Engine.Resolved_incremental rep3;
  note rep3;
  check_parity ~ctx:(ctx "small-cone resolve") h3;
  (* A provenance walked NOW must go stale after the patched update. *)
  let a3 = h3.Engine.h_analysis in
  let stale_prov = Slicer.create_provenance a3.Engine.sdg in
  let pre_members =
    Slicer.slice ~prov:stale_prov a3.Engine.sdg
      ~seeds:(Engine.seeds_at_line a3 seed_line)
      Slicer.Thin
  in
  if pre_members = [] then
    Alcotest.failf "%s: empty pre-patch slice" (ctx "staleness setup");
  (* 4. summary-NEUTRAL body edit on the resolved handle: patched tier.
     Only the int constant changes — a new statement would shift the
     instruction labels of everything after it and move the summary. *)
  let src4 = move_bump (append_to_line src2 tgt (bump_stmt 9)) in
  let h4, rep4 = Engine.update h3 [ (file, src4) ] in
  expect ~ctx:(ctx "patch-on-resolved") Engine.Patched rep4;
  check_parity ~ctx:(ctx "patch-on-resolved") h4;
  List.iter
    (fun nd ->
      match Slicer.witness stale_prov nd with
      | None -> ()
      | Some _ ->
        Alcotest.failf
          "%s: pre-patch witness of node %d survived the patched update"
          (ctx "witness staleness") nd)
    pre_members;
  (* 5. neutral whole-method add / remove: the Methods tier *)
  let src5 = with_zzaux src4 in
  let h5, rep5 = Engine.update h4 [ (file, src5) ] in
  expect ~ctx:(ctx "neutral method add") Engine.Patched rep5;
  check_parity ~ctx:(ctx "neutral method add") h5;
  let h6, rep6 = Engine.update h5 [ (file, src4) ] in
  expect ~ctx:(ctx "neutral method remove") Engine.Patched rep6;
  check_parity ~ctx:(ctx "neutral method remove") h6;
  (* 6. byte-identical source: noop *)
  let _, rep7 = Engine.update h6 [ (file, src4) ] in
  expect ~ctx:(ctx "noop") Engine.Noop rep7

let test_chains_objsens () =
  List.iter
    (fun (name, base) -> run_chain ~obj_sens:true name base)
    Slice_workloads.Suites.paper_workloads

let test_chains_ci () =
  List.iter
    (fun (name, base) -> run_chain ~obj_sens:false name base)
    Slice_workloads.Suites.paper_workloads

(* Both resolved tiers must actually occur across the 18 chains: a
   ladder where one tier is unreachable is a ladder nothing tests.
   Resolved_fresh is reached only through the solver's own cone
   threshold. *)
let test_resolved_tier_mix () =
  if tally.resolved_incr = 0 then
    Alcotest.fail
      "no workload chain took resolved-incremental: the delta solver never \
       engaged";
  if tally.resolved_fresh = 0 then
    Alcotest.fail
      "no workload chain took resolved-fresh: the cone threshold never \
       triggered"

(* The SDG's location columns must follow every tier that touches the
   statement table: load, a patched body edit, a resolved-incremental
   summary move, and a Methods-tier method add inserted ABOVE the query
   line (it relocates every statement below it).  After each step every
   location answer matches the statement-table oracles, and the slice at
   the (possibly moved) query line matches a fresh load. *)
let loc_chain (name : string) (base : string) =
  let ctx step = Printf.sprintf "%s %s" name step in
  let tgt = main_target base in
  let src1 = base ^ probe_class in
  let with_bump n =
    append_to_line src1 tgt
      (Printf.sprintf " ZzProbe zzb = new ZzProbe(); zzb.bump(%d);" n)
  in
  let check step (h : Engine.handle) query_line =
    let a = h.Engine.h_analysis in
    let g = a.Engine.sdg in
    let seeds = Engine.seeds_at_line a query_line in
    if seeds = [] then Alcotest.failf "%s: no seed at line %d" (ctx step) query_line;
    Helpers.check_arena ~ctx:(ctx step) h;
    Helpers.check_loc_columns ~ctx:(ctx step)
      ~slices:[ Slicer.slice g ~seeds Slicer.Thin;
                Slicer.slice g ~seeds Slicer.Traditional_full ]
      g;
    let fresh = (Engine.load h.Engine.h_sources).Engine.h_analysis in
    List.iter
      (fun mode ->
        Alcotest.(check (list int))
          (Printf.sprintf "%s: %s slice @%d = fresh load" (ctx step)
             (Slicer.mode_to_string mode) query_line)
          (Engine.slice_from_line fresh ~line:query_line mode)
          (Engine.slice_from_line a ~line:query_line mode))
      [ Slicer.Thin; Slicer.Traditional_full ]
  in
  let query_line = tgt + 1 in
  let h0 = Engine.load [ (file, with_bump 2) ] in
  check "load" h0 query_line;
  let h1, rep1 = Engine.update h0 [ (file, with_bump 9) ] in
  expect ~ctx:(ctx "constant edit") Engine.Patched rep1;
  check "patched" h1 query_line;
  let src2 = move_bump (with_bump 9) in
  let h2, rep2 = Engine.update h1 [ (file, src2) ] in
  expect ~ctx:(ctx "bump move") Engine.Resolved_incremental rep2;
  check "resolved-incremental" h2 query_line;
  (* a fresh one-line function just above main's header *)
  let m = main_header src2 in
  let src3 =
    unsplit
      (List.concat
         (List.mapi
            (fun i l -> if i = m then [ "int zztop() { return 7; }"; l ] else [ l ])
            (split_lines src2)))
  in
  let h3, rep3 = Engine.update h2 [ (file, src3) ] in
  expect ~ctx:(ctx "method add above the query") Engine.Patched rep3;
  check "methods tier" h3 (query_line + 1)

let test_loc_columns_every_tier () =
  let scaled = Slice_fuzz.Gen_tj.generate_scaled ~seed:5 ~stmts:2_000 in
  List.iter
    (fun (name, base) -> loc_chain name base)
    (Slice_workloads.Suites.paper_workloads
    @ [ ("scaled-2k", scaled.Slice_fuzz.Gen_tj.sc_src) ])

let suite =
  [ Alcotest.test_case "workload edit chains (object-sensitive)" `Quick
      test_chains_objsens;
    Alcotest.test_case "workload edit chains (context-insensitive)" `Quick
      test_chains_ci;
    Alcotest.test_case "both resolved tiers exercised" `Quick
      test_resolved_tier_mix;
    Alcotest.test_case "location columns track every tier" `Quick
      test_loc_columns_every_tier ]
