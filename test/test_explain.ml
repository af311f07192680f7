(* Provenance tests: witness paths (membership equivalence, edge-policy
   replay, budget validity), the layered explain report, and the
   rank-agreement property — the provenance BFS distance must equal the
   Inspect layer a line first appears in, on every paper workload. *)

open Slice_core
open Helpers

(* The README's worked example: a producer chain through a heap cell,
   one aliasing boundary (the Box allocation) and one control boundary
   (the if guarding the print). *)
let demo =
  {|class Box {
  String val;
  Box() { this.val = ""; }
  void set(String v) { this.val = v; }
  String get() { return this.val; }
}
void main(String[] args) {
  Box b = new Box();
  String x = "hello";
  String y = x + "!";
  b.set(y);
  String z = b.get();
  if (z.length() > 0) {
    print(z);
  }
}|}

let demo_seed_line = line_of ~src:demo ~pattern:"print(z);"
let demo_if_line = line_of ~src:demo ~pattern:"if (z.length() > 0)"
let demo_x_line = line_of ~src:demo ~pattern:"String x = \"hello\";"
let demo_alloc_line = line_of ~src:demo ~pattern:"Box b = new Box();"

(* Replay a witness path under the mode's edge discipline: seed head,
   queried node last, every hop a real SDG edge the policy allows, and
   enough aliasing budget at every `Costly crossing.  The same contract
   the fuzz oracle checks on random programs. *)
let validate_path g mode ~(seeds : Sdg.node list) (target : Sdg.node)
    (steps : Slicer.witness_step list) : unit =
  (match steps with
  | [] -> Alcotest.fail "empty witness path"
  | head :: _ ->
    check_bool "path starts at a seed" true (List.mem head.Slicer.wit_node seeds);
    check_bool "seed step has no incoming kind" true (head.Slicer.wit_kind = None);
    check_int "seed step is at distance 0" 0 head.Slicer.wit_dist);
  (match List.rev steps with
  | last :: _ -> check_int "path ends at the queried node" target last.Slicer.wit_node
  | [] -> ());
  let rec go (a : Slicer.witness_step) budget = function
    | [] -> ()
    | (b : Slicer.witness_step) :: rest ->
      let kind =
        match b.Slicer.wit_kind with
        | Some k -> k
        | None -> Alcotest.fail "interior step lacks an edge kind"
      in
      check_bool "hop is a real dependence edge" true
        (List.mem (b.Slicer.wit_node, kind) (Sdg.deps g a.Slicer.wit_node));
      let budget' =
        match Slicer.edge_policy mode kind with
        | `Skip -> Alcotest.fail "witness crosses an edge the mode skips"
        | `Follow -> budget
        | `Costly ->
          check_bool "aliasing budget available at `Costly hop" true (budget > 0);
          budget - 1
      in
      go b budget' rest
  in
  match steps with [] -> () | head :: rest -> go head (Slicer.initial_budget mode) rest

(* Witness <-> membership, path replay, and distance semantics for one
   (program, mode).  In budget-free modes also pins dist = parent dist + 1
   along the path (the recorded chain IS a BFS tree there). *)
let check_witnesses ?(budget_free = true) (a : Engine.analysis) ~seed_line mode =
  let g = a.Engine.sdg in
  let seeds = Engine.seeds_at_line_exn a seed_line in
  let prov = Slicer.create_provenance g in
  let members = Slicer.slice ~prov g ~seeds mode in
  check_bool "provenance records the walk's mode" true
    (Slicer.provenance_mode prov = Some mode);
  let member = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace member n ()) members;
  List.iter
    (fun s -> check_bool "seed at distance 0" true (Slicer.distance prov s = Some 0))
    seeds;
  for n = 0 to Sdg.num_nodes g - 1 do
    match Slicer.witness prov n with
    | None ->
      check_bool "non-member has no witness" false (Hashtbl.mem member n);
      check_bool "non-member has no distance" true (Slicer.distance prov n = None)
    | Some steps ->
      check_bool "witness implies membership" true (Hashtbl.mem member n);
      validate_path g mode ~seeds n steps;
      if budget_free then
        ignore
          (List.fold_left
             (fun prev (s : Slicer.witness_step) ->
               (match prev with
               | Some d -> check_int "BFS distance increments along the path" (d + 1)
                             s.Slicer.wit_dist
               | None -> ());
               Some s.Slicer.wit_dist)
             None steps)
  done

let test_witness_thin () =
  let a = analysis demo in
  check_witnesses a ~seed_line:demo_seed_line Slicer.Thin

let test_witness_traditional_full () =
  let a = analysis demo in
  check_witnesses a ~seed_line:demo_seed_line Slicer.Traditional_full

let test_witness_budget_mode () =
  (* budget improvements can rewire parents mid-walk, so dists need not
     be consecutive along the final chain — but replay must still hold *)
  let a = analysis demo in
  check_witnesses ~budget_free:false a ~seed_line:demo_seed_line
    (Slicer.Thin_with_aliasing 1)

let test_witness_from_line () =
  let a = analysis demo in
  (match
     Engine.witness_from_line a ~seed_line:demo_seed_line ~line:demo_x_line
       Slicer.Thin
   with
  | None -> Alcotest.fail "producer line has no witness"
  | Some steps ->
    let last = List.nth steps (List.length steps - 1) in
    check_int "path ends on the asked line" demo_x_line
      (Sdg.node_loc a.Engine.sdg last.Slicer.wit_node).Slice_ir.Loc.line);
  (* the if-guard is outside the thin slice: witnessable only once
     control dependences are followed *)
  check_bool "guard not witnessable in thin mode" true
    (Engine.witness_from_line a ~seed_line:demo_seed_line ~line:demo_if_line
       Slicer.Thin
    = None);
  check_bool "guard witnessable in the full slice" true
    (Engine.witness_from_line a ~seed_line:demo_seed_line ~line:demo_if_line
       Slicer.Traditional_full
    <> None);
  (* a line with no statements raises No_seed carrying that line *)
  match
    Engine.witness_from_line a ~seed_line:demo_seed_line ~line:6 Slicer.Thin
  with
  | exception Engine.No_seed 6 -> ()
  | exception Engine.No_seed l -> Alcotest.failf "No_seed carries line %d" l
  | _ -> Alcotest.fail "blank target line must raise No_seed"

let test_report_layers () =
  let a = analysis demo in
  let r = Engine.slice_report a ~line:demo_seed_line Slicer.Traditional_full in
  check_int "report echoes the seed line" demo_seed_line r.Engine.sr_seed_line;
  let p, al, c = r.Engine.sr_layer_sizes in
  check_int "layer sizes partition the lines" (List.length r.Engine.sr_lines)
    (p + al + c);
  check_bool "producer layer non-empty" true (p > 0);
  check_bool "control layer non-empty" true (c > 0);
  (* layer membership against independently computed slices *)
  let lines_of mode =
    Engine.slice_from_line a ~line:demo_seed_line mode
  in
  let thin = lines_of Slicer.Thin
  and data = lines_of Slicer.Traditional_data
  and full = lines_of Slicer.Traditional_full in
  List.iter
    (fun (rl : Engine.report_line) ->
      let l = snd rl.Engine.rl_loc in
      check_bool "every report line is a slice member" true (List.mem l full);
      match rl.Engine.rl_layer with
      | Engine.Producers ->
        check_bool "producer line is in the thin slice" true (List.mem l thin)
      | Engine.Alias_explainers ->
        check_bool "alias explainer is data-only, not thin" true
          (List.mem l data && not (List.mem l thin))
      | Engine.Control_explainers ->
        check_bool "control explainer is full-only" true (not (List.mem l data)))
    r.Engine.sr_lines;
  (* rank 0 is the seed; ranks are sorted *)
  (match r.Engine.sr_lines with
  | first :: _ ->
    check_int "first line has rank 0" 0 first.Engine.rl_rank;
    check_int "first line is the seed line" demo_seed_line
      (snd first.Engine.rl_loc)
  | [] -> Alcotest.fail "empty report");
  ignore
    (List.fold_left
       (fun prev (rl : Engine.report_line) ->
         check_bool "lines sorted by rank" true (rl.Engine.rl_rank >= prev);
         rl.Engine.rl_rank)
       0 r.Engine.sr_lines);
  (* the alloc is an alias explainer, the if a control explainer that
     explains the seed line *)
  let find l =
    List.find_opt (fun rl -> snd rl.Engine.rl_loc = l) r.Engine.sr_lines
  in
  (match find demo_alloc_line with
  | Some rl ->
    check_bool "allocation classified as alias explainer" true
      (rl.Engine.rl_layer = Engine.Alias_explainers)
  | None -> Alcotest.fail "allocation missing from report");
  match find demo_if_line with
  | Some rl ->
    check_bool "if-guard classified as control explainer" true
      (rl.Engine.rl_layer = Engine.Control_explainers);
    check_bool "if-guard explains the seed line" true
      (List.exists (fun (_, l) -> l = demo_seed_line) rl.Engine.rl_explains)
  | None -> Alcotest.fail "if-guard missing from report"

let test_report_json_schema () =
  let a = analysis demo in
  let r = Engine.slice_report a ~line:demo_seed_line Slicer.Traditional_full in
  let open Slice_obs in
  let j =
    match Json.of_string (Json.to_string (Engine.report_to_json r)) with
    | Ok v -> v
    | Error e -> Alcotest.failf "report JSON unparseable: %s" e
  in
  check_bool "schema tag" true
    (Json.member "schema" j = Some (Json.Str Engine.explain_schema_version));
  (match Json.member "lines" j with
  | Some (Json.List l) ->
    check_int "one JSON entry per report line" (List.length r.Engine.sr_lines)
      (List.length l)
  | _ -> Alcotest.fail "lines is not a list");
  (* witness encoding carries the same schema *)
  match
    Engine.witness_from_line a ~seed_line:demo_seed_line ~line:demo_x_line
      Slicer.Thin
  with
  | None -> Alcotest.fail "no witness"
  | Some steps ->
    let wj =
      Engine.witness_to_json a ~seed_line:demo_seed_line ~line:demo_x_line
        Slicer.Thin steps
    in
    check_bool "witness schema tag" true
      (Json.member "schema" wj = Some (Json.Str Engine.explain_schema_version));
    (match Json.member "path" wj with
    | Some (Json.List l) ->
      check_int "one JSON step per witness step" (List.length steps)
        (List.length l)
    | _ -> Alcotest.fail "path is not a list")

(* ---- rank agreement: provenance distance == Inspect layer ----------- *)

(* The paper's section 5 rank of a line (the BFS layer the Inspect
   simulation first shows it in) must equal the provenance rank (min
   recorded distance over the line's countable member nodes) — on all 9
   paper workloads, in both budget-free modes.  This is the invariant
   that lets `thinslice report` reproduce the inspection counts. *)
let test_rank_agreement_on_workloads () =
  List.iter
    (fun (name, src) ->
      let a = Slice_core.Engine.of_source ~file:(name ^ ".tj") src in
      let g = a.Engine.sdg in
      let countable = ref [] in
      for n = Sdg.num_nodes g - 1 downto 0 do
        if Sdg.node_countable g n then countable := n :: !countable
      done;
      let arr = Array.of_list !countable in
      let seeds = [ arr.(Array.length arr / 2) ] in
      List.iter
        (fun mode ->
          let ctx =
            Printf.sprintf "%s %s" name (Slicer.mode_to_string mode)
          in
          (* desired line 0 never matches a countable node, so the
             inspection explores the whole slice *)
          let rep = Inspect.bfs g ~seeds ~desired:[ 0 ] mode in
          let prov = Slicer.create_provenance g in
          let members = Slicer.slice ~prov g ~seeds mode in
          let ranks = Hashtbl.create 256 in
          List.iter
            (fun n ->
              if Sdg.node_countable g n then begin
                let loc = Sdg.node_loc g n in
                let key = (loc.Slice_ir.Loc.file, loc.Slice_ir.Loc.line) in
                let d =
                  match Slicer.distance prov n with
                  | Some d -> d
                  | None -> Alcotest.failf "%s: member %d has no distance" ctx n
                in
                match Hashtbl.find_opt ranks key with
                | Some d' when d' <= d -> ()
                | _ -> Hashtbl.replace ranks key d
              end)
            members;
          Alcotest.(check int)
            (ctx ^ ": same counted-line universe")
            (Hashtbl.length ranks) (List.length rep.Inspect.order);
          List.iter2
            (fun key depth ->
              match Hashtbl.find_opt ranks key with
              | Some d ->
                if d <> depth then
                  Alcotest.failf "%s: %s:%d inspected at layer %d, provenance rank %d"
                    ctx (fst key) (snd key) depth d
              | None ->
                Alcotest.failf "%s: inspected line %s:%d not a provenance member"
                  ctx (fst key) (snd key))
            rep.Inspect.order rep.Inspect.order_depths)
        [ Slicer.Thin; Slicer.Traditional_full ])
    Slice_workloads.Suites.paper_workloads

let suite =
  [ Alcotest.test_case "witness: thin mode" `Quick test_witness_thin;
    Alcotest.test_case "witness: traditional full" `Quick
      test_witness_traditional_full;
    Alcotest.test_case "witness: aliasing budget replay" `Quick
      test_witness_budget_mode;
    Alcotest.test_case "witness_from_line semantics" `Quick
      test_witness_from_line;
    Alcotest.test_case "report: layer partition and ranks" `Quick
      test_report_layers;
    Alcotest.test_case "report/witness JSON schema" `Quick
      test_report_json_schema;
    Alcotest.test_case "provenance rank == Inspect layer (9 workloads)"
      `Quick test_rank_agreement_on_workloads ]
