(* The oracle battery: every cross-checkable property the pipeline
   promises, run against one generated program.

   The battery is the fuzzer's ground truth, so it only states
   properties that are THEOREMS of the design, not empirical
   observations:

   - dynamic thin slice (value dependences only, most recent execution)
     is contained in the static thin slice of the same statement — the
     paper's section 1/7 observation that dynamic thin slices fall out
     of dynamic value dependences, used here in reverse as a soundness
     oracle for the static slicer + SDG + points-to stack;
   - dynamic data slice (value + base-pointer flow) is contained in the
     traditional (full) static slice;
   - the static mode chain is monotone: thin ⊆ thin+alias(k) ⊆
     traditional-data ⊆ traditional-full (edge_policy is pointwise
     monotone in that order);
   - the CSR walk equals the reference walk oracle
     ([Slice_oracle.Reference_walk]) node-for-node, both directions,
     every mode;
   - the bitset solver equals the reference solver oracle
     ([Slice_oracle.Reference_pta]) on the canonical pts and call-graph
     dumps, which hold every points-to fact the SDG reads;
   - object-sensitive slices (lines) are contained in the
     context-insensitive ones (cloning only refines points-to).

   [fault] deliberately breaks one link — the fuzz driver uses it to
   prove the harness can actually catch and shrink a violation. *)

open Slice_front
open Slice_interp
open Slice_pta
open Slice_core
open Slice_oracle

(* [Dyn_base_as_val] skips the value/base classification when computing
   the dynamic thin slice (base-pointer dependences are followed as if
   they were value dependences), which inflates the dynamic thin slice
   beyond what the static thin slice covers — the seeded bug the
   acceptance criteria require the fuzzer to catch. *)
type fault = No_fault | Dyn_base_as_val

let fault_to_string = function
  | No_fault -> "none"
  | Dyn_base_as_val -> "dyn-base-as-val"

let fault_of_string = function
  | "none" -> Some No_fault
  | "dyn-base-as-val" -> Some Dyn_base_as_val
  | _ -> None

type violation = { oracle : string; detail : string }

module IntSet = Set.Make (Int)

let file = "fuzz.tj"

(* Pretty a small prefix of a list for violation details. *)
let prefix_to_string xs =
  let shown = List.filteri (fun i _ -> i < 8) xs in
  String.concat ", " (List.map string_of_int shown)
  ^ if List.length xs > 8 then ", ..." else ""

let subset_violation ~name ~small ~big ~what =
  let bigset = IntSet.of_list big in
  let missing = List.filter (fun x -> not (IntSet.mem x bigset)) small in
  if missing = [] then None
  else
    Some
      { oracle = name;
        detail =
          Printf.sprintf "%s not contained: missing %s [%s]" what
            (if List.length missing = 1 then "element" else "elements")
            (prefix_to_string missing) }

let sorted xs = List.sort_uniq compare xs

let dump_to_string (d : (string * string list) list) : string =
  String.concat "\n"
    (List.map (fun (k, vs) -> k ^ " -> " ^ String.concat "," vs) d)

(* All modes the slicers promise parity for. *)
let modes =
  [ Slicer.Thin;
    Slicer.Thin_with_aliasing 3;
    Slicer.Traditional_data;
    Slicer.Traditional_full ]

let battery ?(fault = No_fault) ~(src : string) ~(seed_lines : int list) () :
    violation list =
  match Frontend.load ~file src with
  | Error e ->
    [ { oracle = "well_formed"; detail = Frontend.error_to_string e } ]
  | Ok program ->
    let out = ref [] in
    let viol oracle detail = out := { oracle; detail } :: !out in
    let add = function Some v -> out := v :: !out | None -> () in
    (* Main analysis: object-sensitive, CSR graph, bitset solver — the
       default fast path, i.e. exactly what production slicing uses.
       The SAME [Program.t] also drives the interpreter, so dynamic
       events and SDG nodes agree on statement ids. *)
    let a = Engine.analyze program in
    let sdg = a.Engine.sdg in
    (* stmt id -> SDG nodes (for stmt-level static slices) *)
    let stmt_nodes_tbl = Hashtbl.create 256 in
    for nd = 0 to Sdg.num_nodes sdg - 1 do
      match Sdg.node_stmt sdg nd with
      | Some s -> Hashtbl.add stmt_nodes_tbl s nd
      | None -> ()
    done;
    let stmt_nodes s = Hashtbl.find_all stmt_nodes_tbl s in
    let stmts_of_nodes nodes =
      sorted (List.filter_map (Sdg.node_stmt sdg) nodes)
    in
    (* Seeds: the two trailing prints (each line holds one statement). *)
    let seed_nodes =
      List.concat_map (fun l -> Engine.seeds_at_line a l) seed_lines
    in
    if seed_nodes = [] then
      viol "seeds" "no seed nodes on the trailing print lines";
    (* ---------------- dynamic oracles ---------------- *)
    let trace = Dyntrace.create () in
    let cfg = { Interp.default_config with trace = Some trace } in
    let outcome = Interp.run cfg program in
    let dyn_seed_stmts =
      let from_prints =
        sorted (List.filter_map (Sdg.node_stmt sdg) seed_nodes)
      in
      match outcome.Interp.result with
      | Ok () -> from_prints
      | Error f when f.Interp.f_stmt >= 0 ->
        sorted (f.Interp.f_stmt :: from_prints)
      | Error _ -> from_prints
    in
    let overflowed =
      match outcome.Interp.result with
      | Error { Interp.f_kind = Interp.Trace_limit_exceeded _; _ } -> true
      | _ -> false
    in
    if not overflowed then
      List.iter
        (fun s ->
          match Dyntrace.last_event_of_stmt trace s with
          | None -> ()
          | Some ev ->
            let include_base_for_thin = fault = Dyn_base_as_val in
            let dyn_thin =
              Dyntrace.slice_from_event trace ~include_base:include_base_for_thin
                ev
            in
            let dyn_data =
              Dyntrace.slice_from_event trace ~include_base:true ev
            in
            let seeds = stmt_nodes s in
            if seeds <> [] then begin
              let static_thin =
                stmts_of_nodes (Slicer.slice sdg ~seeds Slicer.Thin)
              in
              let static_trad =
                stmts_of_nodes (Slicer.slice sdg ~seeds Slicer.Traditional_full)
              in
              add
                (subset_violation ~name:"dyn_thin_within_static_thin"
                   ~small:dyn_thin ~big:static_thin
                   ~what:
                     (Printf.sprintf "dynamic thin slice of stmt %d" s));
              add
                (subset_violation ~name:"dyn_data_within_traditional"
                   ~small:dyn_data ~big:static_trad
                   ~what:
                     (Printf.sprintf "dynamic data slice of stmt %d" s))
            end)
        dyn_seed_stmts;
    (* ---------------- static containment chain ---------------- *)
    if seed_nodes <> [] then begin
      let slice_nodes m = sorted (Slicer.slice sdg ~seeds:seed_nodes m) in
      let thin = slice_nodes Slicer.Thin in
      let alias = slice_nodes (Slicer.Thin_with_aliasing 3) in
      let tdata = slice_nodes Slicer.Traditional_data in
      let tfull = slice_nodes Slicer.Traditional_full in
      add
        (subset_violation ~name:"static_mode_chain" ~small:thin ~big:alias
           ~what:"thin within thin+alias3");
      add
        (subset_violation ~name:"static_mode_chain" ~small:alias ~big:tdata
           ~what:"thin+alias3 within traditional-data");
      add
        (subset_violation ~name:"static_mode_chain" ~small:tdata ~big:tfull
           ~what:"traditional-data within traditional-full")
    end;
    (* ---------------- CSR vs Reference slicer ---------------- *)
    if seed_nodes <> [] then
      List.iter
        (fun m ->
          let fast = sorted (Slicer.slice sdg ~seeds:seed_nodes m) in
          let refr = sorted (Reference_walk.slice sdg ~seeds:seed_nodes m) in
          if fast <> refr then
            viol "csr_vs_reference"
              (Printf.sprintf "backward %s: CSR %d nodes, reference %d nodes"
                 (Slicer.mode_to_string m) (List.length fast)
                 (List.length refr));
          let ffast = sorted (Slicer.forward_slice sdg ~seeds:seed_nodes m) in
          let frefr =
            sorted (Reference_walk.forward_slice sdg ~seeds:seed_nodes m)
          in
          if ffast <> frefr then
            viol "csr_vs_reference"
              (Printf.sprintf "forward %s: CSR %d nodes, reference %d nodes"
                 (Slicer.mode_to_string m) (List.length ffast)
                 (List.length frefr)))
        modes;
    (* ---------------- witness provenance ---------------- *)
    (* The provenance layer promises, per mode: a witness exists for a
       node iff the node is a slice member, and every witness is a REAL
       dependence path — it starts at a seed (kind-less, distance 0),
       ends at the queried node, every hop is an existing SDG edge of
       the recorded kind, no hop uses a kind the mode's edge policy
       skips, and replaying the hops never exhausts the aliasing
       budget. *)
    if seed_nodes <> [] then begin
      let seed_set = IntSet.of_list seed_nodes in
      List.iter
        (fun m ->
          let ms = Slicer.mode_to_string m in
          let prov = Slicer.create_provenance sdg in
          let members = Slicer.slice ~prov sdg ~seeds:seed_nodes m in
          let mem_set = IntSet.of_list members in
          let validate (nd : int) (steps : Slicer.witness_step list) =
            match steps with
            | [] -> viol "witness_path" (Printf.sprintf "%s: empty path" ms)
            | first :: rest ->
              if not (IntSet.mem first.Slicer.wit_node seed_set) then
                viol "witness_path"
                  (Printf.sprintf "%s: path for %d starts at non-seed %d" ms
                     nd first.Slicer.wit_node);
              if first.Slicer.wit_kind <> None then
                viol "witness_path"
                  (Printf.sprintf "%s: seed step of %d carries an edge kind"
                     ms nd);
              if first.Slicer.wit_dist <> 0 then
                viol "witness_path"
                  (Printf.sprintf "%s: seed step of %d has distance %d" ms nd
                     first.Slicer.wit_dist);
              (match List.rev steps with
              | last :: _ when last.Slicer.wit_node <> nd ->
                viol "witness_path"
                  (Printf.sprintf "%s: path for %d ends at %d" ms nd
                     last.Slicer.wit_node)
              | _ -> ());
              let rec go (a : Slicer.witness_step) rb = function
                | [] -> ()
                | (b : Slicer.witness_step) :: rest -> (
                  match b.Slicer.wit_kind with
                  | None ->
                    viol "witness_path"
                      (Printf.sprintf "%s: interior step %d without a kind"
                         ms b.Slicer.wit_node)
                  | Some k ->
                    if
                      not
                        (List.exists
                           (fun (d, kk) -> d = b.Slicer.wit_node && kk = k)
                           (Sdg.deps sdg a.Slicer.wit_node))
                    then
                      viol "witness_path"
                        (Printf.sprintf "%s: no %s edge %d -> %d in the SDG"
                           ms
                           (Sdg.edge_kind_to_string k)
                           a.Slicer.wit_node b.Slicer.wit_node);
                    (match Slicer.edge_policy m k with
                    | `Skip ->
                      viol "witness_path"
                        (Printf.sprintf
                           "%s: path uses %s edge the mode skips" ms
                           (Sdg.edge_kind_to_string k))
                    | `Follow -> go b rb rest
                    | `Costly ->
                      if rb <= 0 then
                        viol "witness_path"
                          (Printf.sprintf
                             "%s: budget exhausted at hop %d -> %d" ms
                             a.Slicer.wit_node b.Slicer.wit_node)
                      else go b (rb - 1) rest))
              in
              go first (Slicer.initial_budget m) rest
          in
          for nd = 0 to Sdg.num_nodes sdg - 1 do
            match Slicer.witness prov nd with
            | None ->
              if IntSet.mem nd mem_set then
                viol "witness_coverage"
                  (Printf.sprintf "%s: member %d has no witness" ms nd)
            | Some steps ->
              if not (IntSet.mem nd mem_set) then
                viol "witness_coverage"
                  (Printf.sprintf "%s: non-member %d has a witness" ms nd)
              else validate nd steps
          done)
        modes
    end;
    (* ---------------- solver parity ---------------- *)
    let r = Reference_pta.analyze program in
    if
      dump_to_string (Andersen.pts_dump a.Engine.pta)
      <> dump_to_string (Reference_pta.pts_dump r)
    then viol "solver_parity" "bitset and reference points-to dumps differ";
    if
      dump_to_string (Andersen.call_graph_dump a.Engine.pta)
      <> dump_to_string (Reference_pta.call_graph_dump r)
    then viol "solver_parity" "bitset and reference call-graph dumps differ";
    (* ---------------- objsens within ci ---------------- *)
    let a_ci =
      Engine.analyze ~obj_sens:false (Frontend.load_exn ~file src)
    in
    List.iter
      (fun l ->
        List.iter
          (fun m ->
            let obj = Engine.slice_from_line a ~line:l m in
            let ci = Engine.slice_from_line a_ci ~line:l m in
            add
              (subset_violation ~name:"objsens_within_ci" ~small:obj ~big:ci
                 ~what:
                   (Printf.sprintf "object-sensitive %s slice lines at %d"
                      (Slicer.mode_to_string m) l)))
          [ Slicer.Thin; Slicer.Traditional_full ])
      seed_lines;
    List.rev !out

(* ------------------------------------------------------------------ *)
(* The edit battery: incremental == from-scratch                       *)
(* ------------------------------------------------------------------ *)

(* Budget-free modes: provenance BFS ranks in these modes are functions
   of the graph alone, so layered reports must be identical between an
   incrementally updated handle and a fresh load.  [Thin_with_aliasing]
   ranks can depend on budget-consumption order, so reports are not
   compared there — its slice SETS still are, via [modes]. *)
let report_modes =
  [ Slicer.Thin; Slicer.Traditional_data; Slicer.Traditional_full ]

(* Starting from a generated model, apply a chain of random edits;
   after each, [Engine.update] on the carried handle must agree with a
   fresh [Engine.load] of the same source on every observable: slice
   line sets in every mode, the canonical (location-keyed) points-to
   and call-graph dumps, layered report JSON in the budget-free modes,
   and the headline stats.  The updated handle's arena must also
   describe the edited program ([Arena.check_views]), with its
   footprint in the stats.  A byte-identical source must take the Noop
   path.  The chain carries the UPDATED handle forward, so patched
   graphs are themselves patched again — the accumulation case.  After
   the chain, one explicit same-source update must take (and record)
   the Noop path, so every chain contributes noop-tier coverage.

   Besides the violations, returns the update-path tier names the chain
   exercised ("noop", "patched", "resolved-incremental",
   "resolved-fresh", "rebuilt") — the fuzz driver aggregates them
   across programs and fails a run that never reached some tier.  A
   [Rebuilt_fallback] (an incremental tier raised and a full reload
   answered instead) is an [edit_fallback] violation and counts toward
   no tier: its answers are exact, so no parity oracle would see it.
   [kinds] restricts the edit generator to the given kinds (the CLI's
   --edit-kinds). *)
let edit_battery ?(kinds : Gen_tj.edit_kind list option)
    ~(rng : Fuzz_rng.t) ~(model : Gen_tj.model) ~(edits : int) () :
    violation list * string list =
  let out = ref [] in
  let tiers = ref [] in
  let viol oracle detail = out := { oracle; detail } :: !out in
  let seen_tier ~(ctx : string) (p : Engine.update_path) =
    match p with
    | Engine.Rebuilt_fallback _ ->
      viol "edit_fallback"
        (ctx ^ ": an incremental tier raised; a full reload answered")
    | _ ->
      let s = Engine.update_path_to_string p in
      if not (List.mem s !tiers) then tiers := s :: !tiers
  in
  let load_h src =
    try Some (Engine.load [ (file, src) ])
    with Frontend.Error e ->
      viol "edit_well_formed" (Frontend.error_to_string e);
      None
  in
  let r0 = Gen_tj.render model in
  (match load_h r0.Gen_tj.src with
  | None -> ()
  | Some h0 ->
    let h = ref h0 and cur = ref model and prev_src = ref r0.Gen_tj.src in
    (try
       for i = 1 to edits do
         let m', kind = Gen_tj.edit ?kinds ~rng !cur in
         cur := m';
         let r = Gen_tj.render m' in
         let src = r.Gen_tj.src in
         let h', rep = Engine.update !h [ (file, src) ] in
         let ctx =
           Printf.sprintf "edit %d (%s, path=%s)" i
             (Gen_tj.edit_kind_to_string kind)
             (Engine.update_path_to_string rep.Engine.up_path)
         in
         seen_tier ~ctx rep.Engine.up_path;
         if src = !prev_src && rep.Engine.up_path <> Engine.Noop then
           viol "edit_noop_path" (ctx ^ ": source unchanged but path is not noop");
         (match load_h src with
         | None -> raise Exit
         | Some fresh ->
           let ia = h'.Engine.h_analysis
           and fa = fresh.Engine.h_analysis in
           List.iter
             (fun l ->
               List.iter
                 (fun m ->
                   if
                     Engine.slice_from_line ia ~line:l m
                     <> Engine.slice_from_line fa ~line:l m
                   then
                     viol "edit_slice_parity"
                       (Printf.sprintf "%s: %s slice lines at %d differ" ctx
                          (Slicer.mode_to_string m) l))
                 modes)
             r.Gen_tj.seed_lines;
           if
             dump_to_string (Engine.pts_dump_canonical ia)
             <> dump_to_string (Engine.pts_dump_canonical fa)
           then viol "edit_pts_parity" (ctx ^ ": canonical points-to dumps differ");
           if
             dump_to_string (Engine.call_graph_dump_canonical ia)
             <> dump_to_string (Engine.call_graph_dump_canonical fa)
           then
             viol "edit_pts_parity" (ctx ^ ": canonical call-graph dumps differ");
           List.iter
             (fun l ->
               List.iter
                 (fun m ->
                   let json hh =
                     let q = Engine.Q_report { line = l; mode = m } in
                     Slice_obs.Json.to_string
                       (Engine.query_result_to_json hh q (Engine.run_query hh q))
                   in
                   if json h' <> json fresh then
                     viol "edit_report_parity"
                       (Printf.sprintf "%s: %s report at %d differs" ctx
                          (Slicer.mode_to_string m) l))
                 report_modes)
             r.Gen_tj.seed_lines;
           let s1 = h'.Engine.h_stats and s2 = fresh.Engine.h_stats in
           if
             ( s1.Engine.methods, s1.Engine.ir_statements,
               s1.Engine.sdg_statements )
             <> ( s2.Engine.methods, s2.Engine.ir_statements,
                  s2.Engine.sdg_statements )
           then
             viol "edit_stats_parity"
               (Printf.sprintf
                  "%s: stats differ (methods %d/%d, ir %d/%d, sdg %d/%d)" ctx
                  s1.Engine.methods s2.Engine.methods s1.Engine.ir_statements
                  s2.Engine.ir_statements s1.Engine.sdg_statements
                  s2.Engine.sdg_statements);
           if
             Sdg.num_live_nodes ia.Engine.sdg
             <> Sdg.num_live_nodes fa.Engine.sdg
           then viol "edit_stats_parity" (ctx ^ ": live SDG node counts differ");
           (match Slice_ir.Arena.check_views ia.Engine.program ia.Engine.arena with
           | Ok () -> ()
           | Error msg -> viol "edit_arena_views" (ctx ^ ": " ^ msg));
           if s1.Engine.arena_bytes <> Slice_ir.Arena.bytes ia.Engine.arena then
             viol "edit_arena_views"
               (ctx ^ ": stats.arena_bytes is not the arena's footprint"));
         prev_src := src;
         h := h'
       done;
       (* Explicit same-source update: must be a Noop, whatever tier the
          carried handle last went through. *)
       let h', rep = Engine.update !h [ (file, !prev_src) ] in
       seen_tier ~ctx:"same-source update" rep.Engine.up_path;
       if rep.Engine.up_path <> Engine.Noop then
         viol "edit_noop_path"
           (Printf.sprintf
              "same-source update after the chain took path=%s, not noop"
              (Engine.update_path_to_string rep.Engine.up_path));
       h := h'
     with Exit -> ()));
  (List.rev !out, List.rev !tiers)
