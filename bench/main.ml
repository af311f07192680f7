(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6) on the TJ workload suite.

     dune exec bench/main.exe              all experiments
     dune exec bench/main.exe -- table1    benchmark characteristics
     dune exec bench/main.exe -- table2    debugging tasks
     dune exec bench/main.exe -- table3    tough casts
     dune exec bench/main.exe -- figure23  Figure 2/3 edge classification
     dune exec bench/main.exe -- scalability
     dune exec bench/main.exe -- ablation
     dune exec bench/main.exe -- timing    Bechamel micro-benchmarks
     dune exec bench/main.exe -- json      machine-readable BENCH_results.json

   Absolute numbers differ from the paper (its benchmarks are 20k-580k
   SDG-statement Java programs on WALA); EXPERIMENTS.md records the
   paper-vs-measured comparison and what carries over. *)

open Slice_core
open Slice_workloads
open Slice_tabulation

let sep () = print_endline (String.make 78 '-')

(* ------------------------------------------------------------------ *)
(* Table 1: benchmark characteristics                                  *)
(* ------------------------------------------------------------------ *)

let suite_programs () =
  [ ("nanoxml", Prog_nanoxml.base);
    ("jtopas", Prog_jtopas.base);
    ("ant", Prog_ant.base);
    ("xmlsec", Prog_xmlsec.base);
    ("mtrt", Prog_mtrt.base);
    ("jess", Prog_jess.base);
    ("javac", Prog_javac.base);
    ("jack", Prog_jack.base);
    ("pipeline-32", Generators.pipeline_program ~stages:32) ]

let table1 () =
  sep ();
  print_endline "Table 1: benchmark characteristics";
  Printf.printf "%-12s %8s %8s %8s %8s %8s %8s\n" "Benchmark" "Classes"
    "Methods" "IRStmts" "CGNodes" "SDGStmt" "SDGNode";
  List.iter
    (fun (name, src) ->
      let a = Engine.of_source ~file:(name ^ ".tj") src in
      let s = Engine.stats_of a in
      Printf.printf "%-12s %8d %8d %8d %8d %8d %8d\n" name s.Engine.classes
        s.Engine.methods s.Engine.ir_statements s.Engine.call_graph_nodes
        s.Engine.sdg_statements s.Engine.sdg_nodes)
    (suite_programs ())

(* ------------------------------------------------------------------ *)
(* Tables 2 and 3                                                      *)
(* ------------------------------------------------------------------ *)

let print_task_table title tasks =
  sep ();
  print_endline title;
  Printf.printf "%-16s %6s %6s %6s %5s %9s %9s  %s\n" "Task" "Thin" "Trad"
    "Ratio" "#Ctl" "ThinNoOS" "TradNoOS" "(paper: thin/trad)";
  let tot_thin = ref 0 and tot_trad = ref 0 in
  let all_found = ref true in
  List.iter
    (fun (t : Task.t) ->
      let m = Task.measure t in
      if not (m.Task.m_thin_found && m.Task.m_trad_found) then all_found := false;
      tot_thin := !tot_thin + m.Task.m_thin;
      tot_trad := !tot_trad + m.Task.m_trad;
      let paper_s =
        match t.Task.paper with
        | Some p -> Printf.sprintf "(%d/%d)" p.Task.p_thin p.Task.p_trad
        | None -> ""
      in
      Printf.printf "%-16s %6d %6d %6.2f %5d %9d %9d  %s%s\n" t.Task.id
        m.Task.m_thin m.Task.m_trad (Task.ratio m) t.Task.controls
        m.Task.m_thin_noobj m.Task.m_trad_noobj paper_s
        (if m.Task.m_thin_found then "" else "  [desired NOT found]"))
    tasks;
  let agg = float_of_int !tot_trad /. float_of_int (max 1 !tot_thin) in
  Printf.printf "%-16s %6d %6d %6.2f   (aggregate inspection-effort ratio)\n"
    "TOTAL" !tot_thin !tot_trad agg;
  if not !all_found then print_endline "WARNING: some desired statements not found"

let validate_all tasks =
  List.iter
    (fun t ->
      match Task.validate t with
      | Ok () -> ()
      | Error e -> Printf.printf "VALIDATION FAILURE: %s\n" e)
    tasks

let table2 () =
  print_task_table
    "Table 2: locating injected bugs (inspected statements, BFS metric)"
    Sir_suite.tasks;
  validate_all Sir_suite.tasks;
  print_endline
    "(the five excluded xml-security bugs: slicing from the failed digest\n\
    \ check pulls in the whole hash computation; see EXPERIMENTS.md)"

let table3 () =
  print_task_table
    "Table 3: understanding tough casts (inspected statements, BFS metric)"
    Casts_suite.tasks;
  validate_all Casts_suite.tasks

(* ------------------------------------------------------------------ *)
(* Figures 2/3: edge classification on the toy program                 *)
(* ------------------------------------------------------------------ *)

let figure23 () =
  sep ();
  print_endline "Figures 2/3: dependence classification on the toy program";
  let src = Paper_figures.fig2 in
  let a = Engine.of_source ~file:"fig2.tj" src in
  let g = a.Engine.sdg in
  let seed_line = Runtime_lib.line_of ~src ~pattern:Paper_figures.fig2_seed in
  let seeds = Engine.seeds_at_line_exn ~filter:Engine.Only_loads a seed_line in
  let thin =
    Engine.slice_from_line ~filter:Engine.Only_loads a ~line:seed_line Slicer.Thin
  in
  let trad =
    Engine.slice_from_line ~filter:Engine.Only_loads a ~line:seed_line
      Slicer.Traditional_full
  in
  let arr = Array.of_list (String.split_on_char '\n' src) in
  Printf.printf "seed: line %d | %s\n" seed_line (String.trim arr.(seed_line - 1));
  Printf.printf "thin slice lines        : %s\n"
    (String.concat ", " (List.map string_of_int thin));
  Printf.printf "traditional slice lines : %s\n"
    (String.concat ", " (List.map string_of_int trad));
  print_endline "edges out of the seed (Figure 3 classification):";
  List.iter
    (fun seed ->
      List.iter
        (fun (dep, kind) ->
          Format.printf "  [%s] -> %a@." (Sdg.edge_kind_to_string kind)
            (Sdg.pp_node g) dep)
        (Sdg.deps g seed))
    seeds

(* ------------------------------------------------------------------ *)
(* Scalability (section 6.1)                                           *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let scalability () =
  sep ();
  print_endline
    "Scalability: analysis cost vs slice cost (CI thin slicing is\n\
     insignificant next to call graph construction + pointer analysis),\n\
     and the heap-parameter (context-sensitive) SDG node blowup";
  Printf.printf "%-8s %8s %8s %9s %9s %9s %11s %9s %9s %9s\n" "stages"
    "IRStmts" "CGNodes" "SDGNodes" "HSDG" "HeapParm" "analysis(s)" "thin(ms)"
    "trad(ms)" "cs(ms)";
  List.iter
    (fun stages ->
      let src = Generators.pipeline_program ~stages in
      let p = Slice_front.Frontend.load_exn ~file:"pipe.tj" src in
      let a, t_analysis = time (fun () -> Engine.analyze p) in
      let line =
        Runtime_lib.line_of ~src ~pattern:Generators.pipeline_seed_pattern
      in
      let seeds = Engine.seeds_at_line_exn a line in
      let _, t_thin =
        time (fun () -> Slicer.slice a.Engine.sdg ~seeds Slicer.Thin)
      in
      let _, t_trad =
        time (fun () -> Slicer.slice a.Engine.sdg ~seeds Slicer.Traditional_data)
      in
      (* the context-sensitive heap-parameter representation *)
      let tab = Tabulation.build p a.Engine.pta in
      let cs_seeds = Tabulation.nodes_at_line tab ~line in
      let _, t_cs =
        time (fun () -> Tabulation.slice tab ~seeds:cs_seeds Tabulation.Thin)
      in
      let ts = Tabulation.stats tab in
      let s = Engine.stats_of a in
      Printf.printf "%-8d %8d %8d %9d %9d %9d %11.3f %9.3f %9.3f %9.3f\n"
        stages s.Engine.ir_statements s.Engine.call_graph_nodes
        s.Engine.sdg_nodes ts.Tabulation.total_nodes
        ts.Tabulation.heap_param_nodes t_analysis (t_thin *. 1000.)
        (t_trad *. 1000.) (t_cs *. 1000.))
    [ 4; 8; 16; 32; 64 ];
  sep ();
  print_endline
    "Context sensitivity in practice (paper section 6.1: \"the\n\
     context-sensitive algorithm does not seem beneficial for thin slicing\n\
     as likely used in practice\"): full slice sizes shrink, BFS counts\n\
     barely move";
  let src = Prog_nanoxml.base in
  let p = Slice_front.Frontend.load_exn ~file:"nanoxml.tj" src in
  let a = Engine.analyze p in
  let line =
    Runtime_lib.line_of ~src ~pattern:"print((String) this.lines.get(i));"
  in
  let ci_thin = Engine.slice_from_line a ~line Slicer.Thin in
  let ci_trad = Engine.slice_from_line a ~line Slicer.Traditional_data in
  let tab = Tabulation.build p a.Engine.pta in
  let cs_seeds = Tabulation.nodes_at_line tab ~line in
  let cs_thin =
    Tabulation.slice_lines tab (Tabulation.slice tab ~seeds:cs_seeds Tabulation.Thin)
  in
  let cs_trad =
    Tabulation.slice_lines tab
      (Tabulation.slice tab ~seeds:cs_seeds Tabulation.Traditional)
  in
  Printf.printf
    "  nanoxml slice sizes (lines): thin CI=%d CS=%d | traditional CI=%d CS=%d\n"
    (List.length ci_thin) (List.length cs_thin) (List.length ci_trad)
    (List.length cs_trad)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation () =
  sep ();
  print_endline "Ablation 1: container object-sensitivity (Table 2+3 aggregate)";
  let tasks = Sir_suite.tasks @ Casts_suite.tasks in
  let measures = List.map Task.measure tasks in
  let tot f = List.fold_left (fun acc m -> acc + f m) 0 measures in
  Printf.printf "  thin: %d (obj-sens) vs %d (no obj-sens)   trad: %d vs %d\n"
    (tot (fun m -> m.Task.m_thin))
    (tot (fun m -> m.Task.m_thin_noobj))
    (tot (fun m -> m.Task.m_trad))
    (tot (fun m -> m.Task.m_trad_noobj));
  sep ();
  print_endline
    "Ablation 2: aliasing-expansion budget on the nanoxml-5 style task";
  let t = List.nth Prog_nanoxml.tasks 4 in
  let a =
    Engine.analyze (Slice_front.Frontend.load_exn ~file:"n5.tj" t.Task.src)
  in
  let seed_line =
    Runtime_lib.line_of ~src:t.Task.src ~pattern:t.Task.seed_pattern
  in
  let desired =
    List.map
      (fun pat -> Runtime_lib.line_of ~src:t.Task.src ~pattern:pat)
      t.Task.desired_patterns
  in
  List.iter
    (fun mode ->
      let r =
        Engine.inspect_from_line ~filter:t.Task.seed_filter a ~line:seed_line
          ~desired mode
      in
      Printf.printf "  %-14s inspected=%3d found=%b slice=%d\n"
        (Slicer.mode_to_string mode) r.Inspect.inspected r.Inspect.found
        r.Inspect.slice_size)
    [ Slicer.Thin;
      Slicer.Thin_with_aliasing 1;
      Slicer.Thin_with_aliasing 2;
      Slicer.Traditional_data ];
  sep ();
  print_endline
    "Ablation 3: expansion to fixpoint recovers the traditional slice\n\
     (thin slices are a principled subset, not an ad-hoc pruning)";
  let src = Paper_figures.fig1 in
  let a = Engine.of_source ~file:"fig1.tj" src in
  let line = Runtime_lib.line_of ~src ~pattern:Paper_figures.fig1_seed in
  let seeds = Engine.seeds_at_line_exn a line in
  let expanded = Expansion.expand_to_fixpoint a.Engine.sdg ~seeds in
  let full = Slicer.slice a.Engine.sdg ~seeds Slicer.Traditional_full in
  Printf.printf "  fig1: |thin-expanded-to-fixpoint| = %d, |traditional| = %d\n"
    (List.length expanded) (List.length full)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let timing () =
  sep ();
  print_endline "Bechamel timings (ns/run; one Test.make per experiment)";
  let open Bechamel in
  let fig1_analysis =
    lazy (Engine.of_source ~file:"fig1.tj" Paper_figures.fig1)
  in
  let nanoxml_program =
    lazy (Slice_front.Frontend.load_exn ~file:"nanoxml.tj" Prog_nanoxml.base)
  in
  let nanoxml_analysis = lazy (Engine.analyze (Lazy.force nanoxml_program)) in
  let seed_of (a : Engine.analysis) src pat =
    Engine.seeds_at_line_exn a (Runtime_lib.line_of ~src ~pattern:pat)
  in
  let tests =
    Test.make_grouped ~name:"thinslice"
      [ Test.make ~name:"table1:analyze-nanoxml"
          (Staged.stage (fun () ->
               ignore (Engine.analyze (Lazy.force nanoxml_program))));
        Test.make ~name:"table2:thin-slice-nanoxml"
          (Staged.stage (fun () ->
               let a = Lazy.force nanoxml_analysis in
               ignore
                 (Slicer.slice a.Engine.sdg
                    ~seeds:
                      (seed_of a Prog_nanoxml.base
                         "print((String) this.lines.get(i));")
                    Slicer.Thin)));
        Test.make ~name:"table2:trad-slice-nanoxml"
          (Staged.stage (fun () ->
               let a = Lazy.force nanoxml_analysis in
               ignore
                 (Slicer.slice a.Engine.sdg
                    ~seeds:
                      (seed_of a Prog_nanoxml.base
                         "print((String) this.lines.get(i));")
                    Slicer.Traditional_data)));
        Test.make ~name:"table3:tough-casts-javac"
          (Staged.stage (fun () ->
               let a = Engine.of_source ~file:"javac.tj" Prog_javac.base in
               ignore (Engine.tough_casts a)));
        Test.make ~name:"figure4:expand-to-fixpoint"
          (Staged.stage (fun () ->
               let a = Lazy.force fig1_analysis in
               let g = a.Engine.sdg in
               let seeds =
                 seed_of a Paper_figures.fig1 Paper_figures.fig1_seed
               in
               ignore (Expansion.expand_to_fixpoint g ~seeds))) ]
  in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name v acc ->
        match Analyze.OLS.estimates v with
        | Some (e :: _) -> (name, e) :: acc
        | _ -> acc)
      res []
  in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-40s %14.0f ns/run\n" name ns)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* JSON export: the machine-readable perf trajectory                   *)
(* ------------------------------------------------------------------ *)

(* v2 added the "meta" run-environment block (ocaml version, core count,
   recommended domain count, dune profile) — BENCH entries are not
   comparable across machines or build profiles without it.  v3 drops
   the "pta_ab" and "ir_arena" sections: solver parity is pinned by the
   test suite, and the arena's bytes per statement are recorded in
   EXPERIMENTS.md.  v4 drops the "serve_ab" and "serve_incr" A/Bs: the
   perfbench serve-hot, cold-30k and edit-30k workloads measure the same
   paths, and the tests hold their self-checks. *)
let bench_schema_version = "thinslice.bench/v4"

(* Physical processor count from /proc/cpuinfo (Linux); falls back to the
   runtime's recommendation elsewhere. *)
let core_count () : int =
  try
    let ic = open_in "/proc/cpuinfo" in
    let n = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.length line >= 9 && String.sub line 0 9 = "processor" then
           incr n
       done
     with End_of_file -> ());
    close_in ic;
    if !n > 0 then !n else Domain.recommended_domain_count ()
  with Sys_error _ -> Domain.recommended_domain_count ()

let meta_json () : Slice_obs.Json.t =
  let open Slice_obs.Json in
  Obj
    [ ("ocaml_version", Str Sys.ocaml_version);
      ("cores", Int (core_count ()));
      ("recommended_domains", Int (Domain.recommended_domain_count ()));
      ("dune_profile", Str Build_info.dune_profile);
      ("word_size", Int Sys.word_size);
      ("os_type", Str Sys.os_type) ]

let bench_modes =
  [ Slicer.Thin; Slicer.Thin_with_aliasing 1; Slicer.Traditional_data;
    Slicer.Traditional_full ]

(* Slicing walls are microseconds on these programs; repeat each mode's
   slice so the wall is above timer noise, and run a few untimed warmup
   iterations first so it pays no one-off costs (minor-heap shaping,
   scratch-buffer growth) inside the timed loop. *)
let slice_reps = 200
let slice_warmup = 5

(* One suite program: run the full pipeline inside a telemetry scope,
   then slice every mode from a representative seed with per-mode scoped
   telemetry.  Each entry records the slice sizes, the CSR walk's wall
   over [slice_reps] repetitions, a parity bit (one untimed
   reference walk returned the same nodes), and per-task
   counters that are deltas, not process-cumulative values. *)
let bench_entry (name : string) (src : string) : Slice_obs.Json.t =
  let open Slice_obs.Json in
  let (a, s), pipeline_snap =
    Slice_obs.scoped (fun () ->
        let a = Engine.of_source ~file:(name ^ ".tj") src in
        (a, Engine.stats_of a))
  in
  let g = a.Engine.sdg in
  (* representative seed: the first user-visible statement node *)
  let seed = ref None in
  (try
     for n = 0 to Sdg.num_nodes g - 1 do
       if Sdg.node_countable g n then begin
         seed := Some n;
         raise Exit
       end
     done
   with Exit -> ());
  let seeds = match !seed with None -> [] | Some s -> [ s ] in
  let slices =
    List.map
      (fun mode ->
        (* warm up outside the telemetry scope so the recorded counters
           correspond exactly to the [slice_reps] timed iterations *)
        for _ = 1 to slice_warmup do
          ignore (Slicer.slice g ~seeds mode)
        done;
        let (csr_nodes, csr_wall), mode_snap =
          Slice_obs.scoped (fun () ->
              let nodes = ref [] in
              let _, wall =
                time (fun () ->
                    for _ = 1 to slice_reps do
                      nodes := Slicer.slice g ~seeds mode
                    done)
              in
              (!nodes, wall))
        in
        let lines =
          csr_nodes
          |> List.filter (Sdg.node_countable g)
          |> List.map (fun n -> (Sdg.node_loc g n).Slice_ir.Loc.line)
          |> List.sort_uniq compare
        in
        Obj
          [ ("mode", Str (Slicer.mode_to_string mode));
            ("nodes", Int (List.length csr_nodes));
            ("lines", Int (List.length lines));
            ("reps", Int slice_reps);
            ("wall_s_csr", Float csr_wall);
            ("parity", Bool (csr_nodes = Slice_oracle.Reference_walk.slice g ~seeds mode));
            ("counters",
             Obj
               (List.filter_map
                  (fun (k, v) ->
                    if String.length k >= 7 && String.sub k 0 7 = "slicer." then
                      Some (k, Int v)
                    else None)
                  mode_snap.Slice_obs.snap_counters)) ])
      bench_modes
  in
  Obj
    [ ("name", Str name);
      ("stats", Engine.program_stats_json s);
      ("phase_wall_s",
       Obj
         (List.map
            (fun (k, v) -> (k, Float v))
            (Slice_obs.span_totals pipeline_snap)));
      ("counters",
       Obj
         (List.map
            (fun (k, v) -> (k, Int v))
            pipeline_snap.Slice_obs.snap_counters));
      ("sdg.edges_by_kind", Engine.edges_by_kind_json pipeline_snap);
      ("slices", List slices) ]

(* Slice-size tables (Tables 2/3) in machine-readable form.  Each task
   measures inside its own telemetry scope, so two identical tasks report
   identical counters (previously counters and peak gauges accumulated
   across all prior tasks in the process). *)
let bench_task (t : Task.t) : Slice_obs.Json.t =
  let open Slice_obs.Json in
  let m, snap = Slice_obs.scoped (fun () -> Task.measure t) in
  Obj
    [ ("id", Str t.Task.id);
      ("thin", Int m.Task.m_thin);
      ("trad", Int m.Task.m_trad);
      ("ratio", Float (Task.ratio m));
      ("controls", Int t.Task.controls);
      ("thin_no_objsens", Int m.Task.m_thin_noobj);
      ("trad_no_objsens", Int m.Task.m_trad_noobj);
      ("thin_found", Bool m.Task.m_thin_found);
      ("trad_found", Bool m.Task.m_trad_found);
      ("counters",
       Obj
         (List.filter_map
            (fun (k, v) ->
              if String.length k >= 7 && String.sub k 0 7 = "slicer." then
                Some (k, Int v)
              else None)
            snap.Slice_obs.snap_counters));
      ("frontier_peak",
       Float
         (match List.assoc_opt "slicer.frontier_peak" snap.Slice_obs.snap_gauges with
         | Some v -> v
         | None -> 0.)) ]

(* ------------------------------------------------------------------ *)
(* Record IR bytes, for the pipeline-huge memory block                 *)
(* ------------------------------------------------------------------ *)

(* Heap bytes of the RECORD instruction payload alone: every instr/term
   record of every method body, measured together so shared locs and
   interned strings count once (as they do in the live program), with
   the list spine subtracted.  Not byte-deterministic across compiler
   versions — a BENCH measurement, never part of compared output. *)
let record_ir_bytes (p : Slice_ir.Program.t) : int =
  let acc = ref [] in
  let n = ref 0 in
  Slice_ir.Program.iter_methods p (fun m ->
      if Slice_ir.Instr.has_body m then begin
        Slice_ir.Instr.iter_instrs m (fun _ i ->
            incr n;
            acc := Obj.repr i :: !acc);
        Slice_ir.Instr.iter_terms m (fun _ t ->
            incr n;
            acc := Obj.repr t :: !acc)
      end);
  8 * (Obj.reachable_words (Obj.repr !acc) - (3 * !n))

(* ------------------------------------------------------------------ *)
(* pipeline-huge: the scale frontier                                   *)
(* ------------------------------------------------------------------ *)

(* Synthesized mega-workloads ([Gen_tj.generate_scaled]) through the
   whole pipeline with per-phase walls: gen -> front -> arena -> pta ->
   SDG -> batch slice, plus a reference-walk parity sample, a
   dynamic-oracle sample with a raised trace budget, and the process
   peak heap.  Every parity bit and the statement-count calibration are
   self-checked before the artifact is written; stdout mirrors the
   greppable keys CI matches.  Mod-ref is not timed here: it feeds only
   the context-sensitive [Tabulation] slicer, which does not run at
   this scale. *)
let huge_schema_version = "thinslice.huge/v2"

let pipeline_huge ?(stmts = 100_000) ?(out = "BENCH_huge.json") () =
  let open Slice_obs.Json in
  let open Slice_fuzz in
  sep ();
  Printf.printf "pipeline-huge: scale run at %d statements\n%!" stmts;
  let seed = 1 in
  let sc, gen_wall = time (fun () -> Gen_tj.generate_scaled ~seed ~stmts) in
  (* Frontend words per IR statement, counted like the linearity test
     (minor + major - promoted): deterministic, so a quadratic frontend
     shows at scale without any timing. *)
  Gc.minor ();
  let w0 = Slice_obs.allocated_words () in
  let p, front_wall =
    time (fun () -> Slice_front.Frontend.load_exn ~file:"huge.tj" sc.Gen_tj.sc_src)
  in
  let front_words = Slice_obs.allocated_words () -. w0 in
  let actual = Slice_ir.Program.stmt_count p in
  let words_per_stmt = front_words /. float_of_int actual in
  let err_pct =
    100. *. Float.abs (float_of_int (actual - stmts)) /. float_of_int stmts
  in
  Printf.printf "pipeline-huge stmts=%d actual=%d err_pct=%.2f parts=%d\n%!"
    stmts actual err_pct sc.Gen_tj.sc_parts;
  Printf.printf "phase=gen wall_s=%.3f\n%!" gen_wall;
  Printf.printf "phase=front wall_s=%.3f words_per_stmt=%.1f\n%!" front_wall
    words_per_stmt;
  (* The lowering's, the solver's and the graph build's words per IR
     statement, counted like the frontend's: hashing tuple or string keys
     in their inner loops shows here, whatever the runner speed. *)
  let words_per_stmt_of f =
    Gc.minor ();
    let w0 = Slice_obs.allocated_words () in
    let v, wall = time f in
    (v, wall, (Slice_obs.allocated_words () -. w0) /. float_of_int actual)
  in
  let arena, arena_wall, arena_words =
    words_per_stmt_of (fun () -> Slice_ir.Arena.build p)
  in
  let parity_arena_views =
    match Slice_ir.Arena.check_views p arena with
    | Ok () -> true
    | Error msg ->
      Printf.eprintf "pipeline-huge: arena view mismatch: %s\n" msg;
      false
  in
  Printf.printf "phase=arena wall_s=%.3f words_per_stmt=%.1f arena_bytes=%d\n%!"
    arena_wall arena_words (Slice_ir.Arena.bytes arena);
  let pta, pta_wall, pta_words =
    words_per_stmt_of (fun () -> Slice_pta.Andersen.analyze p)
  in
  Printf.printf "phase=pta wall_s=%.3f words_per_stmt=%.1f\n%!" pta_wall
    pta_words;
  let g, sdg_wall, sdg_words =
    words_per_stmt_of (fun () -> Sdg.build ~arena p pta)
  in
  Printf.printf "phase=sdg wall_s=%.3f words_per_stmt=%.1f\n%!" sdg_wall
    sdg_words;
  let a = { Engine.program = p; pta; sdg = g; arena; obj_sens = true } in
  (* The resident points-to rows and heap index, as the stats memory
     block reports them: arithmetic, so CI can bound them exactly. *)
  let pta_set_bytes = Slice_pta.Andersen.set_bytes pta in
  let heap_index_bytes = Sdg.heap_index_bytes g in
  Printf.printf "phase=memory pta_set_bytes=%d heap_index_bytes=%d\n%!"
    pta_set_bytes heap_index_bytes;
  (* batch slice over sampled seed-bearing lines (strided, so the sample
     spans the whole program, plus the generator's trailing print) *)
  let n_lines =
    List.length (String.split_on_char '\n' sc.Gen_tj.sc_src)
  in
  let sample_lines =
    let want = 48 in
    let stride = max 1 (n_lines / 199) in
    let ls = ref [] and l = ref 1 in
    while List.length !ls < want && !l <= n_lines do
      if Engine.seeds_at_line a !l <> [] then ls := !l :: !ls;
      l := !l + stride
    done;
    List.sort_uniq compare (sc.Gen_tj.sc_seed_line :: !ls)
  in
  let slices, batch_wall =
    time (fun () -> Engine.slice_batch a ~lines:sample_lines Slicer.Thin)
  in
  let slice_lines_total =
    List.fold_left (fun acc (_, ls) -> acc + List.length ls) 0 slices
  in
  Printf.printf "phase=batch_slice wall_s=%.3f slices=%d lines_total=%d\n%!"
    batch_wall (List.length slices) slice_lines_total;
  (* Reference-slicer parity on a handful of sampled seeds *)
  let ref_sample =
    let k = List.length sample_lines in
    List.filteri (fun i _ -> i = 0 || i = k / 2 || i = k - 1) sample_lines
  in
  let parity_reference, ref_wall =
    let r, w =
      time (fun () ->
          List.for_all
            (fun line ->
              let seeds = Engine.seeds_at_line a line in
              let fast =
                List.sort compare (Slicer.slice a.Engine.sdg ~seeds Slicer.Thin)
              in
              let oracle =
                List.sort compare
                  (Slice_oracle.Reference_walk.slice a.Engine.sdg ~seeds Slicer.Thin)
              in
              fast = oracle)
            ref_sample)
    in
    (r, w)
  in
  Printf.printf "phase=reference wall_s=%.3f seeds=%d parity=%b\n%!" ref_wall
    (List.length ref_sample) parity_reference;
  (* dynamic-oracle sample: one traced run with a budget scaled to the
     program, dyn thin slice at the trailing print contained in the
     static thin slice.  A clean budget trip is tolerated (and
     recorded); any other failure breaks the generator's
     fault-free-by-construction promise. *)
  let budget = max 8_000_000 (4 * stmts) in
  let trace = Slice_interp.Dyntrace.create ~max_events:budget () in
  let o, dyn_wall =
    time (fun () ->
        Slice_interp.Interp.run
          { Slice_interp.Interp.default_config with
            max_steps = budget;
            trace = Some trace }
          p)
  in
  let dyn_status, dyn_contained =
    match o.Slice_interp.Interp.result with
    | Error { Slice_interp.Interp.f_kind = Slice_interp.Interp.Trace_limit_exceeded _; _ } ->
      ("trace_limit", true)
    | Error { Slice_interp.Interp.f_kind = Slice_interp.Interp.Step_limit_exceeded; _ } ->
      ("step_limit", true)
    | Error f ->
      Printf.eprintf "pipeline-huge: scaled program failed: %s\n"
        (Format.asprintf "%a" Slice_interp.Interp.pp_failure f);
      ("failed", false)
    | Ok () -> (
      let tbl = Slice_ir.Program.build_stmt_table p in
      let seed_stmt =
        Hashtbl.fold
          (fun id si acc ->
            if
              (Slice_ir.Program.stmt_loc si).Slice_ir.Loc.line
              = sc.Gen_tj.sc_seed_line
            then
              match si.Slice_ir.Program.s_site with
              | Slice_ir.Program.Site_instr
                  { Slice_ir.Instr.i_kind = Slice_ir.Instr.Call _; _ } ->
                Some id
              | _ -> acc
            else acc)
          tbl None
      in
      match seed_stmt with
      | None -> ("no_seed", false)
      | Some stmt -> (
        match Slice_interp.Dyntrace.dynamic_thin_slice trace stmt with
        | None -> ("never_executed", false)
        | Some dyn_stmts ->
          let static_lines =
            Engine.slice_from_line a ~line:sc.Gen_tj.sc_seed_line Slicer.Thin
          in
          (* Containment is checked at the static slicer's line
             granularity, which reports COUNTABLE statements only
             ([Sdg.node_countable]): SSA phis and gotos carry a nearby
             source location but are never listed in a static slice, so
             dynamic events on them are skipped here too. *)
          let countable_site (si : Slice_ir.Program.stmt_info) =
            match si.Slice_ir.Program.s_site with
            | Slice_ir.Program.Site_instr
                { Slice_ir.Instr.i_kind = Slice_ir.Instr.Phi _; _ } ->
              false
            | Slice_ir.Program.Site_term
                { Slice_ir.Instr.t_kind = Slice_ir.Instr.Goto _; _ } ->
              false
            | _ -> true
          in
          let contained =
            List.for_all
              (fun s ->
                match Hashtbl.find_opt tbl s with
                | None -> true
                | Some si ->
                  let l = (Slice_ir.Program.stmt_loc si).Slice_ir.Loc.line in
                  l <= 0 || (not (countable_site si)) || List.mem l static_lines)
              dyn_stmts
          in
          ("ok", contained)))
  in
  Printf.printf "phase=dyn wall_s=%.3f status=%s contained=%b events=%d\n%!"
    dyn_wall dyn_status dyn_contained
    (Slice_interp.Dyntrace.length trace);
  (* One watch-mode edit: a constant tweak in one part body, which keeps
     every line and the method's constraint summary, so [Engine.update]
     patches the resident graph.  Words are counted like the frontend's
     (minor + major - promoted); at 10^5 they show any whole-program
     work on the Patched path, whatever the runner speed. *)
  let find_sub src sub =
    let ls = String.length src and lo = String.length sub in
    let rec find j =
      if j + lo > ls then None
      else if String.sub src j lo = sub then Some j
      else find (j + 1)
    in
    find 0
  in
  (* One update of [h] to [src'], its words counted like the frontend's. *)
  let timed_update h src' =
    Gc.minor ();
    let w0 = Slice_obs.allocated_words () in
    let (h', rep), wall =
      time (fun () -> Engine.update h [ ("huge.tj", src') ])
    in
    ( h',
      wall,
      Slice_obs.allocated_words () -. w0,
      Engine.update_path_to_string rep.Engine.up_path )
  in
  let h =
    { Engine.h_analysis = a;
      h_stats = Engine.stats_of a;
      h_sources = [ ("huge.tj", sc.Gen_tj.sc_src) ];
      h_container_classes = None;
      h_obj_sens = true;
      h_solver = `Bitset }
  in
  (* One thin slice query at the seed line, as serve answers it: walk,
     line projection and the answer list.  A first query sizes the
     resident scratch; the second's words, counted like the frontend's,
     are per answer line, not per visited node, whatever the runner
     speed. *)
  let query_words, query_visited =
    let q =
      Engine.Q_slice
        { line = sc.Gen_tj.sc_seed_line; mode = Slicer.Thin; forward = false }
    in
    ignore (Engine.run_query h q);
    let v0 = Slice_obs.counter_value "slicer.nodes_visited" in
    Gc.minor ();
    let w0 = Slice_obs.allocated_words () in
    ignore (Sys.opaque_identity (Engine.run_query h q));
    ( Slice_obs.allocated_words () -. w0,
      Slice_obs.counter_value "slicer.nodes_visited" - v0 )
  in
  Printf.printf "phase=query words=%.0f visited=%d\n%!" query_words
    query_visited;
  let h, patch_wall, patch_words, patch_path =
    let src = sc.Gen_tj.sc_src and old_s = "cur.fi = a % 1001;" in
    match find_sub src old_s with
    | None -> (h, 0., 0., "no-site")
    | Some j ->
      let lo = String.length old_s in
      timed_update h
        (String.sub src 0 j ^ "cur.fi = a % 1002;"
        ^ String.sub src (j + lo) (String.length src - j - lo))
  in
  Printf.printf "phase=patch wall_ms=%.1f words=%.0f path=%s\n%!"
    (1000. *. patch_wall) patch_words patch_path;
  let peak_heap_bytes = Gc.((quick_stat ()).top_heap_words) * 8 in
  Printf.printf "peak_heap_bytes=%d\n%!" peak_heap_bytes;
  (* One class swap on the patched handle: the class of the first
     [new S<f>_<0|1>()] allocation flipped to its sibling, which moves
     one method's constraint summary, so the update re-lowers it and
     analyzes the program afresh while the old analysis is still held.
     Its words are deterministic; the top heap after it is the
     two-analyses peak. *)
  let resolve_wall, resolve_words, resolve_path, resolve_top_heap =
    let src = snd (List.hd h.Engine.h_sources) in
    match find_sub src "= new S" with
    | None -> (0., 0., "no-site", 0)
    | Some j ->
      let last = String.index_from src j '(' - 1 in
      let flip = if src.[last] = '0' then "1" else "0" in
      let h', wall, words, path =
        timed_update h
          (String.sub src 0 last ^ flip
          ^ String.sub src (last + 1) (String.length src - last - 1))
      in
      ignore (Sys.opaque_identity h');
      (wall, words, path, Gc.((quick_stat ()).top_heap_words) * 8)
  in
  Printf.printf "phase=resolve wall_ms=%.1f words=%.0f path=%s top_heap_bytes=%d\n%!"
    (1000. *. resolve_wall) resolve_words resolve_path resolve_top_heap;
  let accuracy_ok = err_pct <= 5.0 in
  let patched = patch_path = "patched" in
  let parity =
    accuracy_ok && parity_arena_views && parity_reference && dyn_contained
    && patched
  in
  Printf.printf "parity=%b\n%!" parity;
  let doc =
    Obj
      [ ("schema", Str huge_schema_version);
        ("meta", meta_json ());
        ("generated_at_unix_s", Float (Unix.gettimeofday ()));
        ("stmts_requested", Int stmts);
        ("stmts_actual", Int actual);
        ("stmt_err_pct", Float err_pct);
        ("parts", Int sc.Gen_tj.sc_parts);
        ("classes", Int sc.Gen_tj.sc_classes);
        ("methods", Int sc.Gen_tj.sc_methods);
        ("phases",
         Obj
           [ ("gen_wall_s", Float gen_wall);
             ("front_wall_s", Float front_wall);
             ("front_words_per_stmt", Float words_per_stmt);
             ("arena_wall_s", Float arena_wall);
             ("arena_words_per_stmt", Float arena_words);
             ("pta_wall_s", Float pta_wall);
             ("pta_words_per_stmt", Float pta_words);
             ("sdg_wall_s", Float sdg_wall);
             ("sdg_words_per_stmt", Float sdg_words);
             ("batch_slice_wall_s", Float batch_wall);
             ("reference_wall_s", Float ref_wall);
             ("dyn_wall_s", Float dyn_wall);
             ("query_words", Float query_words);
             ("query_visited", Int query_visited);
             ("patch_wall_s", Float patch_wall);
             ("patch_words", Float patch_words);
             ("resolve_wall_s", Float resolve_wall);
             ("resolve_words", Float resolve_words);
             ("resolve_path", Str resolve_path) ]);
        ("memory",
         Obj
           [ ("arena_bytes", Int (Slice_ir.Arena.bytes arena));
             ("pta_set_bytes", Int pta_set_bytes);
             ("heap_index_bytes", Int heap_index_bytes);
             ("record_ir_bytes", Int (record_ir_bytes p));
             ("peak_heap_bytes", Int peak_heap_bytes);
             ("resolve_top_heap_bytes", Int resolve_top_heap) ]);
        ("batch",
         Obj
           [ ("num_slices", Int (List.length slices));
             ("lines_total", Int slice_lines_total) ]);
        ("dyn",
         Obj
           [ ("status", Str dyn_status);
             ("events", Int (Slice_interp.Dyntrace.length trace));
             ("contained", Bool dyn_contained) ]);
        ("parity_arena_views", Bool parity_arena_views);
        ("parity_reference", Bool parity_reference);
        ("accuracy_ok", Bool accuracy_ok);
        ("parity", Bool parity) ]
  in
  let text = to_string doc ^ "\n" in
  let oc = open_out out in
  output_string oc text;
  close_out oc;
  (match of_string text with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "pipeline-huge: json self-check failed: %s\n" e;
    exit 1);
  Printf.printf "wrote %s\n%!" out;
  if not parity then begin
    Printf.eprintf
      "pipeline-huge: self-check failed (accuracy_ok=%b arena_views=%b \
       reference=%b dyn_contained=%b patched=%b)\n"
      accuracy_ok parity_arena_views parity_reference dyn_contained patched;
    exit 1
  end

let json_results ?(out = "BENCH_results.json") () =
  let open Slice_obs.Json in
  let benchmarks =
    List.map (fun (name, src) -> bench_entry name src) (suite_programs ())
  in
  let tasks = List.map bench_task (Sir_suite.tasks @ Casts_suite.tasks) in
  let doc =
    Obj
      [ ("schema", Str bench_schema_version);
        ("meta", meta_json ());
        ("generated_at_unix_s", Float (Unix.gettimeofday ()));
        ("benchmarks", List benchmarks);
        ("slice_size_tables", List tasks) ]
  in
  let text = to_string doc ^ "\n" in
  let oc = open_out out in
  output_string oc text;
  close_out oc;
  (* self-check: the artifact must be non-empty and re-parseable *)
  (match of_string text with
  | Ok _ -> ()
  | Error e ->
    Printf.eprintf "BENCH json self-check failed: %s\n" e;
    exit 1);
  Printf.printf "wrote %s (%d benchmarks, %d tasks)\n" out
    (List.length benchmarks) (List.length tasks)

(* ------------------------------------------------------------------ *)
(* Slice-size baseline: CI fails when any slice size drifts            *)
(* ------------------------------------------------------------------ *)

let results_path = "BENCH_results.json"
let baseline_path = "bench/baseline_slices.json"

let read_json (path : string) : Slice_obs.Json.t =
  let ic =
    try open_in_bin path
    with Sys_error msg ->
      Printf.eprintf "cannot read %s: %s\n" path msg;
      exit 1
  in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Slice_obs.Json.of_string text with
  | Ok j -> j
  | Error e ->
    Printf.eprintf "%s: invalid JSON: %s\n" path e;
    exit 1

(* Project a BENCH_results document onto the drift-sensitive facts: per
   benchmark and mode the slice node/line counts, per task the thin/trad
   inspection counts.  Also *validates* every per-mode parity bit (the
   CSR walk agreed with the list-adjacency reference). *)
let extract_slice_sizes (doc : Slice_obs.Json.t) : Slice_obs.Json.t =
  let open Slice_obs.Json in
  let str what = function
    | Some (Str s) -> s
    | _ -> failwith ("expected string for " ^ what)
  in
  let get what j k =
    match member k j with
    | Some v -> v
    | None -> failwith (Printf.sprintf "missing %s in %s" k what)
  in
  let benches =
    match member "benchmarks" doc with
    | Some (List bs) ->
      List.map
        (fun b ->
          let name = str "benchmark name" (member "name" b) in
          let slices =
            match member "slices" b with Some (List ss) -> ss | _ -> []
          in
          ( name,
            Obj
              (List.map
                 (fun sl ->
                   let mode = str "mode" (member "mode" sl) in
                   (match member "parity" sl with
                   | Some (Bool true) -> ()
                   | _ ->
                     failwith
                       (Printf.sprintf
                          "benchmark %s, mode %s: CSR/list slice parity failed"
                          name mode));
                   ( mode,
                     Obj
                       [ ("nodes", get (name ^ "/" ^ mode) sl "nodes");
                         ("lines", get (name ^ "/" ^ mode) sl "lines") ] ))
                 slices) ))
        bs
    | _ -> failwith "missing benchmarks array"
  in
  let tasks =
    match member "slice_size_tables" doc with
    | Some (List ts) ->
      List.map
        (fun t ->
          let id = str "task id" (member "id" t) in
          ( id,
            Obj [ ("thin", get id t "thin"); ("trad", get id t "trad") ] ))
        ts
    | _ -> failwith "missing slice_size_tables array"
  in
  Obj
    [ ("schema", Str "thinslice.bench-baseline/v1");
      ("benchmarks", Obj benches);
      ("tasks", Obj tasks) ]

let current_slice_sizes () : Slice_obs.Json.t =
  let doc = read_json results_path in
  (match Slice_obs.Json.member "schema" doc with
  | Some (Slice_obs.Json.Str s) when s = bench_schema_version -> ()
  | _ ->
    Printf.eprintf "%s: missing or wrong schema (want %s)\n" results_path
      bench_schema_version;
    exit 1);
  try extract_slice_sizes doc
  with Failure msg ->
    Printf.eprintf "%s: %s\n" results_path msg;
    exit 1

let write_baseline () =
  let b = current_slice_sizes () in
  let oc = open_out baseline_path in
  output_string oc (Slice_obs.Json.to_string b ^ "\n");
  close_out oc;
  Printf.printf "wrote %s\n" baseline_path

(* Leaf-by-leaf comparison with readable paths, so a CI failure names the
   exact benchmark/mode/metric that moved. *)
let check_baseline () =
  let current = current_slice_sizes () in
  if not (Sys.file_exists baseline_path) then begin
    Printf.eprintf "missing %s; generate it with: bench/main.exe -- write-baseline\n"
      baseline_path;
    exit 1
  end;
  let base = read_json baseline_path in
  let rec flatten prefix (j : Slice_obs.Json.t) acc =
    match j with
    | Slice_obs.Json.Obj kvs ->
      List.fold_left
        (fun acc (k, v) -> flatten (prefix ^ "/" ^ k) v acc)
        acc kvs
    | v -> (prefix, Slice_obs.Json.to_string v) :: acc
  in
  let cur = flatten "" current [] and bas = flatten "" base [] in
  let diffs = ref [] in
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k bas with
      | Some v' when String.equal v v' -> ()
      | Some v' ->
        diffs := Printf.sprintf "%s: baseline %s, current %s" k v' v :: !diffs
      | None -> diffs := Printf.sprintf "%s: not in baseline" k :: !diffs)
    cur;
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k cur) then
        diffs := Printf.sprintf "%s: missing from current results" k :: !diffs)
    bas;
  if !diffs = [] then
    print_endline "baseline check OK: slice sizes unchanged, parity holds"
  else begin
    Printf.eprintf "slice sizes drifted from %s:\n" baseline_path;
    List.iter (fun d -> Printf.eprintf "  %s\n" d) (List.rev !diffs);
    exit 1
  end

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match which with
  | "table1" -> table1 ()
  | "table2" -> table2 ()
  | "table3" -> table3 ()
  | "figure23" -> figure23 ()
  | "scalability" -> scalability ()
  | "ablation" -> ablation ()
  | "timing" -> timing ()
  | "json" -> json_results ()
  | "pipeline-huge" ->
    let stmts = ref 100_000 and out = ref "BENCH_huge.json" in
    let i = ref 2 in
    let argc = Array.length Sys.argv in
    while !i < argc do
      (match Sys.argv.(!i) with
      | "--stmts" when !i + 1 < argc ->
        incr i;
        stmts := int_of_string Sys.argv.(!i)
      | "--out" when !i + 1 < argc ->
        incr i;
        out := Sys.argv.(!i)
      | other ->
        Printf.eprintf "pipeline-huge: unknown flag %s\n" other;
        exit 1);
      incr i
    done;
    pipeline_huge ~stmts:!stmts ~out:!out ()
  | "write-baseline" -> write_baseline ()
  | "check-baseline" -> check_baseline ()
  | "all" ->
    table1 ();
    table2 ();
    table3 ();
    figure23 ();
    scalability ();
    ablation ();
    timing ();
    json_results ()
  | other ->
    Printf.eprintf "unknown experiment %s\n" other;
    exit 1
