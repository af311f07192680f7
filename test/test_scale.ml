(* Scale-frontier tests: the mega-workload generator and the
   arena-lowered IR.

   The generator promises determinism by seed and calibrated statement
   counts; the arena promises row-for-row equivalence with the record
   IR on every paper workload, pinned here on programs small enough for
   tier-1, while bench pipeline-huge re-checks the views at
   10^5..10^6 statements. *)

open Slice_fuzz

(* --- generator ------------------------------------------------------- *)

let test_scaled_deterministic () =
  let a = Gen_tj.generate_scaled ~seed:3 ~stmts:2_000 in
  let b = Gen_tj.generate_scaled ~seed:3 ~stmts:2_000 in
  Alcotest.(check string) "same seed, same program" a.Gen_tj.sc_src
    b.Gen_tj.sc_src;
  Alcotest.(check int) "same seed line" a.Gen_tj.sc_seed_line
    b.Gen_tj.sc_seed_line;
  let c = Gen_tj.generate_scaled ~seed:4 ~stmts:2_000 in
  Alcotest.(check bool) "different seed, different program" true
    (a.Gen_tj.sc_src <> c.Gen_tj.sc_src)

let test_scaled_stmt_accuracy () =
  (* the self-calibrating generator must land within +-5% of the request
     (its contract; pipeline-huge re-checks this at 10^5 and 10^6) *)
  List.iter
    (fun stmts ->
      let sc = Gen_tj.generate_scaled ~seed:7 ~stmts in
      let p =
        Slice_front.Frontend.load_exn ~file:"scaled.tj" sc.Gen_tj.sc_src
      in
      let actual = Slice_ir.Program.stmt_count p in
      let err =
        100. *. Float.abs (float_of_int (actual - stmts)) /. float_of_int stmts
      in
      if err > 5.0 then
        Alcotest.failf "stmts=%d actual=%d err=%.2f%% (want <= 5%%)" stmts
          actual err)
    [ 5_000; 20_000 ]

let test_scaled_runs_clean () =
  (* well-formed and terminating by construction: the scaled program
     loads, runs to completion, and prints its single accumulator *)
  let sc = Gen_tj.generate_scaled ~seed:11 ~stmts:2_000 in
  let p = Slice_front.Frontend.load_exn ~file:"scaled.tj" sc.Gen_tj.sc_src in
  let o = Slice_interp.Interp.run Slice_interp.Interp.default_config p in
  (match o.Slice_interp.Interp.result with
  | Ok () -> ()
  | Error f ->
    Alcotest.failf "scaled program failed: %s"
      (Format.asprintf "%a" Slice_interp.Interp.pp_failure f));
  Alcotest.(check int) "prints exactly one line" 1
    (List.length o.Slice_interp.Interp.output)

let test_shrinker_on_large_model () =
  (* the shrinker must stay structure-preserving when fed a model at the
     generator's size ceiling: the shrunk program still satisfies the
     predicate, is no larger, and remains well-formed *)
  let m = Gen_tj.gen ~seed:13 ~max_size:200 in
  let pred r = r.Gen_tj.stmt_count >= 5 in
  let still_failing m' = pred (Gen_tj.render m') in
  let small = Gen_tj.shrink m ~still_failing in
  let r0 = Gen_tj.render m and r1 = Gen_tj.render small in
  Alcotest.(check bool) "predicate preserved" true (still_failing small);
  Alcotest.(check bool) "no larger" true
    (r1.Gen_tj.stmt_count <= r0.Gen_tj.stmt_count);
  match Slice_front.Frontend.load ~file:"shrunk.tj" r1.Gen_tj.src with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "shrunk program ill-formed: %s"
      e.Slice_front.Frontend.err_msg

(* --- arena ----------------------------------------------------------- *)

let paper_workloads =
  [ ("nanoxml", Slice_workloads.Prog_nanoxml.base);
    ("jtopas", Slice_workloads.Prog_jtopas.base);
    ("ant", Slice_workloads.Prog_ant.base);
    ("xmlsec", Slice_workloads.Prog_xmlsec.base);
    ("mtrt", Slice_workloads.Prog_mtrt.base);
    ("jess", Slice_workloads.Prog_jess.base);
    ("javac", Slice_workloads.Prog_javac.base);
    ("jack", Slice_workloads.Prog_jack.base);
    ("pipeline-32", Slice_workloads.Generators.pipeline_program ~stages:32) ]

let test_arena_views_on_workloads () =
  (* every arena column must agree with the record accessors on every
     row of every paper workload *)
  List.iter
    (fun (name, src) ->
      let p = Slice_front.Frontend.load_exn ~file:(name ^ ".tj") src in
      let ar = Slice_ir.Arena.build p in
      (match Slice_ir.Arena.check_views p ar with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: arena view mismatch: %s" name msg);
      Alcotest.(check bool) (name ^ ": arena bytes positive") true
        (Slice_ir.Arena.bytes ar > 0))
    paper_workloads

let test_arena_relower () =
  (* re-lowering appends fresh rows and repoints spans; a dropped method
     leaves no live span; once dead rows outnumber live ones the arena is
     lowered whole again, so repeated re-lowers stay bounded (without
     that, these 200 re-lowers grow the arena past 10x) *)
  let p =
    Slice_front.Frontend.load_exn ~file:"javac.tj" Slice_workloads.Prog_javac.base
  in
  let ar = Slice_ir.Arena.build p in
  let fresh = Slice_ir.Arena.bytes ar in
  let views what =
    match Slice_ir.Arena.check_views p ar with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: arena view mismatch: %s" what msg
  in
  let main = Slice_ir.Program.entry_method p in
  Slice_ir.Arena.relower ar p [ main ];
  views "relowered entry";
  Alcotest.(check bool) "relower appends rows" true
    (Slice_ir.Arena.bytes ar > fresh);
  let peak = ref 0 in
  for _ = 1 to 200 do
    Slice_ir.Arena.relower ar p [ main ];
    peak := max !peak (Slice_ir.Arena.bytes ar)
  done;
  views "after 200 relowers";
  (* live rows plus at most as many dead ones, in columns up to twice
     their length *)
  Alcotest.(check bool) "200 relowers stay within 5x a fresh arena" true
    (!peak < 5 * fresh);
  Slice_ir.Program.remove_method p main;
  Slice_ir.Arena.relower ar p [ main ];
  views "dropped entry";
  Alcotest.(check bool) "dropped method has no span" true
    (Slice_ir.Arena.method_id ar main = None)

(* --- memory gauges --------------------------------------------------- *)

let test_memory_stats () =
  let src = Slice_workloads.Prog_nanoxml.base in
  let a, snap =
    Slice_obs.scoped (fun () ->
        Slice_core.Engine.of_source ~file:"nanoxml.tj" src)
  in
  (* the location columns: two one-word-per-node arrays, recorded
     arithmetically like the CSR footprint *)
  let nodes = Slice_core.Sdg.num_nodes a.Slice_core.Engine.sdg in
  Alcotest.(check (option (float 0.)))
    "sdg.loc_bytes = 16 bytes per node"
    (Some (float_of_int (16 * nodes)))
    (List.assoc_opt "sdg.loc_bytes" snap.Slice_obs.snap_gauges);
  Alcotest.(check bool) "sdg.csr_bytes recorded beside it" true
    (List.mem_assoc "sdg.csr_bytes" snap.Slice_obs.snap_gauges);
  let s = Slice_core.Engine.stats_of a in
  Alcotest.(check bool) "arena_bytes positive" true (s.Slice_core.Engine.arena_bytes > 0);
  Alcotest.(check int) "arena_bytes deterministic"
    (Slice_ir.Arena.bytes a.Slice_core.Engine.arena)
    s.Slice_core.Engine.arena_bytes;
  (* a slice through the shared scratch makes its footprint observable *)
  let _, slice_snap =
    Slice_obs.scoped (fun () ->
        Slice_core.Slicer.slice a.Slice_core.Engine.sdg ~seeds:[ 0 ]
          Slice_core.Slicer.Thin)
  in
  Alcotest.(check bool) "scratch_bytes positive" true
    (match List.assoc_opt "slicer.scratch_bytes" slice_snap.Slice_obs.snap_gauges with
    | Some b -> b > 0.
    | None -> false);
  (* the memory block must appear in BOTH stats exports with the same
     deterministic value (serve-vs-CLI byte parity) *)
  let find_arena json =
    match json with
    | Slice_obs.Json.Obj kvs -> (
      match List.assoc_opt "memory" kvs with
      | Some (Slice_obs.Json.Obj m) -> List.assoc_opt "arena_bytes" m
      | _ -> None)
    | _ -> None
  in
  let expect = Some (Slice_obs.Json.Int s.Slice_core.Engine.arena_bytes) in
  Alcotest.(check bool) "stats_to_json memory block" true
    (find_arena (Slice_core.Engine.stats_to_json s) = expect);
  (* the resident (serve) stats export carries the same block: the
     daemon's Q_stats answer must byte-agree with the one-shot CLI *)
  let h = Slice_core.Engine.load [ ("nanoxml.tj", src) ] in
  let resident =
    Slice_core.Engine.query_result_to_json h Slice_core.Engine.Q_stats
      (Slice_core.Engine.run_query h Slice_core.Engine.Q_stats)
  in
  Alcotest.(check bool) "resident stats memory block" true
    (find_arena resident = expect)

let suite =
  [ Alcotest.test_case "generate_scaled is deterministic" `Quick
      test_scaled_deterministic;
    Alcotest.test_case "statement count within 5%" `Quick
      test_scaled_stmt_accuracy;
    Alcotest.test_case "scaled program runs clean" `Quick
      test_scaled_runs_clean;
    Alcotest.test_case "shrinker structure-preserving at size ceiling" `Quick
      test_shrinker_on_large_model;
    Alcotest.test_case "arena views match records on all workloads" `Quick
      test_arena_views_on_workloads;
    Alcotest.test_case "arena relower repoints spans and stays bounded" `Quick
      test_arena_relower;
    Alcotest.test_case "memory gauges and stats block" `Quick
      test_memory_stats ]
