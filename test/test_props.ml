(* Property-based tests (qcheck):
   - the interpreter agrees with a reference evaluator on randomly
     generated arithmetic/boolean expressions;
   - generated pipeline programs run, and their slices respect the
     thin <= traditional ordering;
   - points-to stays sound on generated programs (slice of the printed
     value includes the statements that dynamically produced it). *)

open Slice_workloads

module IntSet = Set.Make (Int)

(* ---- a tiny expression AST with a reference evaluator ---- *)

type expr =
  | Num of int
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | Div of expr * expr    (* denominator forced nonzero by construction *)
  | Neg of expr
  | If of bexpr * expr * expr

and bexpr =
  | Lt of expr * expr
  | Eq of expr * expr
  | And of bexpr * bexpr
  | Or of bexpr * bexpr
  | Not of bexpr

let rec eval = function
  | Num n -> n
  | Add (a, b) -> eval a + eval b
  | Sub (a, b) -> eval a - eval b
  | Mul (a, b) -> eval a * eval b
  | Div (a, b) ->
    let d = eval b in
    if d = 0 then 0 else eval a / d
  | Neg a -> -eval a
  | If (c, t, e) -> if beval c then eval t else eval e

and beval = function
  | Lt (a, b) -> eval a < eval b
  | Eq (a, b) -> eval a = eval b
  | And (a, b) -> beval a && beval b
  | Or (a, b) -> beval a || beval b
  | Not a -> not (beval a)

(* Render to TJ.  [If] becomes a helper-function call so that expressions
   stay expressions. *)
let rec to_tj = function
  | Num n -> if n < 0 then Printf.sprintf "(0 - %d)" (-n) else string_of_int n
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (to_tj a) (to_tj b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (to_tj a) (to_tj b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (to_tj a) (to_tj b)
  | Div (a, b) -> Printf.sprintf "safeDiv(%s, %s)" (to_tj a) (to_tj b)
  | Neg a -> Printf.sprintf "(-%s)" (to_tj a)
  | If (c, t, e) ->
    Printf.sprintf "choose(%s, %s, %s)" (to_btj c) (to_tj t) (to_tj e)

and to_btj = function
  | Lt (a, b) -> Printf.sprintf "(%s < %s)" (to_tj a) (to_tj b)
  | Eq (a, b) -> Printf.sprintf "(%s == %s)" (to_tj a) (to_tj b)
  | And (a, b) -> Printf.sprintf "(%s && %s)" (to_btj a) (to_btj b)
  | Or (a, b) -> Printf.sprintf "(%s || %s)" (to_btj a) (to_btj b)
  | Not a -> Printf.sprintf "(!%s)" (to_btj a)

let helpers_tj =
  "int safeDiv(int a, int b) { if (b == 0) { return 0; } return a / b; }\n\
   int choose(boolean c, int t, int e) { if (c) { return t; } return e; }\n"

let gen_expr : expr QCheck2.Gen.t =
  let open QCheck2.Gen in
  sized_size (0 -- 6) @@ fix (fun self n ->
      let num = map (fun k -> Num k) (-50 -- 50) in
      if n <= 0 then num
      else
        let sub = self (n / 2) in
        let rec gen_bexpr depth =
          if depth <= 0 then map2 (fun a b -> Lt (a, b)) sub sub
          else
            oneof
              [ map2 (fun a b -> Lt (a, b)) sub sub;
                map2 (fun a b -> Eq (a, b)) sub sub;
                map2 (fun a b -> And (a, b)) (gen_bexpr (depth - 1)) (gen_bexpr (depth - 1));
                map2 (fun a b -> Or (a, b)) (gen_bexpr (depth - 1)) (gen_bexpr (depth - 1));
                map (fun a -> Not a) (gen_bexpr (depth - 1)) ]
        in
        oneof
          [ num;
            map2 (fun a b -> Add (a, b)) sub sub;
            map2 (fun a b -> Sub (a, b)) sub sub;
            map2 (fun a b -> Mul (a, b)) sub sub;
            map2 (fun a b -> Div (a, b)) sub sub;
            map (fun a -> Neg a) sub;
            map3 (fun c t e -> If (c, t, e)) (gen_bexpr 2) sub sub ])

let prop_interp_matches_reference =
  QCheck2.Test.make ~count:40 ~name:"interpreter agrees with reference evaluator"
    ~print:(fun e -> to_tj e) gen_expr
    (fun e ->
      let src =
        helpers_tj
        ^ Printf.sprintf "void main(String[] args) { print(itoa(%s)); }\n" (to_tj e)
      in
      match Helpers.run_ok src with
      | [ line ] -> line = string_of_int (eval e)
      | _ -> false)

let prop_pipeline_runs_and_slices =
  QCheck2.Test.make ~count:6 ~name:"pipelines run; thin <= traditional"
    QCheck2.Gen.(2 -- 10)
    (fun stages ->
      let src = Generators.pipeline_program ~stages in
      let p = Helpers.load src in
      let args, streams = Generators.pipeline_io in
      let o =
        Slice_interp.Interp.run
          { Slice_interp.Interp.default_config with args; streams }
          p
      in
      (match o.Slice_interp.Interp.result with
      | Ok () -> ()
      | Error f ->
        QCheck2.Test.fail_reportf "pipeline failed: %s"
          (Format.asprintf "%a" Slice_interp.Interp.pp_failure f));
      let a = Slice_core.Engine.analyze p in
      let line =
        Runtime_lib.line_of ~src ~pattern:Generators.pipeline_seed_pattern
      in
      let thin =
        Slice_core.Engine.slice_from_line a ~line Slice_core.Slicer.Thin
      in
      let trad =
        Slice_core.Engine.slice_from_line a ~line
          Slice_core.Slicer.Traditional_data
      in
      IntSet.subset (IntSet.of_list thin) (IntSet.of_list trad))

(* The slice-covers-execution property: the static thin slice of the final
   print must contain every line the dynamic thin slice saw — on programs
   with containers, loops, and string processing, this exercises heap
   dependences end to end. *)
let prop_static_covers_dynamic =
  QCheck2.Test.make ~count:5 ~name:"static thin slice covers dynamic thin slice"
    QCheck2.Gen.(2 -- 8)
    (fun stages ->
      let src = Generators.pipeline_program ~stages in
      let p = Helpers.load src in
      let args, streams = Generators.pipeline_io in
      let trace = Slice_interp.Dyntrace.create () in
      let _ =
        Slice_interp.Interp.run
          { Slice_interp.Interp.default_config with args; streams; trace = Some trace }
          p
      in
      let a = Slice_core.Engine.analyze p in
      let line =
        Runtime_lib.line_of ~src ~pattern:Generators.pipeline_seed_pattern
      in
      let static =
        Slice_core.Engine.slice_from_line a ~line Slice_core.Slicer.Thin
      in
      let tbl = Slice_ir.Program.build_stmt_table p in
      let seed_stmt =
        Hashtbl.fold
          (fun id si acc ->
            if
              (Slice_ir.Program.stmt_loc si).Slice_ir.Loc.line = line
              &&
              match si.Slice_ir.Program.s_site with
              | Slice_ir.Program.Site_instr
                  { Slice_ir.Instr.i_kind = Slice_ir.Instr.Call _; _ } ->
                true
              | _ -> false
            then Some id
            else acc)
          tbl None
      in
      match seed_stmt with
      | None -> QCheck2.Test.fail_report "no seed statement"
      | Some stmt -> (
        match Slice_interp.Dyntrace.dynamic_thin_slice trace stmt with
        | None -> QCheck2.Test.fail_report "seed not executed"
        | Some stmts ->
          List.for_all
            (fun s ->
              match Hashtbl.find_opt tbl s with
              | Some si ->
                let l = (Slice_ir.Program.stmt_loc si).Slice_ir.Loc.line in
                l = 0 || List.mem l static
              | None -> true)
            stmts))

(* ---- CSR walk parity against the Reference (seed) implementation ---- *)

(* Every workload of the BENCH suite; the canonical list lives in
   {!Slice_workloads.Suites} so bench and tests cannot drift apart. *)
let workload_programs = Suites.paper_workloads

let parity_modes =
  [ Slice_core.Slicer.Thin;
    Slice_core.Slicer.Thin_with_aliasing 1;
    Slice_core.Slicer.Thin_with_aliasing 2;
    Slice_core.Slicer.Traditional_data;
    Slice_core.Slicer.Traditional_full ]

(* First/middle/last user-visible statement nodes: representative seed
   sets for small, medium and whole-program-reaching slices. *)
let parity_seed_sets (g : Slice_core.Sdg.t) : Slice_core.Sdg.node list list =
  let countable = ref [] in
  for n = Slice_core.Sdg.num_nodes g - 1 downto 0 do
    if Slice_core.Sdg.node_countable g n then countable := n :: !countable
  done;
  match !countable with
  | [] -> []
  | nodes ->
    let arr = Array.of_list nodes in
    let k = Array.length arr in
    [ [ arr.(0) ]; [ arr.(k / 2) ]; [ arr.(k - 1) ];
      [ arr.(0); arr.(k / 2); arr.(k - 1) ] ]

(* Node-for-node agreement of the CSR walk with the reference walk on one
   analysis, for every mode / seed set / direction, plus the line
   projection. *)
let check_parity ~(what : string) (g : Slice_core.Sdg.t) : unit =
  let open Slice_core in
  List.iter
    (fun seeds ->
      List.iter
        (fun mode ->
          let ctx =
            Printf.sprintf "%s %s" what (Slicer.mode_to_string mode)
          in
          Alcotest.(check (list int))
            (ctx ^ " backward")
            (Slice_oracle.Reference_walk.slice g ~seeds mode)
            (Slicer.slice g ~seeds mode);
          Alcotest.(check (list int))
            (ctx ^ " forward")
            (Slice_oracle.Reference_walk.forward_slice g ~seeds mode)
            (Slicer.forward_slice g ~seeds mode);
          Alcotest.(check bool)
            (ctx ^ " lines") true
            (Slice_oracle.Reference_walk.slice_lines g ~seeds mode
            = Slicer.slice_lines g ~seeds mode))
        parity_modes)
    (parity_seed_sets g)

let test_csr_parity_on_workloads () =
  List.iter
    (fun (name, src) ->
      let a = Slice_core.Engine.of_source ~file:(name ^ ".tj") src in
      check_parity ~what:name a.Slice_core.Engine.sdg)
    workload_programs

let prop_csr_parity_on_generated =
  QCheck2.Test.make ~count:8
    ~name:"CSR walk == Reference walk on generated pipelines"
    QCheck2.Gen.(2 -- 12)
    (fun stages ->
      let src = Generators.pipeline_program ~stages in
      let g = (Helpers.analysis src).Slice_core.Engine.sdg in
      List.for_all
        (fun seeds ->
          List.for_all
            (fun mode ->
              Slice_oracle.Reference_walk.slice g ~seeds mode
              = Slice_core.Slicer.slice g ~seeds mode
              && Slice_oracle.Reference_walk.forward_slice g ~seeds mode
                 = Slice_core.Slicer.forward_slice g ~seeds mode)
            parity_modes)
        (parity_seed_sets g))

(* ---- walk counters and results pinned on javac ---- *)

(* One row per (seed set, mode, direction): the four traversal counters
   a walk bumps, then its result's length and an MD5 prefix of the node
   list.  The plain and the provenance-recording walk must both produce
   the row. *)
let walk_counter_names =
  [ "slicer.nodes_visited"; "slicer.edges_followed"; "slicer.edges_skipped";
    "slicer.edges_costly" ]

let javac_walk_rows ~(prov : bool) : (string * int list) list =
  let open Slice_core in
  let a =
    Engine.of_source ~file:"javac.tj" Slice_workloads.Prog_javac.base
  in
  let g = a.Engine.sdg in
  let rows = ref [] in
  List.iteri
    (fun si seeds ->
      List.iter
        (fun mode ->
          List.iter
            (fun forward ->
              let before = List.map Slice_obs.counter_value walk_counter_names in
              let prov = if prov then Some (Slicer.create_provenance g) else None in
              let nodes =
                if forward then Slicer.forward_slice ?prov g ~seeds mode
                else Slicer.slice ?prov g ~seeds mode
              in
              let after = List.map Slice_obs.counter_value walk_counter_names in
              let digest =
                Digest.to_hex
                  (Digest.string (String.concat "," (List.map string_of_int nodes)))
              in
              let label =
                Printf.sprintf "seeds%d %s %s %d %s" si
                  (Slicer.mode_to_string mode)
                  (if forward then "fwd" else "bwd")
                  (List.length nodes) (String.sub digest 0 12)
              in
              rows := (label, List.map2 ( - ) after before) :: !rows)
            [ false; true ])
        parity_modes)
    (parity_seed_sets g);
  List.rev !rows

(* Recorded from the walks before their result emission and counter
   access were rewritten (sorted emission by scan or int heapsort,
   counters read once per walk): same work, same answers. *)
let javac_walk_rows_expected =
  [ ("seeds0 thin bwd 1 c4ca4238a0b9", [ 1; 0; 1; 0 ]);
    ("seeds0 thin fwd 265 1890a48103c1", [ 265; 326; 483; 0 ]);
    ("seeds0 thin+alias1 bwd 1 c4ca4238a0b9", [ 1; 0; 1; 0 ]);
    ("seeds0 thin+alias1 fwd 284 157bec99f5ed", [ 284; 346; 505; 4 ]);
    ("seeds0 thin+alias2 bwd 1 c4ca4238a0b9", [ 1; 0; 1; 0 ]);
    ("seeds0 thin+alias2 fwd 284 157bec99f5ed", [ 286; 348; 499; 10 ]);
    ("seeds0 traditional-data bwd 5 afe805e5a3c3", [ 5; 5; 0; 0 ]);
    ("seeds0 traditional-data fwd 668 30e75a905163", [ 668; 1005; 1026; 0 ]);
    ("seeds0 traditional-full bwd 5 afe805e5a3c3", [ 5; 5; 0; 0 ]);
    ("seeds0 traditional-full fwd 1001 c7414cb368c5", [ 1001; 2316; 0; 0 ]);
    ("seeds1 thin bwd 60 2130e389bcfb", [ 60; 73; 50; 0 ]);
    ("seeds1 thin fwd 2 dfcb36b82ea7", [ 2; 1; 7; 0 ]);
    ("seeds1 thin+alias1 bwd 60 2130e389bcfb", [ 60; 73; 50; 0 ]);
    ("seeds1 thin+alias1 fwd 2 dfcb36b82ea7", [ 2; 1; 7; 0 ]);
    ("seeds1 thin+alias2 bwd 60 2130e389bcfb", [ 60; 73; 50; 0 ]);
    ("seeds1 thin+alias2 fwd 2 dfcb36b82ea7", [ 2; 1; 7; 0 ]);
    ("seeds1 traditional-data bwd 72 bb14edbc2780", [ 72; 93; 45; 0 ]);
    ("seeds1 traditional-data fwd 2 dfcb36b82ea7", [ 2; 1; 7; 0 ]);
    ("seeds1 traditional-full bwd 168 35a4facaa4f6", [ 168; 344; 0; 0 ]);
    ("seeds1 traditional-full fwd 867 6e6aea78bfe4", [ 867; 2009; 0; 0 ]);
    ("seeds2 thin bwd 8 ec8c1f3e52e4", [ 8; 7; 6; 0 ]);
    ("seeds2 thin fwd 4 ff2d6527e6b1", [ 4; 3; 6; 0 ]);
    ("seeds2 thin+alias1 bwd 24 21ae20e0daec", [ 24; 28; 7; 2 ]);
    ("seeds2 thin+alias1 fwd 16 60840dddf0de", [ 16; 11; 16; 4 ]);
    ("seeds2 thin+alias2 bwd 24 21ae20e0daec", [ 24; 28; 7; 2 ]);
    ("seeds2 thin+alias2 fwd 29 6088e15bb82c", [ 29; 22; 31; 7 ]);
    ("seeds2 traditional-data bwd 36 22c086050b48", [ 36; 46; 9; 0 ]);
    ("seeds2 traditional-data fwd 374 307d9651e075", [ 374; 561; 567; 0 ]);
    ("seeds2 traditional-full bwd 472 efd8404b5544", [ 472; 1119; 0; 0 ]);
    ("seeds2 traditional-full fwd 628 139266260d26", [ 628; 1496; 0; 0 ]);
    ("seeds3 thin bwd 68 fd076c10073e", [ 68; 80; 56; 0 ]);
    ("seeds3 thin fwd 269 9dc2c969f70c", [ 269; 329; 489; 0 ]);
    ("seeds3 thin+alias1 bwd 84 0aa44bf2c64a", [ 84; 101; 57; 2 ]);
    ("seeds3 thin+alias1 fwd 300 bb7b2a107ce6", [ 300; 357; 521; 8 ]);
    ("seeds3 thin+alias2 bwd 84 0aa44bf2c64a", [ 84; 101; 57; 2 ]);
    ("seeds3 thin+alias2 fwd 313 1c2fc6fe0db2", [ 315; 370; 530; 17 ]);
    ("seeds3 traditional-data bwd 96 cb6464215ac8", [ 96; 126; 50; 0 ]);
    ("seeds3 traditional-data fwd 668 30e75a905163", [ 668; 1005; 1026; 0 ]);
    ("seeds3 traditional-full bwd 472 efd8404b5544", [ 472; 1119; 0; 0 ]);
    ("seeds3 traditional-full fwd 1001 c7414cb368c5", [ 1001; 2316; 0; 0 ]) ]

let test_walk_rows_pinned () =
  List.iter
    (fun prov ->
      Alcotest.(check (list (pair string (list int))))
        (Printf.sprintf "javac walk rows (provenance=%b)" prov)
        javac_walk_rows_expected (javac_walk_rows ~prov))
    [ false; true ]

let suite =
  [ QCheck_alcotest.to_alcotest prop_interp_matches_reference;
    QCheck_alcotest.to_alcotest prop_pipeline_runs_and_slices;
    QCheck_alcotest.to_alcotest prop_static_covers_dynamic;
    Alcotest.test_case "CSR parity on the workload suite" `Quick
      test_csr_parity_on_workloads;
    QCheck_alcotest.to_alcotest prop_csr_parity_on_generated;
    Alcotest.test_case "walk counters and results pinned on javac" `Quick
      test_walk_rows_pinned ]
