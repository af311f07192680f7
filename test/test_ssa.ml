(* SSA invariants, checked on every workload program and on generated
   pipelines via qcheck:
   - every variable has at most one definition;
   - every use of an SSA variable is dominated by its definition (phi
     operands count at the end of the corresponding predecessor);
   - no phi survives without feeding a real use. *)

open Slice_ir

let check_single_def (m : Instr.meth) =
  match Ssa.check m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" (Instr.method_qname_to_string m.Instr.m_qname) e

let check_dominated_uses (m : Instr.meth) =
  if Instr.has_body m then begin
    let cfg = Cfg.build m in
    let dom = Dominance.compute (Dominance.forward_graph cfg) in
    let def_block = Hashtbl.create 32 in
    let def_pos = Hashtbl.create 32 in
    Instr.iter_instrs m (fun _ _ -> ());
    Array.iter
      (fun b ->
        List.iteri
          (fun pos i ->
            match Instr.def_of_instr i with
            | Some v ->
              Hashtbl.replace def_block v b.Instr.b_label;
              Hashtbl.replace def_pos v pos
            | None -> ())
          b.Instr.b_instrs)
      (Instr.blocks_exn m);
    List.iter (fun v -> Hashtbl.replace def_block v (Instr.entry_label m)) m.Instr.m_params;
    let check_use ~user_block ~user_pos v =
      match Hashtbl.find_opt def_block v with
      | None -> Alcotest.failf "use of undefined variable %s" (Instr.var_name m v)
      | Some db ->
        if db = user_block then begin
          (* same block: definition must come first (params count as -1) *)
          let dp = Option.value ~default:(-1) (Hashtbl.find_opt def_pos v) in
          if Hashtbl.mem def_pos v && dp >= user_pos then
            Alcotest.failf "use of %s before its definition in the same block"
              (Instr.var_name m v)
        end
        else if
          Dominance.reachable dom user_block
          && not (Dominance.dominates dom ~dom:db ~node:user_block)
        then
          Alcotest.failf "use of %s in B%d not dominated by its def in B%d"
            (Instr.var_name m v) user_block db
    in
    Array.iter
      (fun b ->
        List.iteri
          (fun pos i ->
            match i.Instr.i_kind with
            | Instr.Phi (_, ins) ->
              (* operand must be defined in (or dominate) the predecessor *)
              List.iter
                (fun (pred, v) ->
                  match Hashtbl.find_opt def_block v with
                  | None ->
                    Alcotest.failf "phi operand %s undefined" (Instr.var_name m v)
                  | Some db ->
                    if
                      Dominance.reachable dom pred
                      && not (db = pred || Dominance.dominates dom ~dom:db ~node:pred)
                    then
                      Alcotest.failf "phi operand %s not available at B%d"
                        (Instr.var_name m v) pred)
                ins
            | _ ->
              List.iter
                (check_use ~user_block:b.Instr.b_label ~user_pos:pos)
                (Instr.uses_of_instr i))
          b.Instr.b_instrs;
        List.iter
          (check_use ~user_block:b.Instr.b_label ~user_pos:max_int)
          (Instr.uses_of_term b.Instr.b_term))
      (Instr.blocks_exn m)
  end

let check_program (p : Program.t) =
  Program.iter_methods p (fun m ->
      check_single_def m;
      check_dominated_uses m)

let workload_sources =
  [ ("nanoxml", Slice_workloads.Prog_nanoxml.base);
    ("jtopas", Slice_workloads.Prog_jtopas.base);
    ("ant", Slice_workloads.Prog_ant.base);
    ("xmlsec", Slice_workloads.Prog_xmlsec.base);
    ("mtrt", Slice_workloads.Prog_mtrt.base);
    ("jess", Slice_workloads.Prog_jess.base);
    ("javac", Slice_workloads.Prog_javac.base);
    ("jack", Slice_workloads.Prog_jack.base);
    ("fig1", Slice_workloads.Paper_figures.fig1);
    ("fig2", Slice_workloads.Paper_figures.fig2);
    ("fig4", Slice_workloads.Paper_figures.fig4);
    ("fig5", Slice_workloads.Paper_figures.fig5) ]

let test_workloads () =
  List.iter (fun (_, src) -> check_program (Helpers.load src)) workload_sources

let test_loop_phi () =
  (* a loop-carried variable must get a phi at the header *)
  let p =
    Helpers.load
      "void main(String[] args) {\n\
      \  int sum = 0;\n\
      \  for (int i = 0; i < 5; i++) { sum = sum + i; }\n\
      \  print(itoa(sum));\n\
       }"
  in
  let m = Program.find_method_exn p (Program.entry_method p) in
  let phis = ref 0 in
  Instr.iter_instrs m (fun _ i ->
      match i.Instr.i_kind with Instr.Phi _ -> incr phis | _ -> ());
  Alcotest.(check bool) "has phis" true (!phis >= 2)

let test_dead_phis_pruned () =
  (* a variable assigned in a branch but never used afterwards must not
     leave a phi behind (including dead phi cycles through loop headers) *)
  let p =
    Helpers.load
      "void main(String[] args) {\n\
      \  while (parseInt(\"1\") > 0) {\n\
      \    String s = \"x\";\n\
      \    if (s.length() > 0) { String t = s + \"y\"; print(t); return; }\n\
      \  }\n\
       }"
  in
  let m = Program.find_method_exn p (Program.entry_method p) in
  Instr.iter_instrs m (fun _ i ->
      match i.Instr.i_kind with
      | Instr.Phi (x, _) ->
        (* every surviving phi must be transitively used by a non-phi *)
        let used = ref false in
        Instr.iter_instrs m (fun _ j ->
            if j.Instr.i_id <> i.Instr.i_id && List.mem x (Instr.uses_of_instr j)
            then used := true);
        Instr.iter_terms m (fun _ t ->
            if List.mem x (Instr.uses_of_term t) then used := true);
        Alcotest.(check bool) "phi used" true !used
      | _ -> ())

(* qcheck: SSA invariants hold for generated pipeline programs *)
let prop_pipeline_ssa =
  QCheck2.Test.make ~count:8 ~name:"ssa invariants on generated pipelines"
    QCheck2.Gen.(1 -- 12)
    (fun stages ->
      let src = Slice_workloads.Generators.pipeline_program ~stages in
      check_program (Helpers.load src);
      true)

(* ---- Ssa.check on hand-built broken methods ----

   A variable table committed one entry short would otherwise surface
   only later, as an index error in whichever consumer reads the missing
   entry first. *)

let build_small () : Instr.meth =
  let p = Program.create () in
  let b =
    Builder.start p
      ~qname:{ Instr.mq_class = Types.toplevel_class; mq_name = "small" }
      ~static:true
      ~params:[ ("x", Types.Tint) ]
      ~ret:Types.Tint ~loc:Loc.none
  in
  let y = Builder.fresh_temp b Types.Tint in
  ignore (Builder.emit b (Instr.Move (y, 0)));
  ignore (Builder.terminate b (Instr.Return (Some y)));
  Builder.finish b

let expect_error what (m : Instr.meth) =
  match Ssa.check m with
  | Ok () -> Alcotest.failf "Ssa.check accepted %s" what
  | Error _ -> ()

let test_check_rejects_out_of_range () =
  (match Ssa.check (build_small ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "well-formed method rejected: %s" e);
  let nvars = Array.length (build_small ()).Instr.m_vars in
  (* a terminator using the first id past the table *)
  let m = build_small () in
  let b = (Instr.blocks_exn m).(0) in
  b.Instr.b_term <- { b.Instr.b_term with Instr.t_kind = Instr.Return (Some nvars) };
  expect_error "an out-of-range terminator use" m;
  (* an instruction using and one defining past the table *)
  let m = build_small () in
  let b = (Instr.blocks_exn m).(0) in
  b.Instr.b_instrs <-
    List.map
      (fun i -> { i with Instr.i_kind = Instr.Move (1, nvars + 3) })
      b.Instr.b_instrs;
  expect_error "an out-of-range instruction use" m;
  let m = build_small () in
  let b = (Instr.blocks_exn m).(0) in
  b.Instr.b_instrs <-
    List.map (fun i -> { i with Instr.i_kind = Instr.Move (nvars, 0) }) b.Instr.b_instrs;
  expect_error "an out-of-range definition" m;
  expect_error "an out-of-range parameter"
    { (build_small ()) with Instr.m_params = [ nvars ] }

let test_check_rejects_bad_origins () =
  let with_var vi =
    let m = build_small () in
    m.Instr.m_vars <- Array.append m.Instr.m_vars [| vi |];
    m
  in
  let ssa o = { Instr.vi_name = "bad#9"; vi_kind = Instr.Vssa o; vi_ty = Types.Tint } in
  expect_error "an out-of-range SSA origin" (with_var (ssa 99));
  expect_error "a negative SSA origin" (with_var (ssa (-1)));
  (* origin 2 is the appended SSA version itself *)
  expect_error "an SSA origin that is an SSA version" (with_var (ssa 2))

(* ---- golden variable tables ----

   MD5 digests ([Helpers.vars_digest]) of every method's variable table
   after the frontend, on the nine paper workloads and a 5k-statement
   scaled program.  They pin variable numbering and SSA version names,
   which no slice or graph digest sees.  Recorded while lowering and SSA
   still grew [m_vars] by one copy per variable. *)
let golden_vars_digests =
  [ ("nanoxml", "7951425add7844ffd823e99750da335e");
    ("jtopas", "d78395d8144923a65777a033fe9f5372");
    ("ant", "d0d6a1ab97fcb14a7e0fa18b15d34eb0");
    ("xmlsec", "54be6198b7e5002d1bd4c4e20212118e");
    ("mtrt", "77d0e321291a6c41cb00a85664e516fa");
    ("jess", "b625473054e2812a7601bee70fa6c44f");
    ("javac", "7b5c7afce228675f312bba0561e6af19");
    ("jack", "99f44c97d056b97648fc720ecb5cc79e");
    ("pipeline-32", "b8272348093db90b8fb3f9359a05bf43");
    ("scaled-5000", "9e663195f3f907bd9e6c066c1cbe8440") ]

let test_golden_vars_digests () =
  let scaled = Slice_fuzz.Gen_tj.generate_scaled ~seed:1 ~stmts:5000 in
  List.iter
    (fun (name, src) ->
      let p = Slice_front.Frontend.load_exn ~file:(name ^ ".tj") src in
      Alcotest.(check string)
        (name ^ " variable-table digest")
        (List.assoc name golden_vars_digests)
        (Helpers.vars_digest p))
    (Slice_workloads.Suites.paper_workloads
    @ [ ("scaled-5000", scaled.Slice_fuzz.Gen_tj.sc_src) ])

(* ---- linearity of the frontend ----

   One straight-line method of [n] source statements with an [if] every
   ten: its variable count and block count both grow with [n], so a
   per-variable copy of the variable table or a per-variable [nblocks]
   array makes the frontend's allocation quadratic.  Words are counted
   as minor + major - promoted: those copies exceed [Max_young_wosize]
   and go straight to the major heap, where minor words never see them.
   Allocation is deterministic, so the bounds do not depend on timing. *)
let straight_line_program n =
  let buf = Buffer.create (n * 24) in
  Buffer.add_string buf "void main(String[] args) {\n  int s = parseInt(args[0]);\n";
  for i = 1 to n do
    if i mod 10 = 0 then Printf.bprintf buf "  if (s > %d) { s = s - %d; }\n" i (i mod 7 + 1)
    else Printf.bprintf buf "  s = s * 3 + %d;\n" i
  done;
  Buffer.add_string buf "  print(itoa(s));\n}\n";
  Buffer.contents buf

(* Words [Frontend.load_exn] allocates on the program, and its IR
   statement count. *)
let frontend_words n =
  let src = straight_line_program n in
  Gc.minor ();
  let w0 = Slice_obs.allocated_words () in
  let p = Slice_front.Frontend.load_exn ~file:"line.tj" src in
  let words = Slice_obs.allocated_words () -. w0 in
  (words, Program.stmt_count p)

let test_frontend_linear () =
  let small, _ = frontend_words 500 in
  let large, stmts = frontend_words 2000 in
  let ratio = large /. small in
  let per_stmt = large /. float_of_int stmts in
  if ratio > 5. then
    Alcotest.failf "frontend words grow %.2fx for 4x the statements (%.0f -> %.0f)"
      ratio small large;
  if per_stmt > 400. then
    Alcotest.failf "%.0f frontend words per IR statement at 2000 statements"
      per_stmt;
  (* Lexing allocates per token (the token, its location, an identifier's
     string, the list cell), never per character looked at: ≈6.2 words
     per source byte here, against ≈12.1 when every look allocated an
     option.  All of it is minor-heap allocation, which [Gc.minor_words]
     counts exactly. *)
  let src = straight_line_program 2000 in
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Slice_front.Lexer.tokenize ~file:"line.tj" src));
  let per_byte = (Gc.minor_words () -. w0) /. float_of_int (String.length src) in
  if per_byte > 8. then
    Alcotest.failf "%.2f lexing words per source byte at 2000 statements"
      per_byte

let suite =
  [ Alcotest.test_case "workload programs" `Quick test_workloads;
    Alcotest.test_case "loop phi" `Quick test_loop_phi;
    Alcotest.test_case "dead phis pruned" `Quick test_dead_phis_pruned;
    Alcotest.test_case "check rejects out-of-range variables" `Quick
      test_check_rejects_out_of_range;
    Alcotest.test_case "check rejects bad SSA origins" `Quick
      test_check_rejects_bad_origins;
    Alcotest.test_case "golden variable-table digests" `Quick
      test_golden_vars_digests;
    Alcotest.test_case "frontend allocation linear in method size" `Quick
      test_frontend_linear;
    QCheck_alcotest.to_alcotest prop_pipeline_ssa ]
