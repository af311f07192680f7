(* Points-to analysis tests: precision on separated objects, soundness of
   the call graph against concrete execution, container cloning on/off,
   and cast verification. *)

open Slice_ir
open Slice_pta
open Slice_oracle
open Helpers

let main_mq = { Instr.mq_class = Types.toplevel_class; mq_name = "main" }

(* pts set of the local named [name] in main, as allocation-site list *)
let pts_of_local (p : Program.t) (r : Andersen.result) (name : string) :
    int list =
  let m = Program.find_method_exn p main_mq in
  (* find the SSA variable whose name starts with [name] and has maximal
     version (the last definition) *)
  let best = ref None in
  Array.iteri
    (fun v vi ->
      let n = vi.Instr.vi_name in
      if
        n = name
        || String.length n > String.length name
           && String.sub n 0 (String.length name + 1) = name ^ "#"
      then best := Some v)
    m.Instr.m_vars;
  match !best with
  | None -> Alcotest.failf "no variable %s in main" name
  | Some v ->
    Andersen.ObjSet.elements (Andersen.pts_of_var_ci r main_mq v)
    |> List.map (fun o -> (Context.obj (Andersen.contexts r) o).Context.oi_site)

let test_separation () =
  let src =
    {|class Box { Object v; }
void main(String[] args) {
  Box a = new Box();
  Box b = new Box();
  a.v = "ga";
  b.v = "gb";
  Object x = a.v;
  Object y = b.v;
  print("done");
}|}
  in
  let p = load src in
  let r = Andersen.analyze p in
  let xa = pts_of_local p r "x" and yb = pts_of_local p r "y" in
  Alcotest.(check int) "x has one source" 1 (List.length xa);
  Alcotest.(check int) "y has one source" 1 (List.length yb);
  Alcotest.(check bool) "distinct boxes do not alias" true (xa <> yb)

let test_merging_through_copy () =
  let src =
    {|class Box { Object v; }
void main(String[] args) {
  Box a = new Box();
  Box b = a;
  a.v = "ga";
  Object x = b.v;
  print("done");
}|}
  in
  let p = load src in
  let r = Andersen.analyze p in
  Alcotest.(check int) "copy aliases" 1 (List.length (pts_of_local p r "x"))

let vectors_src =
  Slice_workloads.Runtime_lib.vector_src
  ^ {|void main(String[] args) {
  Vector v1 = new Vector();
  Vector v2 = new Vector();
  v1.add("apple");
  v2.add("banana");
  Object x = v1.get(0);
  Object y = v2.get(0);
  print("done");
}|}

let test_container_cloning () =
  let p = load vectors_src in
  let r = Andersen.analyze p in
  let x = pts_of_local p r "x" and y = pts_of_local p r "y" in
  Alcotest.(check int) "x precise" 1 (List.length x);
  Alcotest.(check int) "y precise" 1 (List.length y);
  Alcotest.(check bool) "different vectors separated" true (x <> y);
  (* Vector methods are cloned per receiver object *)
  let add_mq = { Instr.mq_class = "Vector"; mq_name = "add" } in
  Alcotest.(check int) "add analyzed twice" 2
    (List.length (Andersen.mctxs_of_method r add_mq))

let test_no_obj_sens_merges () =
  let p = load vectors_src in
  let r = Andersen.analyze ~opts:Andersen.no_obj_sens_opts p in
  let x = pts_of_local p r "x" in
  (* without cloning, both strings flow out of the shared backing array *)
  Alcotest.(check int) "merged contents" 2 (List.length x);
  let add_mq = { Instr.mq_class = "Vector"; mq_name = "add" } in
  Alcotest.(check int) "add analyzed once" 1
    (List.length (Andersen.mctxs_of_method r add_mq))

let test_call_graph_virtual () =
  let src =
    {|class Animal { String speak() { return "?"; } }
class Dog extends Animal { String speak() { return "woof"; } }
class Cat extends Animal { String speak() { return "meow"; } }
void main(String[] args) {
  Animal a = new Dog();
  print(a.speak());
}|}
  in
  let p = load src in
  let r = Andersen.analyze p in
  let m = Program.find_method_exn p main_mq in
  let targets = ref [] in
  Instr.iter_instrs m (fun _ i ->
      match i.Instr.i_kind with
      | Instr.Call { kind = Instr.Virtual "speak"; _ } ->
        targets := Andersen.call_targets_ci r main_mq ~stmt:i.Instr.i_id
      | _ -> ());
  Alcotest.(check int) "one target" 1 (List.length !targets);
  Alcotest.(check string) "dispatches to Dog" "Dog"
    (List.hd !targets).Instr.mq_class;
  (* Cat.speak is unreachable *)
  Alcotest.(check bool) "Cat.speak unreachable" false
    (List.exists
       (fun mq -> mq.Instr.mq_class = "Cat")
       (Andersen.reachable_methods r))

let test_cast_verification () =
  let src =
    {|class A { }
class B extends A { }
void main(String[] args) {
  A good = new B();
  B b = (B) good;
  A bad = new A();
  Object o = bad;
  print("x");
}|}
  in
  let p = load src in
  let r = Andersen.analyze p in
  let m = Program.find_method_exn p main_mq in
  Instr.iter_instrs m (fun _ i ->
      match i.Instr.i_kind with
      | Instr.Cast (_, Types.Tclass "B", _) ->
        Alcotest.(check bool) "provable cast verified" true
          (Andersen.cast_verified r main_mq i)
      | _ -> ())

let test_tough_cast_detection () =
  let a = analysis Slice_workloads.Paper_figures.fig5 in
  let casts = Slice_core.Engine.tough_casts a in
  Alcotest.(check int) "fig5 has one tough cast" 1 (List.length casts)

let test_static_fields_flow () =
  let src =
    {|class G { static Object shared; }
void main(String[] args) {
  G.shared = "hello";
  Object x = G.shared;
  print("done");
}|}
  in
  let p = load src in
  let r = Andersen.analyze p in
  Alcotest.(check int) "flows through static" 1
    (List.length (pts_of_local p r "x"))

(* Soundness vs execution: every method the interpreter actually runs must
   be in the static call graph. *)
let test_call_graph_soundness () =
  List.iter
    (fun (src, args, streams) ->
      let p = load src in
      let r = Andersen.analyze p in
      let reachable =
        List.map Instr.method_qname_to_string (Andersen.reachable_methods r)
      in
      (* interpret and record executed methods via the trace of statements *)
      let trace = Slice_interp.Dyntrace.create () in
      let _ =
        Slice_interp.Interp.run
          { Slice_interp.Interp.default_config with args; streams; trace = Some trace }
          p
      in
      let tbl = Program.build_stmt_table p in
      for i = 0 to Slice_interp.Dyntrace.length trace - 1 do
        let e = Slice_interp.Dyntrace.event trace i in
        match Hashtbl.find_opt tbl e.Slice_interp.Dyntrace.ev_stmt with
        | Some si ->
          let name = Instr.method_qname_to_string si.Program.s_method in
          if not (List.mem name reachable) then
            Alcotest.failf "executed method %s not in static call graph" name
        | None -> ()
      done)
    [ (vectors_src, [], []);
      (Slice_workloads.Paper_figures.fig1, fst Slice_workloads.Paper_figures.fig1_io,
       snd Slice_workloads.Paper_figures.fig1_io) ]

(* ---- bitset solver vs the reference solver oracle ---- *)

(* Every workload of the BENCH suite; same list as bench/main.ml and
   test_props.ml. *)
let workload_programs =
  [ ("nanoxml", Slice_workloads.Prog_nanoxml.base);
    ("jtopas", Slice_workloads.Prog_jtopas.base);
    ("ant", Slice_workloads.Prog_ant.base);
    ("xmlsec", Slice_workloads.Prog_xmlsec.base);
    ("mtrt", Slice_workloads.Prog_mtrt.base);
    ("jess", Slice_workloads.Prog_jess.base);
    ("javac", Slice_workloads.Prog_javac.base);
    ("jack", Slice_workloads.Prog_jack.base);
    ("pipeline-32", Slice_workloads.Generators.pipeline_program ~stages:32) ]

let dump = Alcotest.(list (pair string (list string)))

(* The two solvers intern objects and method contexts in different
   orders (FIFO vs LIFO worklists), so parity is checked on the
   canonical-key dumps: identical points-to sets per node description,
   identical call graph, identical object counts — for both sensitivity
   settings.

   The dumps hold every fact the SDG reads from a points-to result: the
   pts dump covers variable, return, field and static nodes (so
   [pts_iter_var], [pts_of_var(_ci)] and [cast_verified]'s operand set,
   whose object keys carry the allocated class); the call-graph dump
   covers [call_targets(_ci)] and [intrinsic_targets(_ci)].  The
   reachable method contexts are the entry plus every callee context in
   the call-graph dump, which the last check below pins. *)
let test_solver_pts_parity () =
  List.iter
    (fun (name, src) ->
      let p = Slice_front.Frontend.load_exn ~file:(name ^ ".tj") src in
      List.iter
        (fun (sens, opts) ->
          let bit = Andersen.analyze ~opts p in
          let oracle = Reference_pta.analyze ~opts p in
          let ctx = Printf.sprintf "%s (%s)" name sens in
          Alcotest.check dump (ctx ^ " pts sets")
            (Reference_pta.pts_dump oracle)
            (Andersen.pts_dump bit);
          Alcotest.check dump (ctx ^ " call graph")
            (Reference_pta.call_graph_dump oracle)
            (Andersen.call_graph_dump bit);
          Alcotest.(check int)
            (ctx ^ " num_objects")
            (Reference_pta.num_objects oracle)
            (Andersen.num_objects bit);
          let key mq c = Pta_dump.mctx_key (Andersen.contexts bit) mq c in
          let reachable =
            List.map (fun (_, mq, c) -> key mq c) (Andersen.method_contexts bit)
          in
          let dumped =
            key (Program.entry_method p) Context.Cnone
            :: List.concat_map
                 (fun (k, callees) ->
                   if String.length k > 2 && String.sub k 0 2 = "C:" then
                     callees
                   else [])
                 (Andersen.call_graph_dump bit)
          in
          Alcotest.(check (list string))
            (ctx ^ " reachable contexts = entry + dumped callees")
            (List.sort_uniq compare reachable)
            (List.sort_uniq compare dumped))
        [ ("objsens", Andersen.default_opts);
          ("ci", Andersen.no_obj_sens_opts) ])
    workload_programs

let suite =
  [ Alcotest.test_case "separation" `Quick test_separation;
    Alcotest.test_case "copy merging" `Quick test_merging_through_copy;
    Alcotest.test_case "container cloning" `Quick test_container_cloning;
    Alcotest.test_case "no-objsens merges" `Quick test_no_obj_sens_merges;
    Alcotest.test_case "virtual call graph" `Quick test_call_graph_virtual;
    Alcotest.test_case "cast verification" `Quick test_cast_verification;
    Alcotest.test_case "tough cast detection" `Quick test_tough_cast_detection;
    Alcotest.test_case "static field flow" `Quick test_static_fields_flow;
    Alcotest.test_case "call graph soundness" `Quick test_call_graph_soundness;
    Alcotest.test_case "solver parity: pts + call graph" `Quick
      test_solver_pts_parity ]
