(* Mod-ref analysis tests: direct effects, transitive closure over the
   call graph, and the static-field case. *)

open Slice_ir
open Slice_pta
open Slice_tabulation
open Helpers

let src =
  {|class Cell {
  int v;
  void write(int x) { this.v = x; }
  int read() { return this.v; }
  int touchAndRead(int x) { write(x); return read(); }
  int pure(int x) { return x + 1; }
}
class G { static int flag; }
void setFlag() { G.flag = 1; }
void main(String[] args) {
  Cell c = new Cell();
  print(itoa(c.touchAndRead(3)));
  print(itoa(c.pure(4)));
  setFlag();
}|}

let setup () =
  let p = load src in
  let r = Andersen.analyze p in
  let mr = Modref.compute p r in
  (p, r, mr)

let mods (p, r, mr) name =
  Modref.mod_of_method p r mr { Instr.mq_class = "Cell"; mq_name = name }

let refs (p, r, mr) name =
  Modref.ref_of_method p r mr { Instr.mq_class = "Cell"; mq_name = name }

let has_field_loc set =
  Modref.LocSet.exists
    (function Modref.Lfield (_, "v") -> true | _ -> false)
    set

let test_direct_effects () =
  let ctx = setup () in
  Alcotest.(check bool) "write mods v" true (has_field_loc (mods ctx "write"));
  Alcotest.(check bool) "write refs nothing" false (has_field_loc (refs ctx "write"));
  Alcotest.(check bool) "read refs v" true (has_field_loc (refs ctx "read"));
  Alcotest.(check bool) "read mods nothing" false (has_field_loc (mods ctx "read"))

let test_transitive_effects () =
  let ctx = setup () in
  Alcotest.(check bool) "touchAndRead mods v (via write)" true
    (has_field_loc (mods ctx "touchAndRead"));
  Alcotest.(check bool) "touchAndRead refs v (via read)" true
    (has_field_loc (refs ctx "touchAndRead"))

let test_pure_method () =
  let ctx = setup () in
  Alcotest.(check bool) "pure mods nothing" true
    (Modref.LocSet.is_empty (mods ctx "pure"));
  Alcotest.(check bool) "pure refs nothing" true
    (Modref.LocSet.is_empty (refs ctx "pure"))

let test_static_effects () =
  let p, r, mr = setup () in
  let set_mods =
    Modref.mod_of_method p r mr
      { Instr.mq_class = Types.toplevel_class; mq_name = "setFlag" }
  in
  Alcotest.(check bool) "setFlag mods G.flag" true
    (Modref.LocSet.mem (Modref.Lstatic ("G", "flag")) set_mods);
  (* main inherits every effect transitively *)
  let main_mods =
    Modref.mod_of_method p r mr
      { Instr.mq_class = Types.toplevel_class; mq_name = "main" }
  in
  Alcotest.(check bool) "main mods G.flag transitively" true
    (Modref.LocSet.mem (Modref.Lstatic ("G", "flag")) main_mods);
  Alcotest.(check bool) "main mods v transitively" true (has_field_loc main_mods)

(* MD5 digests ([Helpers.modref_digest]) of the mod/ref tables on the
   nine paper workloads and a 2k-statement scaled program.  The
   constants were recorded while the direct pass could still be sharded
   across domains (every job count agreed), so they pin that the
   sequential pass computes the same tables. *)
let golden_digests =
  [ ("nanoxml", "024162ed5563e6fdd64bb08ad1030425");
    ("jtopas", "075765499ed73528337306f392f95cdc");
    ("ant", "d0252aabed8d8463bdf7fc5125c01f14");
    ("xmlsec", "286f5a6e3cea91a8ef12c98c74ad1da3");
    ("mtrt", "b40536cc8899f27dc4986ce24db54ee1");
    ("jess", "045779e78c541e50362264d8161b7341");
    ("javac", "11c71697a4e2b7569a195037765475b6");
    ("jack", "145ebaedeefbb4bf78ee86cc3e1790a5");
    ("pipeline-32", "eb2a552ab52027879fffd9e29e72ef73");
    ("scaled-2000", "18d76c37dfd3293e1abea3ae5277c731") ]

let test_golden_modref_digests () =
  let scaled = Slice_fuzz.Gen_tj.generate_scaled ~seed:5 ~stmts:2000 in
  List.iter
    (fun (name, src) ->
      let a = Slice_core.Engine.of_source ~file:(name ^ ".tj") src in
      let p = a.Slice_core.Engine.program and pta = a.Slice_core.Engine.pta in
      Alcotest.(check string)
        (name ^ " mod-ref digest")
        (List.assoc name golden_digests)
        (modref_digest pta (Modref.compute p pta)))
    (Slice_workloads.Suites.paper_workloads
    @ [ ("scaled-2000", scaled.Slice_fuzz.Gen_tj.sc_src) ])

let suite =
  [ Alcotest.test_case "direct effects" `Quick test_direct_effects;
    Alcotest.test_case "transitive effects" `Quick test_transitive_effects;
    Alcotest.test_case "pure method" `Quick test_pure_method;
    Alcotest.test_case "static effects" `Quick test_static_effects;
    Alcotest.test_case "golden mod-ref digests" `Quick
      test_golden_modref_digests ]
