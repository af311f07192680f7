(* The canonical workload index: every program the BENCH suite measures,
   as (name, source) pairs.  Shared by the property tests (CSR parity,
   golden digests, expansion fixpoint), so "all 9 paper
   workloads" means the same list everywhere. *)

let paper_workloads : (string * string) list =
  [ ("nanoxml", Prog_nanoxml.base);
    ("jtopas", Prog_jtopas.base);
    ("ant", Prog_ant.base);
    ("xmlsec", Prog_xmlsec.base);
    ("mtrt", Prog_mtrt.base);
    ("jess", Prog_jess.base);
    ("javac", Prog_javac.base);
    ("jack", Prog_jack.base);
    ("pipeline-32", Generators.pipeline_program ~stages:32) ]
