(* Understanding a tough cast (paper Figure 5, section 6.3): find casts
   the pointer analysis cannot verify, then inspect the thin slice of the
   guarding tag to see the invariant that keeps the cast safe.

     dune exec examples/tough_cast.exe *)

open Slice_core
open Slice_workloads

let () =
  let src = Paper_figures.fig5 in
  let a = Engine.of_source ~file:"fig5.tj" src in
  let g = a.Engine.sdg in
  (* 1. the analysis flags the cast as tough: both AddNode and SubNode can
     reach simplify's parameter *)
  let casts = Engine.tough_casts a in
  Printf.printf "%d tough cast(s) found:\n" (List.length casts);
  List.iter
    (fun (mq, i) ->
      print_endline
        ("  "
        ^ Slice_ir.Pretty.site_to_string
            (Slice_ir.Program.find_method_exn a.Engine.program mq)
            (Slice_ir.Program.Site_instr i)))
    casts;
  (* 2. follow the control dependence from the cast to the tag check, then
     thin slice the tag to see where op values come from *)
  let check_line = Runtime_lib.line_of ~src ~pattern:Paper_figures.fig5_tag_check in
  let seeds = Engine.seeds_at_line_exn ~filter:Engine.Only_conditionals a check_line in
  let thin = Slicer.slice g ~seeds Slicer.Thin in
  print_endline "\nthin slice of the tag check:";
  List.iter
    (fun n -> if Sdg.node_countable g n then Format.printf "  %a@." (Sdg.pp_node g) n)
    thin;
  let add_w = Runtime_lib.line_of ~src ~pattern:Paper_figures.fig5_add_write in
  let sub_w = Runtime_lib.line_of ~src ~pattern:Paper_figures.fig5_sub_write in
  Printf.printf
    "\nlines %d and %d write the op tags: only AddNode writes ADD_NODE_OP, \
     so the cast cannot fail.\n"
    add_w sub_w
