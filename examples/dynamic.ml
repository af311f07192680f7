(* Dynamic thin slicing (paper, sections 1 and 7): the same producer-only
   relevance notion applied to dynamic data dependences recorded by the
   interpreter.  The dynamic thin slice of an executed statement is a
   subset of the static one, restricted to the statements that actually
   fed it on this run.

     dune exec examples/dynamic.exe *)

open Slice_core
open Slice_workloads

let () =
  let src = Paper_figures.fig1 in
  let p = Slice_front.Frontend.load_exn ~file:"fig1.tj" src in
  (* trace a run *)
  let trace = Slice_interp.Dyntrace.create () in
  let args, streams = Paper_figures.fig1_io in
  let outcome =
    Slice_interp.Interp.run
      { Slice_interp.Interp.default_config with args; streams; trace = Some trace }
      p
  in
  Printf.printf "run: %d trace events, output:\n" (Slice_interp.Dyntrace.length trace);
  List.iter (fun l -> Printf.printf "  %s\n" l) outcome.Slice_interp.Interp.output;
  (* find the print statement and dynamically thin-slice its last execution *)
  let a = Engine.analyze p in
  let seed_line = Runtime_lib.line_of ~src ~pattern:Paper_figures.fig1_seed in
  let tbl = Slice_ir.Program.build_stmt_table p in
  let seed_stmt =
    Hashtbl.fold
      (fun id si acc ->
        let loc = Slice_ir.Program.stmt_loc si in
        match si.Slice_ir.Program.s_site with
        | Slice_ir.Program.Site_instr
            { Slice_ir.Instr.i_kind = Slice_ir.Instr.Call _; _ }
          when loc.Slice_ir.Loc.line = seed_line ->
          Some id
        | _ -> acc)
      tbl None
  in
  match seed_stmt with
  | None -> print_endline "seed statement not found"
  | Some stmt -> (
    match Slice_interp.Dyntrace.dynamic_thin_slice trace stmt with
    | None -> print_endline "seed never executed"
    | Some stmts ->
      let lines =
        List.sort_uniq compare
          (List.filter_map
             (fun s ->
               match Hashtbl.find_opt tbl s with
               | Some si ->
                 let l = (Slice_ir.Program.stmt_loc si).Slice_ir.Loc.line in
                 if l > 0 then Some l else None
               | None -> None)
             stmts)
      in
      let arr = Array.of_list (String.split_on_char '\n' src) in
      Printf.printf "\ndynamic thin slice of the last print (%d source lines):\n"
        (List.length lines);
      List.iter (fun l -> Printf.printf "%4d | %s\n" l arr.(l - 1)) lines;
      (* compare against the static thin slice *)
      let static = Engine.slice_from_line a ~line:seed_line Slicer.Thin in
      Printf.printf
        "\nstatic thin slice has %d lines; every dynamic line is contained \
         in it: %b\n"
        (List.length static)
        (List.for_all (fun l -> List.mem l static) lines))
