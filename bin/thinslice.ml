(* The thinslice command-line tool.

     thinslice slice FILE --line N [--mode thin|trad|full|alias:K] [--no-objsens]
     thinslice batch FILE --line N --line M ... one graph, many slices
     thinslice explain FILE LINE --seed N       witness path: why is LINE in the slice?
     thinslice report FILE --line N             layered slice report with BFS ranks
     thinslice expand FILE --line N             explain aliasing around a seed
     thinslice casts FILE                       list unverifiable downcasts
     thinslice stats FILE                       program/analysis statistics
     thinslice run FILE [--arg V]... [--input NAME=PATH]
     thinslice dot FILE -o sdg.dot              export the dependence graph

   Every subcommand additionally takes the telemetry flags
     --stats-json PATH   write program stats + counters/spans as JSON
     --trace PATH        write a Chrome trace_event file (chrome://tracing)
     -v / --verbose      print a telemetry report to stderr
     -q / --quiet        suppress telemetry and disable span collection *)

open Cmdliner
open Slice_core

let read_file (path : string) : (string, [ `Msg of string ]) result =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let n = in_channel_length ic in
        Ok (really_input_string ic n))
  with Sys_error msg -> Error (`Msg (Printf.sprintf "cannot read %s: %s" path msg))

(* Raises rather than exits: the surrounding error handler decides the
   exit code (1 for most subcommands, 2 for explain hard errors), and
   [handle_errors]'s [Sys_error] case prints exactly this message. *)
let read_file_exn (path : string) : string =
  match read_file path with
  | Ok s -> s
  | Error (`Msg m) -> raise (Sys_error (Printf.sprintf "thinslice: %s" m))

(* Every query subcommand loads a resident handle and dispatches through
   [Engine.run_query] — the code path the serve daemon runs, so one-shot
   [--json] output and serve results are equal by construction. *)
let load_handle ~obj_sens path =
  let src = read_file_exn path in
  Engine.load ~obj_sens [ (Filename.basename path, src) ]

let load_analysis ~obj_sens path =
  (load_handle ~obj_sens path).Engine.h_analysis

(* ---- telemetry plumbing ---- *)

type telemetry = {
  stats_json : string option;
  trace : string option;
  verbose : bool;
  quiet : bool;
}

let telemetry_term =
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"PATH"
          ~doc:
            "Write program statistics and the telemetry snapshot (phase \
             timers, analysis counters) as JSON to $(docv).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:
            "Write a Chrome trace_event JSON file to $(docv) (open in \
             chrome://tracing or Perfetto to see the pipeline flamegraph).")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "v"; "verbose" ]
          ~doc:"Print a telemetry report (span tree, counters) to stderr.")
  in
  let quiet =
    Arg.(
      value & flag
      & info [ "q"; "quiet" ]
          ~doc:
            "Scripted use: suppress the telemetry report and, when no \
             telemetry file is requested, disable span collection entirely.")
  in
  Term.(
    const (fun stats_json trace verbose quiet ->
        { stats_json; trace; verbose; quiet })
    $ stats_json $ trace $ verbose $ quiet)

let setup_telemetry (t : telemetry) : unit =
  if t.quiet && t.stats_json = None && t.trace = None then
    Slice_obs.set_enabled false

let write_text path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

let emit_telemetry (t : telemetry) (stats : Engine.stats option) : unit =
  let snap = Slice_obs.snapshot () in
  (match t.stats_json with
  | None -> ()
  | Some path ->
    let json =
      match stats with
      | Some s -> Engine.stats_to_json s
      | None ->
        Slice_obs.Json.Obj
          [ ("schema", Slice_obs.Json.Str Engine.stats_schema_version);
            ("telemetry", Slice_obs.snapshot_to_json snap) ]
    in
    write_text path (Slice_obs.Json.to_string json ^ "\n"));
  (match t.trace with
  | None -> ()
  | Some path ->
    write_text path (Slice_obs.Json.to_string (Slice_obs.chrome_trace snap) ^ "\n"));
  if t.verbose && not t.quiet then prerr_string (Slice_obs.report snap)

(* ---- common args ---- *)

let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"TJ source file")

let line_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "line"; "l" ] ~docv:"N" ~doc:"Seed line number")

let objsens_arg =
  Arg.(
    value & flag
    & info [ "no-objsens" ]
        ~doc:"Disable object-sensitive cloning of container classes")

let mode_conv =
  let parse s =
    match Slicer.mode_of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown mode %s" s))
  in
  let print ppf m = Format.pp_print_string ppf (Slicer.mode_to_string m) in
  Arg.conv (parse, print)

let mode_arg =
  Arg.(
    value
    & opt mode_conv Slicer.Thin
    & info [ "mode"; "m" ] ~docv:"MODE"
        ~doc:"Slicing mode: thin, trad, full, or alias:K")

(* Print a clean `Msg-style error and exit, like [read_file_exn]. *)
let cli_error fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "thinslice: %s\n" m;
      exit 1)
    fmt

(* Every user-reachable failure must surface as a clean one-line error,
   never a raw OCaml exception with a backtrace.  The fuzzer feeds this
   tool hostile inputs (malformed programs, absurd limits), so the
   catch-list is deliberately wide: [Failure]/[Invalid_argument] cover
   the stdlib's own raises, and [Dyntrace.Trace_overflow] is
   belt-and-braces — {!Slice_interp.Interp.run} converts it to a
   [Trace_limit_exceeded] failure, so seeing the raw exception here
   would itself be a bug, but the CLI still refuses to crash on it. *)
let handle_errors f =
  (* THINSLICE_DEBUG=1 disables the catch-all so developers get the raw
     exception and backtrace (OCAMLRUNPARAM=b). *)
  if Sys.getenv_opt "THINSLICE_DEBUG" <> None then f ()
  else
  try f () with
  | Slice_front.Frontend.Error e ->
    Printf.eprintf "%s\n" (Slice_front.Frontend.error_to_string e);
    exit 1
  | Sys_error msg ->
    Printf.eprintf "%s\n" msg;
    exit 1
  | Engine.No_seed line ->
    Printf.eprintf "no statement found at line %d\n" line;
    exit 1
  | Failure msg -> cli_error "%s" msg
  | Invalid_argument msg -> cli_error "invalid argument: %s" msg
  | Slice_interp.Dyntrace.Trace_overflow n ->
    cli_error "dynamic trace event limit exceeded after %d events" n

(* [explain]'s variant: the subcommand reserves exit 1 for "the query
   succeeded and the line is not a member", so every HARD error —
   unreadable file, parse failure, no statement at a line — must exit 2
   to stay distinguishable in scripts (the interpreter's runtime-failure
   code, the "something actually went wrong" class). *)
let handle_errors_exit2 f =
  if Sys.getenv_opt "THINSLICE_DEBUG" <> None then f ()
  else
    let fail fmt =
      Printf.ksprintf
        (fun m ->
          Printf.eprintf "%s\n" m;
          exit 2)
        fmt
    in
    try f () with
    | Slice_front.Frontend.Error e ->
      fail "%s" (Slice_front.Frontend.error_to_string e)
    | Sys_error msg -> fail "%s" msg
    | Engine.No_seed line -> fail "no statement found at line %d" line
    | Failure msg -> fail "thinslice: %s" msg
    | Invalid_argument msg -> fail "thinslice: invalid argument: %s" msg
    | Slice_interp.Dyntrace.Trace_overflow n ->
      fail "thinslice: dynamic trace event limit exceeded after %d events" n

(* ---- slice ---- *)

let print_slice_lines src lines =
  let arr = Array.of_list (String.split_on_char '\n' src) in
  List.iter
    (fun l ->
      if l >= 1 && l <= Array.length arr then
        Printf.printf "%4d | %s\n" l arr.(l - 1))
    lines

let forward_arg =
  Arg.(
    value & flag
    & info [ "forward" ]
        ~doc:"Slice forward (impact analysis) instead of backward")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the result as JSON on stdout instead of the pretty \
           rendering (thinslice.query/v1 for slice/forward/chop/expand, \
           thinslice.explain/v1 for explain/report, thinslice.stats/v1 \
           for stats) — byte-identical to the corresponding serve \
           response's result member.")

(* Dispatch one query against a resident handle and print its JSON —
   THE shared path: the serve daemon runs the same two [Engine] calls,
   so serve results and [--json] output cannot drift apart. *)
let print_query_json h q =
  print_endline
    (Slice_obs.Json.to_string
       (Engine.query_result_to_json h q (Engine.run_query h q)))

let slice_cmd =
  let run file line mode no_objsens forward json tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        let h = load_handle ~obj_sens:(not no_objsens) file in
        let a = h.Engine.h_analysis in
        let q = Engine.Q_slice { line; mode; forward } in
        (if json then print_query_json h q
         else
           match Engine.run_query h q with
           | Engine.R_lines lines ->
             Printf.printf "%s %s slice from %s:%d (%d statements):\n"
               (if forward then "forward" else "backward")
               (Slicer.mode_to_string mode) file line (List.length lines);
             print_slice_lines (read_file_exn file) lines
           | _ -> assert false);
        emit_telemetry tel (Some (Engine.stats_of a)))
  in
  Cmd.v (Cmd.info "slice" ~doc:"Compute a slice from a seed line")
    Term.(
      const run $ file_arg $ line_arg $ mode_arg $ objsens_arg $ forward_arg
      $ json_arg $ telemetry_term)

(* ---- batch: many seeds, one graph ---- *)

let batch_cmd =
  let lines_arg =
    Arg.(
      non_empty
      & opt_all int []
      & info [ "line"; "l" ] ~docv:"N"
          ~doc:"Seed line number (repeatable; one slice per occurrence)")
  in
  let run file lines mode no_objsens forward tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        let a = load_analysis ~obj_sens:(not no_objsens) file in
        let results = Engine.slice_batch ~forward a ~lines mode in
        let src = read_file_exn file in
        List.iter
          (fun (line, slice_lines) ->
            Printf.printf "%s %s slice from %s:%d (%d statements):\n"
              (if forward then "forward" else "backward")
              (Slicer.mode_to_string mode) file line (List.length slice_lines);
            print_slice_lines src slice_lines)
          results;
        emit_telemetry tel (Some (Engine.stats_of a)))
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Compute many slices from one analysis: the graph is built once \
          and all walks share scratch buffers")
    Term.(
      const run $ file_arg $ lines_arg $ mode_arg $ objsens_arg $ forward_arg
      $ telemetry_term)

let chop_cmd =
  let to_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "to" ] ~docv:"N" ~doc:"Sink line number")
  in
  let run file line sink_line mode no_objsens json tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        let h = load_handle ~obj_sens:(not no_objsens) file in
        let a = h.Engine.h_analysis in
        let q = Engine.Q_chop { line; sink_line; mode } in
        (if json then print_query_json h q
         else
           match Engine.run_query h q with
           | Engine.R_lines lines ->
             Printf.printf "%s chop %s:%d -> %s:%d (%d statements):\n"
               (Slicer.mode_to_string mode) file line file sink_line
               (List.length lines);
             print_slice_lines (read_file_exn file) lines
           | _ -> assert false);
        emit_telemetry tel (Some (Engine.stats_of a)))
  in
  Cmd.v
    (Cmd.info "chop" ~doc:"Statements on value paths between two lines")
    Term.(
      const run $ file_arg $ line_arg $ to_arg $ mode_arg $ objsens_arg
      $ json_arg $ telemetry_term)

(* ---- expand: aliasing explanations around the seed ---- *)

let expand_cmd =
  let run file line no_objsens json tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        let h = load_handle ~obj_sens:(not no_objsens) file in
        let a = h.Engine.h_analysis in
        let g = a.Engine.sdg in
        let q = Engine.Q_expand { line } in
        (if json then print_query_json h q
         else
           match Engine.run_query h q with
           | Engine.R_expand [] ->
             print_endline
               "no heap-based value flow in the thin slice to explain"
           | Engine.R_expand flows ->
             List.iter
               (fun (f : Engine.expand_flow) ->
                 Format.printf "@.heap flow:@.  read : %a@.  write: %a@."
                   (Sdg.pp_node g) f.Engine.ef_read (Sdg.pp_node g)
                   f.Engine.ef_write;
                 Format.printf
                   "  flow of the common object(s) to the read's base:@.";
                 List.iter
                   (fun n ->
                     if Sdg.node_countable g n then
                       Format.printf "    %a@." (Sdg.pp_node g) n)
                   f.Engine.ef_read_flow;
                 Format.printf
                   "  flow of the common object(s) to the write's base:@.";
                 List.iter
                   (fun n ->
                     if Sdg.node_countable g n then
                       Format.printf "    %a@." (Sdg.pp_node g) n)
                   f.Engine.ef_write_flow)
               flows
           | _ -> assert false);
        emit_telemetry tel (Some (Engine.stats_of a)))
  in
  Cmd.v
    (Cmd.info "expand" ~doc:"Explain heap aliasing behind a thin slice")
    Term.(
      const run $ file_arg $ line_arg $ objsens_arg $ json_arg
      $ telemetry_term)

(* ---- explain / report: provenance queries ---- *)

let source_lines (src : string) : string array =
  Array.of_list (String.split_on_char '\n' src)

let source_at (arr : string array) (l : int) : string =
  if l >= 1 && l <= Array.length arr then arr.(l - 1) else ""

let explain_cmd =
  let target_arg =
    Arg.(
      required
      & pos 1 (some int) None
      & info [] ~docv:"LINE" ~doc:"Line of the statement to explain")
  in
  let seed_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "seed"; "s" ] ~docv:"N"
          ~doc:"Seed line of the slice the statement should be explained in")
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"PATH"
          ~doc:
            "Also write the full dependence graph to $(docv) with the \
             witness path highlighted (red/bold overlay on the usual DOT \
             export).")
  in
  let run file line seed mode no_objsens json dot tel =
    (* exit 2 on HARD errors: exit 1 is reserved for the non-member
       answer below, so scripts can tell "not in the slice" from "the
       query itself failed" *)
    handle_errors_exit2 (fun () ->
        setup_telemetry tel;
        let h = load_handle ~obj_sens:(not no_objsens) file in
        let a = h.Engine.h_analysis in
        let q = Engine.Q_explain { seed_line = seed; line; mode } in
        match Engine.run_query h q with
        | Engine.R_witness None ->
          emit_telemetry tel (Some (Engine.stats_of a));
          Printf.eprintf "line %d is not in the %s slice from %s:%d\n" line
            (Slicer.mode_to_string mode)
            file seed;
          exit 1
        | Engine.R_witness (Some steps) ->
          (match dot with
          | None -> ()
          | Some path ->
            let overlay =
              List.map
                (fun (s : Slicer.witness_step) ->
                  (s.Slicer.wit_node, s.Slicer.wit_kind))
                steps
            in
            write_text path (Sdg.to_dot ~witness:overlay a.Engine.sdg));
          if json then
            print_endline
              (Slice_obs.Json.to_string
                 (Engine.query_result_to_json h q
                    (Engine.R_witness (Some steps))))
          else begin
            let g = a.Engine.sdg in
            let budgeted = Slicer.initial_budget mode > 0 in
            Printf.printf
              "%s witness in %s: seed line %d -> line %d (%d hops)\n"
              (Slicer.mode_to_string mode)
              file seed line
              (List.length steps - 1);
            List.iter
              (fun (s : Slicer.witness_step) ->
                let loc = Sdg.node_loc g s.Slicer.wit_node in
                let tag =
                  match s.Slicer.wit_kind with
                  | None -> "seed"
                  | Some k -> "<-[" ^ Sdg.edge_kind_to_string k ^ "]"
                in
                let budget =
                  if budgeted then
                    Printf.sprintf "  (budget %d)" s.Slicer.wit_budget
                  else ""
                in
                Printf.printf "  %-20s %s:%-4d %s%s\n" tag
                  loc.Slice_ir.Loc.file loc.Slice_ir.Loc.line
                  (Format.asprintf "%a" (Sdg.pp_node g) s.Slicer.wit_node)
                  budget)
              steps;
            match dot with
            | Some path -> Printf.printf "wrote %s\n" path
            | None -> ()
          end;
          emit_telemetry tel (Some (Engine.stats_of a))
        | _ -> assert false)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Why is a statement in the slice?  Prints the shortest recorded \
          dependence path from the seed to the statement, with per-hop \
          edge kinds (and aliasing budgets in alias:K mode)")
    Term.(
      const run $ file_arg $ target_arg $ seed_arg $ mode_arg $ objsens_arg
      $ json_arg $ dot_arg $ telemetry_term)

let report_cmd =
  let run file line mode no_objsens json tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        let h = load_handle ~obj_sens:(not no_objsens) file in
        let a = h.Engine.h_analysis in
        let q = Engine.Q_report { line; mode } in
        let r =
          match Engine.run_query h q with
          | Engine.R_report r -> r
          | _ -> assert false
        in
        if json then
          print_endline
            (Slice_obs.Json.to_string
               (Engine.query_result_to_json h q (Engine.R_report r)))
        else begin
          let np, na, nc = r.Engine.sr_layer_sizes in
          Printf.printf
            "%s slice report from %s:%d — %d lines (producers %d, alias \
             explainers %d, control explainers %d)\n"
            (Slicer.mode_to_string mode)
            file line
            (List.length r.Engine.sr_lines)
            np na nc;
          let src = source_lines (read_file_exn file) in
          List.iter
            (fun (rl : Engine.report_line) ->
              let rfile, rline = rl.Engine.rl_loc in
              let explains =
                match rl.Engine.rl_explains with
                | [] -> ""
                | ex ->
                  "   explains "
                  ^ String.concat ", "
                      (List.map (fun (f, l) -> Printf.sprintf "%s:%d" f l) ex)
              in
              Printf.printf "  rank %2d  %-18s %4d | %s%s\n" rl.Engine.rl_rank
                (Engine.layer_to_string rl.Engine.rl_layer)
                rline
                (source_at src rline)
                explains;
              ignore rfile)
            r.Engine.sr_lines
        end;
        emit_telemetry tel (Some (Engine.stats_of a)))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Layered slice report: members partitioned into producers / alias \
          explainers / control explainers, ranked by BFS distance from the \
          seed (the paper's inspection metric)")
    Term.(
      const run $ file_arg $ line_arg $ mode_arg $ objsens_arg
      $ json_arg $ telemetry_term)

(* ---- casts ---- *)

let casts_cmd =
  let run file no_objsens tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        let a = load_analysis ~obj_sens:(not no_objsens) file in
        let casts = Engine.tough_casts a in
        Printf.printf "%d tough cast(s):\n" (List.length casts);
        List.iter
          (fun (mq, i) ->
            print_endline
              (Slice_ir.Pretty.site_to_string
                 (Slice_ir.Program.find_method_exn a.Engine.program mq)
                 (Slice_ir.Program.Site_instr i)))
          casts;
        emit_telemetry tel (Some (Engine.stats_of a)))
  in
  Cmd.v
    (Cmd.info "casts" ~doc:"List downcasts unverifiable by pointer analysis")
    Term.(const run $ file_arg $ objsens_arg $ telemetry_term)

(* ---- stats ---- *)

let stats_cmd =
  let run file no_objsens json tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        let h = load_handle ~obj_sens:(not no_objsens) file in
        let a = h.Engine.h_analysis in
        if json then print_query_json h Engine.Q_stats
        else begin
          let s = h.Engine.h_stats in
          Printf.printf
            "classes            %d\n\
             methods            %d\n\
             IR statements      %d\n\
             call graph nodes   %d\n\
             SDG statements     %d\n\
             SDG nodes          %d\n\
             abstract objects   %d\n"
            s.Engine.classes s.Engine.methods s.Engine.ir_statements
            s.Engine.call_graph_nodes s.Engine.sdg_statements s.Engine.sdg_nodes
            s.Engine.abstract_objects
        end;
        emit_telemetry tel (Some (Engine.stats_of a)))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print program and analysis statistics")
    Term.(const run $ file_arg $ objsens_arg $ json_arg $ telemetry_term)

(* ---- run ---- *)

let run_cmd =
  let args_arg =
    Arg.(value & opt_all string [] & info [ "arg" ] ~docv:"V" ~doc:"Program argument")
  in
  let inputs_arg =
    Arg.(
      value & opt_all string []
      & info [ "input" ] ~docv:"NAME=PATH"
          ~doc:"Bind stream NAME to the lines of the file at PATH")
  in
  let trace_events_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "trace-events" ] ~docv:"N"
          ~doc:
            "Record a dynamic dependence trace bounded to $(docv) events; \
             exceeding the bound aborts the run with a clean \
             trace-limit-exceeded failure (exit 2), like the step limit.")
  in
  let run file argv inputs trace_events tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        let streams =
          List.map
            (fun spec ->
              match String.index_opt spec '=' with
              | Some i ->
                let name = String.sub spec 0 i in
                let path = String.sub spec (i + 1) (String.length spec - i - 1) in
                let lines =
                  String.split_on_char '\n' (read_file_exn path)
                  |> List.filter (fun l -> l <> "")
                in
                (name, lines)
              | None -> cli_error "--input expects NAME=PATH (got %S)" spec)
            inputs
        in
        let p =
          Slice_front.Frontend.load_exn ~file:(Filename.basename file)
            (read_file_exn file)
        in
        let trace =
          match trace_events with
          | None -> None
          | Some n when n <= 0 -> cli_error "--trace-events expects N > 0"
          | Some n -> Some (Slice_interp.Dyntrace.create ~max_events:n ())
        in
        let config =
          { Slice_interp.Interp.default_config with args = argv; streams; trace }
        in
        let o = Slice_interp.Interp.run config p in
        List.iter print_endline o.Slice_interp.Interp.output;
        emit_telemetry tel None;
        match o.Slice_interp.Interp.result with
        | Ok () -> ()
        | Error f ->
          Format.printf "%a@." Slice_interp.Interp.pp_failure f;
          exit 2)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Interpret a TJ program")
    Term.(
      const run $ file_arg $ args_arg $ inputs_arg $ trace_events_arg
      $ telemetry_term)

(* ---- fuzz ---- *)

let fuzz_cmd =
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Run seed (fully deterministic)")
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"K" ~doc:"Number of programs to generate")
  in
  let max_size_arg =
    Arg.(
      value & opt int 40
      & info [ "max-size" ] ~docv:"S"
          ~doc:"Upper bound on generated steps per program")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Write a self-contained JSON repro for each (shrunk) violation \
             into $(docv); defaults to test/corpus when run from the \
             repository root, otherwise disabled.")
  in
  let fault_conv =
    let parse s =
      match Slice_fuzz.Oracle.fault_of_string s with
      | Some f -> Ok f
      | None -> Error (`Msg (Printf.sprintf "unknown fault %s" s))
    in
    let print ppf f =
      Format.pp_print_string ppf (Slice_fuzz.Oracle.fault_to_string f)
    in
    Arg.conv (parse, print)
  in
  let fault_arg =
    Arg.(
      value
      & opt fault_conv Slice_fuzz.Oracle.No_fault
      & info [ "fault" ] ~docv:"FAULT"
          ~doc:
            "Deliberately break one oracle link to prove the harness can \
             catch and shrink a violation: none (default) or \
             dyn-base-as-val (base-pointer dependences treated as value \
             dependences in the dynamic thin slice).")
  in
  let edits_arg =
    Arg.(
      value & flag
      & info [ "edits" ]
          ~doc:
            "After the base battery, apply a chain of random edits to \
             each generated program and assert that incremental \
             re-analysis (Engine.update) agrees with a from-scratch \
             load after every edit: slice line sets in every mode, \
             canonical points-to and call-graph dumps, layered reports \
             in the budget-free modes, and headline stats.  Unfiltered \
             runs of at least 25 programs additionally assert that \
             every update tier (noop/patched/resolved-incremental/rebuilt) \
             was exercised at least once.")
  in
  let edit_kinds_conv =
    let parse s =
      let parts =
        List.filter (fun p -> p <> "") (String.split_on_char ',' s)
      in
      if parts = [] then Error (`Msg "--edit-kinds expects a non-empty list")
      else
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | p :: rest -> (
            match Slice_fuzz.Gen_tj.edit_kind_of_string p with
            | Some k -> go (k :: acc) rest
            | None ->
              Error
                (`Msg
                   (Printf.sprintf "unknown edit kind %s (expected one of %s)"
                      p
                      (String.concat ", "
                         (List.map Slice_fuzz.Gen_tj.edit_kind_to_string
                            Slice_fuzz.Gen_tj.all_edit_kinds)))))
        in
        go [] parts
    in
    let print ppf ks =
      Format.pp_print_string ppf
        (String.concat ","
           (List.map Slice_fuzz.Gen_tj.edit_kind_to_string ks))
    in
    Arg.conv (parse, print)
  in
  let edit_kinds_arg =
    Arg.(
      value
      & opt (some edit_kinds_conv) None
      & info [ "edit-kinds" ] ~docv:"KINDS"
          ~doc:
            "Restrict --edits to a comma-separated subset of edit kinds \
             (tweak, replace, delete, insert, swap-body, add-aux, \
             remove-aux, add-override, remove-override) — a scalpel for \
             reproducing one tier's failures.  Implies no tier-coverage \
             assertion.  Requires --edits.")
  in
  let run seed count max_size corpus fault edits edit_kinds tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        if count <= 0 then cli_error "--count expects K > 0";
        if max_size <= 0 then cli_error "--max-size expects S > 0";
        if edit_kinds <> None && not edits then
          cli_error "--edit-kinds requires --edits";
        let corpus_dir =
          match corpus with
          | Some d -> Some d
          | None ->
            (* default only when the conventional location exists: the
               tool must not scatter test/corpus directories around
               arbitrary working directories *)
            if Sys.file_exists "test" && Sys.is_directory "test" then
              Some (Filename.concat "test" "corpus")
            else None
        in
        let report =
          Slice_fuzz.Fuzz.run ~fault ?corpus_dir ~edits ?edit_kinds ~seed
            ~count ~max_size ()
        in
        List.iter
          (fun f ->
            Printf.printf
              "fuzz: violation index=%d oracle=%s (shrunk to %d statements)%s\n\
              \      %s\n"
              f.Slice_fuzz.Fuzz.fr_index f.Slice_fuzz.Fuzz.fr_oracle
              f.Slice_fuzz.Fuzz.fr_statements
              (match f.Slice_fuzz.Fuzz.fr_repro_path with
              | Some p -> Printf.sprintf " -> %s" p
              | None -> "")
              f.Slice_fuzz.Fuzz.fr_detail)
          report.Slice_fuzz.Fuzz.failures;
        print_endline (Slice_fuzz.Fuzz.summary_line report);
        emit_telemetry tel None;
        if report.Slice_fuzz.Fuzz.failures <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generate random TJ programs and run the \
          oracle battery (dynamic-slice soundness, static mode chain, \
          CSR/reference walk and bitset/reference points-to parity, \
          object-sensitivity containment, and with --edits the \
          incremental-vs-fresh equivalence chain) on each; violations are \
          shrunk and written as replayable JSON repros")
    Term.(
      const run $ seed_arg $ count_arg $ max_size_arg $ corpus_arg $ fault_arg
      $ edits_arg $ edit_kinds_arg $ telemetry_term)

(* ---- dot ---- *)

let dot_cmd =
  let out_arg =
    Arg.(
      value & opt string "sdg.dot"
      & info [ "o"; "output" ] ~docv:"PATH" ~doc:"Output path")
  in
  let run file out no_objsens tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        let a = load_analysis ~obj_sens:(not no_objsens) file in
        write_text out (Sdg.to_dot a.Engine.sdg);
        Printf.printf "wrote %s\n" out;
        emit_telemetry tel (Some (Engine.stats_of a)))
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the dependence graph in DOT format")
    Term.(const run $ file_arg $ out_arg $ objsens_arg $ telemetry_term)

(* ---- serve: the long-lived slice daemon ---- *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix domain socket at $(docv) (one connection at \
             a time) instead of stdin/stdout.  The socket file is created \
             on bind and removed on shutdown.")
  in
  let max_programs_arg =
    Arg.(
      value & opt int 8
      & info [ "max-programs" ] ~docv:"N"
          ~doc:
            "Keep at most $(docv) analyzed programs resident (LRU keyed \
             by source digest x sensitivity).  Evicting releases \
             the walk-scratch memory down to the largest surviving \
             program.")
  in
  let run socket max_programs tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        if max_programs < 1 then cli_error "--max-programs expects N >= 1";
        let st =
          Slice_serve.Serve.create_state { Slice_serve.Serve.max_programs }
        in
        (match socket with
        | None -> ignore (Slice_serve.Serve.serve_channels st stdin stdout)
        | Some path -> Slice_serve.Serve.serve_unix_socket st ~path);
        emit_telemetry tel None)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived slice daemon: line-delimited thinslice.serve/v1 JSON \
          requests (load/slice/forward/chop/expand/explain/report/stats/\
          shutdown) over stdin/stdout or a Unix socket, answering from an \
          LRU of resident analyses; every response carries cache and \
          per-phase wall telemetry, and result payloads byte-equal the \
          one-shot --json output")
    Term.(const run $ socket_arg $ max_programs_arg $ telemetry_term)

(* ---- watch: re-slice incrementally as the file changes ---- *)

let watch_cmd =
  let interval_arg =
    Arg.(
      value & opt int 200
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:"Polling interval in milliseconds")
  in
  let max_updates_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-updates" ] ~docv:"K"
          ~doc:
            "Exit (code 0) after applying $(docv) content changes; \
             default is to watch until killed.")
  in
  let run file line mode no_objsens interval max_updates tel =
    handle_errors (fun () ->
        setup_telemetry tel;
        if interval <= 0 then cli_error "--interval-ms expects MS > 0";
        let base = Filename.basename file in
        let emit kvs =
          print_endline (Slice_obs.Json.to_string (Slice_obs.Json.Obj kvs));
          flush stdout
        in
        let open Slice_obs.Json in
        let slice_event h extra t0 =
          (* The slice itself can become unanswerable mid-edit (the
             watched line may no longer hold a statement): that is an
             event, not a reason to stop watching. *)
          match
            Engine.run_query h (Engine.Q_slice { line; mode; forward = false })
          with
          | Engine.R_lines lines ->
            emit
              (extra
              @ [ ("wall_s", Float (Unix.gettimeofday () -. t0));
                  ("lines", List (Stdlib.List.map (fun l -> Int l) lines)) ])
          | _ -> ()
          | exception Engine.No_seed l ->
            emit
              (extra
              @ [ ("wall_s", Float (Unix.gettimeofday () -. t0));
                  ("error",
                   Str (Printf.sprintf "no statement found at line %d" l)) ])
        in
        let t0 = Unix.gettimeofday () in
        let src0 = read_file_exn file in
        let h = ref (Engine.load ~obj_sens:(not no_objsens) [ (base, src0) ]) in
        slice_event !h
          [ ("event", Str "load"); ("file", Str file); ("line", Int line);
            ("mode", Str (Slicer.mode_to_string mode)) ]
          t0;
        let prev_src = ref src0 in
        let prev_mtime = ref (Unix.stat file).Unix.st_mtime in
        let updates = ref 0 in
        let continue () =
          match max_updates with None -> true | Some k -> !updates < k
        in
        while continue () do
          Unix.sleepf (float_of_int interval /. 1000.);
          (* mtime is only the cheap trigger; the content digest decides
             (saves that rewrite identical bytes must not re-analyze) *)
          match (try Some (Unix.stat file).Unix.st_mtime with Unix.Unix_error _ -> None) with
          | None -> () (* transient: editors unlink/rename on save *)
          | Some mt when mt = !prev_mtime -> ()
          | Some mt ->
            prev_mtime := mt;
            let src = read_file_exn file in
            if not (String.equal src !prev_src) then begin
              let t0 = Unix.gettimeofday () in
              match Engine.update !h [ (base, src) ] with
              | exception Slice_front.Frontend.Error e ->
                (* a broken intermediate save: report, keep the old
                   handle, and wait for the next save *)
                emit
                  [ ("event", Str "error");
                    ("message", Str (Slice_front.Frontend.error_to_string e)) ]
              | h', report ->
                incr updates;
                prev_src := src;
                h := h';
                slice_event h'
                  [ ("event", Str "update");
                    ("path",
                     Str (Engine.update_path_to_string report.Engine.up_path));
                    ("relowered", Int report.Engine.up_relowered);
                    ("segments_refrozen", Int report.Engine.up_segments_refrozen);
                    ("segments_total", Int report.Engine.up_segments_total) ]
                  t0
            end
        done;
        emit_telemetry tel None)
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Watch a TJ file and re-slice incrementally on every change: \
          the file is polled by mtime, re-analyzed through the \
          delta-classifying Engine.update (body-only edits patch the \
          resident SDG instead of rebuilding), and one JSON event line \
          is printed per load/update with the incremental path taken \
          (noop/patched/resolved-incremental/rebuilt), \
          its delta statistics, and the fresh slice lines")
    Term.(
      const run $ file_arg $ line_arg $ mode_arg $ objsens_arg
      $ interval_arg $ max_updates_arg $ telemetry_term)

let () =
  let doc = "thin slicing for TJ programs (PLDI 2007 reproduction)" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "thinslice" ~doc)
          [ slice_cmd; batch_cmd; chop_cmd; expand_cmd; explain_cmd;
            report_cmd; casts_cmd; stats_cmd; run_cmd; fuzz_cmd; dot_cmd;
            serve_cmd; watch_cmd ]))
