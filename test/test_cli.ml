(* Golden CLI tests: hostile inputs must produce clean one-line errors
   and documented exit codes — never an OCaml backtrace.  The contract:

   exit 0   success
   exit 1   usage / load errors ("thinslice: ..." on stderr), fuzz runs
            that found violations, and explain's non-member answer
   exit 2   the interpreted program itself failed (run subcommand), and
            hard errors under explain — whose exit 1 means "not in the
            slice", so its load/seed failures must be distinguishable *)

let exe_path = Filename.concat (Filename.concat ".." "bin") "thinslice.exe"

(* Plain substring search; the test tree does not depend on Str. *)
let contains ~(needle : string) (hay : string) : bool =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Run the CLI, capturing (exit code, stdout, stderr). *)
let run_cli (args : string) : int * string * string =
  let out_f = Filename.temp_file "cli_out" ".txt" in
  let err_f = Filename.temp_file "cli_err" ".txt" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> %s" (Filename.quote exe_path) args
      (Filename.quote out_f) (Filename.quote err_f)
  in
  let rc = Sys.command cmd in
  let slurp f =
    let ic = open_in_bin f in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove f;
    s
  in
  (rc, slurp out_f, slurp err_f)

let with_tj src f =
  let path = Filename.temp_file "cli_prog" ".tj" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Whatever else happens, no raw exception may escape to the user. *)
let check_clean what err =
  List.iter
    (fun marker ->
      if contains ~needle:marker err then
        Alcotest.failf "%s: raw exception leaked to stderr: %s" what err)
    [ "Fatal error"; "Raised at"; "Called from" ]

let skip_if_missing () = if not (Sys.file_exists exe_path) then Alcotest.skip ()

let test_malformed_program () =
  skip_if_missing ();
  with_tj "void main(String[] args) { int x = ; }" (fun path ->
      let rc, _, err =
        run_cli (Printf.sprintf "slice %s --line 1" (Filename.quote path))
      in
      Alcotest.(check int) "exit 1" 1 rc;
      check_clean "malformed program" err;
      Alcotest.(check bool) "file:line diagnostic" true
        (contains ~needle:"parse error" err))

let test_missing_file () =
  skip_if_missing ();
  let rc, _, err = run_cli "slice /nonexistent/no.tj --line 1" in
  Alcotest.(check int) "exit 1" 1 rc;
  check_clean "missing file" err

let test_bad_input_spec () =
  skip_if_missing ();
  with_tj "void main(String[] args) { print(\"k\"); }" (fun path ->
      let rc, _, err =
        run_cli
          (Printf.sprintf "run %s --input nodelimiter" (Filename.quote path))
      in
      Alcotest.(check int) "exit 1" 1 rc;
      check_clean "bad --input" err;
      Alcotest.(check bool) "explains the expected shape" true
        (contains ~needle:"NAME=PATH" err))

let test_trace_events_nonpositive () =
  skip_if_missing ();
  with_tj "void main(String[] args) { print(\"k\"); }" (fun path ->
      let rc, _, err =
        run_cli (Printf.sprintf "run %s --trace-events 0" (Filename.quote path))
      in
      Alcotest.(check int) "exit 1" 1 rc;
      check_clean "bad --trace-events" err)

let test_trace_overflow_clean () =
  skip_if_missing ();
  let src =
    "void main(String[] args) {\n\
    \  int i = 0;\n\
    \  while (i < 1000) { i = i + 1; }\n\
    \  print(itoa(i));\n\
     }\n"
  in
  with_tj src (fun path ->
      let rc, out, err =
        run_cli (Printf.sprintf "run %s --trace-events 5" (Filename.quote path))
      in
      Alcotest.(check int) "exit 2 like other interpreter failures" 2 rc;
      check_clean "trace overflow" err;
      Alcotest.(check bool) "names the limit" true
        (contains ~needle:"trace event limit" out))

(* --- explain / report ----------------------------------------------- *)

let explain_demo =
  "void main(String[] args) {\n\
  \  String s = args[0];\n\
  \  String t = s + \"!\";\n\
  \  if (s.length() > 0) {\n\
  \    print(t);\n\
  \  }\n\
   }\n"

let test_explain_member () =
  skip_if_missing ();
  with_tj explain_demo (fun path ->
      let rc, out, err =
        run_cli (Printf.sprintf "explain %s 2 --seed 5" (Filename.quote path))
      in
      Alcotest.(check int) "exit 0" 0 rc;
      check_clean "explain member" err;
      Alcotest.(check bool) "path shows the seed step" true
        (contains ~needle:"seed" out);
      (* JSON variant carries the schema tag *)
      let rc, out, err =
        run_cli
          (Printf.sprintf "explain %s 2 --seed 5 --json" (Filename.quote path))
      in
      Alcotest.(check int) "json exit 0" 0 rc;
      check_clean "explain --json" err;
      Alcotest.(check bool) "schema tag" true
        (contains ~needle:"thinslice.explain/v1" out))

let test_explain_not_in_slice () =
  skip_if_missing ();
  with_tj explain_demo (fun path ->
      (* the if-guard (line 4) is outside the THIN slice of print(t) *)
      let rc, _, err =
        run_cli
          (Printf.sprintf "explain %s 4 --seed 5 --mode thin"
             (Filename.quote path))
      in
      Alcotest.(check int) "exit 1" 1 rc;
      check_clean "explain non-member" err;
      Alcotest.(check bool) "says it is not in the slice" true
        (contains ~needle:"not in the" err))

(* explain reserves exit 1 for "not in the slice"; every hard error —
   unloadable file, malformed program, no statement at the seed — must
   exit 2 so scripts can tell the two apart. *)
let test_explain_hard_errors_exit2 () =
  skip_if_missing ();
  let rc, _, err = run_cli "explain /nonexistent/no.tj 2 --seed 5" in
  Alcotest.(check int) "missing file: exit 2" 2 rc;
  check_clean "explain missing file" err;
  with_tj "void main(String[] args) { int x = ; }" (fun path ->
      let rc, _, err =
        run_cli (Printf.sprintf "explain %s 1 --seed 1" (Filename.quote path))
      in
      Alcotest.(check int) "malformed program: exit 2" 2 rc;
      check_clean "explain malformed program" err);
  with_tj explain_demo (fun path ->
      let rc, _, err =
        run_cli
          (Printf.sprintf "explain %s 2 --seed 999" (Filename.quote path))
      in
      Alcotest.(check int) "no statement at seed line: exit 2" 2 rc;
      check_clean "explain bad seed line" err;
      Alcotest.(check bool) "names the line" true
        (contains ~needle:"no statement" err))

let test_explain_missing_seed () =
  skip_if_missing ();
  with_tj explain_demo (fun path ->
      let rc, _, err =
        run_cli (Printf.sprintf "explain %s 2" (Filename.quote path))
      in
      Alcotest.(check int) "cmdliner error without --seed" 124 rc;
      check_clean "explain without --seed" err)

let test_report_layers_cli () =
  skip_if_missing ();
  with_tj explain_demo (fun path ->
      let rc, out, err =
        run_cli
          (Printf.sprintf "report %s --line 5 --mode full"
             (Filename.quote path))
      in
      Alcotest.(check int) "exit 0" 0 rc;
      check_clean "report" err;
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("mentions " ^ needle) true
            (contains ~needle out))
        [ "producer"; "control-explainer" ];
      let rc, out, err =
        run_cli
          (Printf.sprintf "report %s --line 5 --mode full --json"
             (Filename.quote path))
      in
      Alcotest.(check int) "json exit 0" 0 rc;
      check_clean "report --json" err;
      Alcotest.(check bool) "schema tag" true
        (contains ~needle:"thinslice.explain/v1" out))

(* --- --jobs ------------------------------------------------------------ *)

(* A removed option is a cmdliner usage error that names it: exit 124,
   nothing on stdout. *)
let check_option_rejected ~opt args =
  let rc, out, err = run_cli (args ^ " < /dev/null") in
  Alcotest.(check int) (args ^ ": cmdliner error") 124 rc;
  Alcotest.(check string) (args ^ ": no output") "" out;
  check_clean args err;
  Alcotest.(check bool) (args ^ ": names the option") true
    (contains ~needle:opt err)

(* Every subcommand runs on one domain: none has a --jobs option. *)
let check_jobs_rejected = check_option_rejected ~opt:"--jobs"

(* batch used to shard across domains and refuse --jobs 0 itself; now the
   option is unknown and even --jobs 0 never reaches the slicer. *)
let test_batch_jobs_rejected () =
  skip_if_missing ();
  with_tj explain_demo (fun path ->
      let file = Filename.quote path in
      List.iter
        (fun n ->
          check_jobs_rejected
            (Printf.sprintf "batch %s -l 3 --jobs %d" file n))
        [ 0; 2 ])

let test_no_jobs_option () =
  skip_if_missing ();
  with_tj explain_demo (fun path ->
      let file = Filename.quote path in
      List.iter
        (fun args -> check_jobs_rejected (args ^ " --jobs 2"))
        [ Printf.sprintf "explain %s 2 --seed 5" file;
          Printf.sprintf "report %s --line 5" file;
          "serve" ])

(* There is one points-to solver: no subcommand has a --pta option. *)
let test_no_pta_option () =
  skip_if_missing ();
  with_tj explain_demo (fun path ->
      let file = Filename.quote path in
      List.iter
        (fun args ->
          check_option_rejected ~opt:"--pta" (args ^ " --pta bitset"))
        [ Printf.sprintf "slice %s -l 5" file;
          Printf.sprintf "batch %s -l 5" file;
          Printf.sprintf "chop %s -l 2 --to 5" file;
          Printf.sprintf "expand %s -l 5" file;
          Printf.sprintf "explain %s 2 --seed 5" file;
          Printf.sprintf "report %s --line 5" file;
          Printf.sprintf "stats %s" file;
          Printf.sprintf "watch %s -l 5" file ])

let test_fuzz_bad_count () =
  skip_if_missing ();
  let rc, _, err = run_cli "fuzz --count 0" in
  Alcotest.(check int) "exit 1" 1 rc;
  check_clean "fuzz --count 0" err

let test_fuzz_unknown_fault () =
  skip_if_missing ();
  let rc, _, err = run_cli "fuzz --fault no-such-fault --count 1" in
  Alcotest.(check int) "cmdliner flag error" 124 rc;
  check_clean "unknown fault" err

let test_fuzz_smoke_summary () =
  skip_if_missing ();
  (* tiny smoke: the summary line CI greps must be present and clean *)
  let rc, out, err = run_cli "fuzz --seed 7 --count 3 --max-size 12" in
  Alcotest.(check int) "exit 0" 0 rc;
  check_clean "fuzz smoke" err;
  Alcotest.(check bool) "summary line" true
    (contains
       ~needle:"fuzz: seed=7 count=3 max-size=12 fault=none violations=0" out)

let suite =
  [ Alcotest.test_case "malformed program: clean exit 1" `Quick
      test_malformed_program;
    Alcotest.test_case "missing file: clean exit 1" `Quick test_missing_file;
    Alcotest.test_case "run --input without '=': clean exit 1" `Quick
      test_bad_input_spec;
    Alcotest.test_case "run --trace-events 0: clean exit 1" `Quick
      test_trace_events_nonpositive;
    Alcotest.test_case "trace overflow: clean exit 2" `Quick
      test_trace_overflow_clean;
    Alcotest.test_case "explain: witness for a member line" `Quick
      test_explain_member;
    Alcotest.test_case "explain: non-member exits 1" `Quick
      test_explain_not_in_slice;
    Alcotest.test_case "explain: hard errors exit 2" `Quick
      test_explain_hard_errors_exit2;
    Alcotest.test_case "explain: --seed is required" `Quick
      test_explain_missing_seed;
    Alcotest.test_case "report: layers, pretty and JSON" `Quick
      test_report_layers_cli;
    Alcotest.test_case "batch --jobs: usage error" `Quick
      test_batch_jobs_rejected;
    Alcotest.test_case "--jobs on no other subcommand" `Quick
      test_no_jobs_option;
    Alcotest.test_case "--pta on no subcommand" `Quick test_no_pta_option;
    Alcotest.test_case "fuzz --count 0: clean exit 1" `Quick
      test_fuzz_bad_count;
    Alcotest.test_case "fuzz --fault unknown: cmdliner error" `Quick
      test_fuzz_unknown_fault;
    Alcotest.test_case "fuzz smoke prints the summary line" `Quick
      test_fuzz_smoke_summary ]
