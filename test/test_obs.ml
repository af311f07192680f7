(* Telemetry-layer tests: span nesting, counter monotonicity, JSON
   round-trips, and the thinslice --stats-json CLI contract. *)

open Slice_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- spans ---------------------------------------------------------- *)

let test_span_nesting () =
  reset ();
  set_enabled true;
  let r =
    span "outer" (fun () ->
        span "inner-a" (fun () -> ignore (Sys.opaque_identity 1));
        span "inner-b" (fun () -> ignore (Sys.opaque_identity 2));
        42)
  in
  check_int "span returns the body's value" 42 r;
  let s = snapshot () in
  check_int "one root span" 1 (List.length s.snap_spans);
  let outer = List.hd s.snap_spans in
  check_string "root name" "outer" outer.sp_name;
  check_int "two children" 2 (List.length outer.sp_children);
  Alcotest.(check (list string))
    "children in order" [ "inner-a"; "inner-b" ]
    (List.map (fun c -> c.sp_name) outer.sp_children);
  check_bool "outer wall >= child walls" true
    (outer.sp_wall
    >= List.fold_left (fun acc c -> acc +. c.sp_wall) 0. outer.sp_children
       -. 1e-9);
  List.iter
    (fun c -> check_bool "child wall >= 0" true (c.sp_wall >= 0.))
    outer.sp_children

let test_span_exception_safe () =
  reset ();
  set_enabled true;
  (try span "boom" (fun () -> failwith "expected") with Failure _ -> ());
  let s = snapshot () in
  check_int "span closed despite raise" 1 (List.length s.snap_spans);
  check_string "name" "boom" (List.hd s.snap_spans).sp_name;
  (* the stack is clean: a new span is a root, not a child of "boom" *)
  span "after" (fun () -> ());
  let s = snapshot () in
  check_int "two roots" 2 (List.length s.snap_spans)

let test_span_disabled () =
  reset ();
  set_enabled false;
  let r = span "invisible" (fun () -> 7) in
  set_enabled true;
  check_int "body still runs" 7 r;
  check_int "nothing recorded" 0 (List.length (snapshot ()).snap_spans)

(* reset_spans is the serve daemon's per-request rotation: completed
   spans go, counters and any still-open span survive. *)
let test_reset_spans () =
  reset ();
  set_enabled true;
  let c = counter "test.reset_spans" in
  bump c;
  span "done-1" (fun () -> ());
  span "done-2" (fun () -> ());
  check_int "two completed spans" 2 (List.length (snapshot ()).snap_spans);
  reset_spans ();
  check_int "completed spans dropped" 0
    (List.length (snapshot ()).snap_spans);
  check_int "counters survive" 1 (counter_value "test.reset_spans");
  (* rotating under an open span must not corrupt the stack: the open
     span still closes and lands as a root afterwards *)
  span "open" (fun () ->
      span "inner" (fun () -> ());
      reset_spans ());
  let roots = (snapshot ()).snap_spans in
  check_int "open span survives the rotation" 1 (List.length roots);
  check_string "and closes normally" "open" (List.hd roots).sp_name

let test_span_totals () =
  reset ();
  set_enabled true;
  span "phase" (fun () -> ());
  span "phase" (fun () -> ());
  let totals = span_totals (snapshot ()) in
  check_int "aggregated by name" 1 (List.length totals);
  check_string "name" "phase" (fst (List.hd totals))

(* --- counters ------------------------------------------------------- *)

let test_counter_monotonic () =
  reset ();
  let c = counter "test.monotonic" in
  let v () = counter_value "test.monotonic" in
  check_int "zero after reset" 0 (v ());
  bump c;
  bump c;
  bump c;
  check_int "three bumps" 3 (v ());
  let before = v () in
  add c 5;
  check_bool "monotonically increasing" true (v () > before);
  check_int "add" 8 (v ());
  (* interning: same name -> same handle *)
  let c' = counter "test.monotonic" in
  check_bool "interned" true (c == c');
  (* reset zeroes in place, handle stays live *)
  reset ();
  check_int "reset zeroes" 0 (v ());
  bump c;
  check_int "handle survives reset" 1 (v ())

let test_gauge_and_histogram () =
  reset ();
  let g = gauge "test.peak" in
  max_gauge g 3.;
  max_gauge g 1.;
  Alcotest.(check (float 1e-9)) "max kept" 3. (gauge_value "test.peak");
  let h = histogram "test.sizes" in
  observe h 10.;
  observe h 2.;
  observe h 4.;
  let count, sum, mn, mx = histogram_stats h in
  check_int "count" 3 count;
  Alcotest.(check (float 1e-9)) "sum" 16. sum;
  Alcotest.(check (float 1e-9)) "min" 2. mn;
  Alcotest.(check (float 1e-9)) "max" 10. mx

(* --- histogram quantile math ---------------------------------------- *)

(* Pin the bucket geometry: 4 sub-buckets per octave over 2^-30..2^30
   plus underflow/overflow, representative = bucket upper bound, so any
   estimate is within a factor of 2^(1/4) of the exact value. *)
let test_bucket_geometry () =
  check_int "bucket count" 242 hist_buckets;
  check_int "zero underflows" 0 (bucket_of_value 0.);
  check_int "negatives underflow" 0 (bucket_of_value (-3.));
  check_int "2^-30 underflows" 0 (bucket_of_value (ldexp 1.0 (-30)));
  Alcotest.(check (float 0.)) "underflow representative" 0. (bucket_value 0);
  check_int "huge values overflow" (hist_buckets - 1) (bucket_of_value 1e12);
  (* round-trip bound: v <= representative <= v * 2^(1/4) *)
  let q = Float.exp2 0.25 in
  List.iter
    (fun v ->
      let r = bucket_value (bucket_of_value v) in
      check_bool
        (Printf.sprintf "representative of %g bounds it (got %g)" v r)
        true
        (r >= v -. 1e-12 && r <= (v *. q) +. 1e-9))
    [ 1e-6; 0.003; 0.5; 1.0; 1.5; 2.0; 42.; 1000.; 1e6 ];
  (* monotone, and representative of bucket i is the lower bound of i+1 *)
  for i = 1 to hist_buckets - 2 do
    check_bool "bucket representatives strictly increase" true
      (bucket_value i < bucket_value (i + 1))
  done

let test_percentile_pinned () =
  (* direct percentile math on a hand-built bucket array *)
  let buckets = Array.make hist_buckets 0 in
  let b1 = bucket_of_value 1.0 and b1000 = bucket_of_value 1000. in
  buckets.(b1) <- 8;
  buckets.(b1000) <- 2;
  let p q = percentile ~count:10 ~buckets q in
  Alcotest.(check (float 1e-9)) "p50 lands in the 1.0 bucket"
    (bucket_value b1) (p 0.50);
  Alcotest.(check (float 1e-9)) "p80 still in the 1.0 bucket"
    (bucket_value b1) (p 0.80);
  Alcotest.(check (float 1e-9)) "p95 reaches the 1000 bucket"
    (bucket_value b1000) (p 0.95);
  Alcotest.(check (float 1e-9)) "p0 clamps to the first occupied bucket"
    (bucket_value b1) (p 0.);
  Alcotest.(check (float 1e-9)) "empty histogram reports 0" 0.
    (percentile ~count:0 ~buckets:(Array.make hist_buckets 0) 0.5);
  (* the 19% accuracy contract on a live histogram *)
  reset ();
  let h = histogram "quant.test" in
  for _ = 1 to 9 do observe h 7. done;
  observe h 512.;
  let est = histogram_percentile h 0.5 in
  check_bool "p50 estimate within one bucket of the exact median" true
    (est >= 7. -. 1e-9 && est <= 7. *. Float.exp2 0.25 +. 1e-9);
  (* percentiles survive the snapshot *)
  let s = snapshot () in
  Alcotest.(check (float 1e-9)) "snapshot percentile agrees" est
    (snapshot_percentile s "quant.test" 0.5);
  check_bool "snapshot carries bucket arrays" true
    (List.mem_assoc "quant.test" s.snap_hist_buckets)

(* --- span args ------------------------------------------------------- *)

let test_span_args () =
  reset ();
  set_enabled true;
  let r =
    span ~args:[ ("mode", "thin") ] "q" (fun () ->
        add_span_arg "slice_lines" "12";
        5)
  in
  check_int "body value" 5 r;
  let s = snapshot () in
  let sp = List.hd s.snap_spans in
  Alcotest.(check (list (pair string string)))
    "open args then appended args, in order"
    [ ("mode", "thin"); ("slice_lines", "12") ]
    sp.sp_args;
  (* args ride along in the span JSON *)
  let j = snapshot_to_json s in
  (match Json.member "spans" j with
  | Some (Json.List (Json.Obj kvs :: _)) -> (
    match List.assoc_opt "args" kvs with
    | Some (Json.Obj akvs) ->
      check_bool "args serialized" true
        (List.assoc_opt "mode" akvs = Some (Json.Str "thin"))
    | _ -> Alcotest.fail "span JSON has no args object")
  | _ -> Alcotest.fail "spans missing");
  (* add_span_arg outside any open span is a no-op, not an error *)
  add_span_arg "orphan" "1";
  (* spans without args omit the key *)
  reset ();
  span "bare" (fun () -> ());
  match Json.member "spans" (snapshot_to_json (snapshot ())) with
  | Some (Json.List (Json.Obj kvs :: _)) ->
    check_bool "no args key on arg-less spans" false (List.mem_assoc "args" kvs)
  | _ -> Alcotest.fail "spans missing"

(* --- JSON ----------------------------------------------------------- *)

let rec json_equal (a : Json.t) (b : Json.t) : bool =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y -> abs_float (x -. y) < 1e-9
  | Json.Str x, Json.Str y -> String.equal x y
  | Json.List x, Json.List y ->
    List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Obj x, Json.Obj y ->
    List.length x = List.length y
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
         x y
  | _ -> false

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [ ("name", Json.Str "weird \"quoted\"\n\ttext");
        ("count", Json.Int 42);
        ("negative", Json.Int (-17));
        ("pi", Json.Float 3.25);
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("items", Json.List [ Json.Int 1; Json.Str "two"; Json.Bool false ]);
        ("nested", Json.Obj [ ("empty_list", Json.List []);
                              ("empty_obj", Json.Obj []) ]) ]
  in
  match Json.of_string (Json.to_string doc) with
  | Error e -> Alcotest.failf "reparse failed: %s" e
  | Ok doc' -> check_bool "round-trip preserves structure" true (json_equal doc doc')

(* [Int] is written as digits straight into the buffer: the bytes must
   be those of [string_of_int], at the edges of the int range too. *)
let test_json_ints () =
  List.iter
    (fun i ->
      check_string (string_of_int i) (string_of_int i)
        (Json.to_string (Json.Int i)))
    [ 0; -1; 1; 9; 10; -9; -10; 99; -100; 1234567890; min_int; max_int;
      min_int + 1; max_int - 1 ];
  check_string "ints in a list" "[0,-1,42]"
    (Json.to_string (Json.List [ Json.Int 0; Json.Int (-1); Json.Int 42 ]))

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Json.of_string bad with
      | Ok _ -> Alcotest.failf "expected parse failure for %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "{} junk" ]

let test_snapshot_json_shape () =
  reset ();
  set_enabled true;
  let c = counter "shape.counter" in
  bump c;
  span "shape.span" (fun () -> ());
  let j = snapshot_to_json (snapshot ()) in
  (* round-trips through text *)
  let j =
    match Json.of_string (Json.to_string j) with
    | Ok v -> v
    | Error e -> Alcotest.failf "snapshot JSON unparseable: %s" e
  in
  let mem k = Json.member k j <> None in
  List.iter
    (fun k -> check_bool ("has key " ^ k) true (mem k))
    [ "counters"; "gauges"; "histograms"; "spans"; "phase_wall_s" ];
  (match Json.member "counters" j with
  | Some (Json.Obj kvs) ->
    check_bool "counter serialized" true
      (List.assoc_opt "shape.counter" kvs = Some (Json.Int 1))
  | _ -> Alcotest.fail "counters is not an object");
  match Json.member "spans" j with
  | Some (Json.List (Json.Obj kvs :: _)) ->
    List.iter
      (fun k -> check_bool ("span has " ^ k) true (List.mem_assoc k kvs))
      [ "name"; "start_s"; "wall_s"; "minor_words"; "major_words"; "children" ]
  | _ -> Alcotest.fail "spans is not a non-empty list of objects"

(* A block above [Max_young_wosize] is allocated on the major heap
   directly: the span's [major_words] must see it although its
   [minor_words] barely moves, in the record, the JSON span tree and the
   Chrome-trace args alike. *)
let test_span_major_words () =
  reset ();
  set_enabled true;
  let words = 100_000 in
  span "big" (fun () -> ignore (Sys.opaque_identity (Array.make words 0)));
  let sp = List.hd (snapshot ()).snap_spans in
  check_bool "major words count the direct major allocation" true
    (sp.sp_major_words >= float_of_int words);
  check_bool "minor words do not" true
    (sp.sp_minor_words < float_of_int (words / 10));
  let major_of kvs =
    match List.assoc_opt "major_words" kvs with
    | Some (Json.Float f) -> f
    | Some (Json.Int i) -> float_of_int i
    | _ -> Alcotest.fail "no numeric major_words"
  in
  (match snapshot_to_json (snapshot ()) |> Json.member "spans" with
  | Some (Json.List [ Json.Obj kvs ]) ->
    check_bool "json major_words" true (major_of kvs = sp.sp_major_words)
  | _ -> Alcotest.fail "spans is not a one-span list");
  match chrome_trace (snapshot ()) |> Json.member "traceEvents" with
  | Some (Json.List [ Json.Obj ev ]) -> (
    match List.assoc_opt "args" ev with
    | Some (Json.Obj args) ->
      check_bool "chrome-trace major_words" true
        (major_of args = sp.sp_major_words);
      check_bool "chrome-trace minor_words kept" true
        (List.mem_assoc "minor_words" args)
    | _ -> Alcotest.fail "trace event without args")
  | _ -> Alcotest.fail "traceEvents is not a one-event list"

(* --- scoped (per-task) telemetry isolation -------------------------- *)

(* The counter-accumulation regression behind BENCH_results: counters are
   process-global, so before [scoped] the N-th task of a bench run
   reported the cumulative counters of tasks 1..N.  Two runs of the SAME
   measured task must now report IDENTICAL counter deltas. *)
let test_scoped_isolates_identical_tasks () =
  reset ();
  set_enabled true;
  let task () =
    let a =
      Slice_core.Engine.of_source ~file:"iso.tj"
        "void main(String[] args) {\n\
        \  String s = args[0];\n\
        \  String t = s;\n\
        \  print(t);\n\
         }\n"
    in
    Slice_core.Engine.slice_from_line a ~line:4 Slice_core.Slicer.Thin
  in
  let r1, snap1 = scoped task in
  let r2, snap2 = scoped task in
  check_bool "same slice" true (r1 = r2);
  Alcotest.(check (list (pair string int)))
    "identical counter deltas" snap1.snap_counters snap2.snap_counters;
  (* the regression shape: without isolation the second run's cumulative
     counters would be strictly larger *)
  check_bool "non-trivial task" true
    (List.exists (fun (_, v) -> v > 0) snap1.snap_counters)

let test_scoped_merges_back () =
  reset ();
  set_enabled true;
  let c = counter "scoped.counter" in
  let g = gauge "scoped.peak" in
  add c 3;
  max_gauge g 5.;
  span "outside-before" (fun () -> ());
  let (), inner =
    scoped (fun () ->
        add c 4;
        max_gauge g 2.;
        span "inside" (fun () -> ()))
  in
  (* the inner snapshot sees only what the scope recorded *)
  check_int "inner counter is the delta" 4
    (List.assoc "scoped.counter" inner.snap_counters);
  Alcotest.(check (float 1e-9))
    "inner gauge is the scope's own peak" 2.
    (List.assoc "scoped.peak" inner.snap_gauges);
  Alcotest.(check (list string))
    "inner spans only" [ "inside" ]
    (List.map (fun s -> s.sp_name) inner.snap_spans);
  (* ...and the cumulative registry is restored+merged *)
  check_int "counters summed back" 7 (counter_value "scoped.counter");
  Alcotest.(check (float 1e-9)) "gauge keeps the overall max" 5.
    (gauge_value "scoped.peak");
  let outer = snapshot () in
  Alcotest.(check (list string))
    "spans appended in order" [ "outside-before"; "inside" ]
    (List.map (fun s -> s.sp_name) outer.snap_spans)

let test_scoped_exception_safe () =
  reset ();
  set_enabled true;
  let c = counter "scoped.exn" in
  add c 2;
  (try
     ignore
       (scoped (fun () ->
            add c 10;
            failwith "expected"))
   with Failure _ -> ());
  check_int "merged back despite raise" 12 (counter_value "scoped.exn");
  (* registry still usable *)
  let _, snap = scoped (fun () -> add c 1) in
  check_int "clean scope after exception" 1
    (List.assoc "scoped.exn" snap.snap_counters)

(* --- batch spans are distinct phases -------------------------------- *)

(* Regression: [forward_slice_batch] used to record under
   "slicer.slice_batch", folding forward-batch walks into the
   backward-batch phase total.  The two directions must be separate rows
   of the per-phase wall-time table. *)
let test_batch_span_names_distinct () =
  reset ();
  set_enabled true;
  let a =
    Slice_core.Engine.of_source ~file:"span_demo.tj"
      "void main(String[] args) {\n\
      \  int x = 1 + 2;\n\
      \  print(itoa(x));\n\
       }\n"
  in
  let seeds = Slice_core.Engine.seeds_at_line_exn a 3 in
  let _, snap =
    scoped (fun () ->
        ignore
          (Slice_core.Slicer.slice_batch a.Slice_core.Engine.sdg
             ~seeds_list:[ seeds ] Slice_core.Slicer.Thin);
        ignore
          (Slice_core.Slicer.forward_slice_batch a.Slice_core.Engine.sdg
             ~seeds_list:[ seeds ] Slice_core.Slicer.Thin))
  in
  let names = List.map fst (span_totals snap) in
  check_bool "backward batch span present" true
    (List.mem "slicer.slice_batch" names);
  check_bool "forward batch span present" true
    (List.mem "slicer.forward_batch" names);
  (* span_totals aggregates by name: two distinct rows, not one *)
  check_int "two distinct batch phases" 2
    (List.length
       (List.filter
          (fun n -> n = "slicer.slice_batch" || n = "slicer.forward_batch")
          names))

(* --- the thinslice --stats-json CLI contract ------------------------ *)

let demo_program =
  "void main(String[] args) {\n\
  \  String s = args[0];\n\
  \  print(s);\n\
   }\n"

let exe_path = Filename.concat (Filename.concat ".." "bin") "thinslice.exe"

let test_cli_stats_json () =
  if not (Sys.file_exists exe_path) then
    Alcotest.skip ()
  else begin
    let src_file = Filename.temp_file "obs_cli" ".tj" in
    let json_file = Filename.temp_file "obs_cli" ".json" in
    let oc = open_out src_file in
    output_string oc demo_program;
    close_out oc;
    let cmd =
      Printf.sprintf "%s slice %s --line 3 --quiet --stats-json %s > %s 2>&1"
        (Filename.quote exe_path) (Filename.quote src_file)
        (Filename.quote json_file)
        (Filename.quote Filename.null)
    in
    let rc = Sys.command cmd in
    check_int "thinslice slice --stats-json exits 0" 0 rc;
    let ic = open_in_bin json_file in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove src_file;
    Sys.remove json_file;
    check_bool "artifact non-empty" true (String.length text > 0);
    let j =
      match Json.of_string text with
      | Ok v -> v
      | Error e -> Alcotest.failf "--stats-json output unparseable: %s" e
    in
    check_bool "schema tag" true
      (Json.member "schema" j
      = Some (Json.Str Slice_core.Engine.stats_schema_version));
    List.iter
      (fun k ->
        check_bool ("documented key " ^ k) true (Json.member k j <> None))
      [ "schema"; "program"; "sdg.edges_by_kind"; "telemetry" ];
    (match Json.member "program" j with
    | Some p ->
      List.iter
        (fun k ->
          check_bool ("program key " ^ k) true (Json.member k p <> None))
        [ "classes"; "methods"; "ir_statements"; "call_graph_nodes";
          "sdg_statements"; "sdg_nodes"; "abstract_objects" ]
    | None -> Alcotest.fail "no program object");
    match Json.member "telemetry" j with
    | Some t -> (
      (match Json.member "counters" t with
      | Some (Json.Obj kvs) ->
        List.iter
          (fun k ->
            match List.assoc_opt k kvs with
            | Some (Json.Int v) ->
              check_bool (k ^ " nonzero") true (v > 0)
            | _ -> Alcotest.failf "missing counter %s" k)
          [ "pta.worklist_iterations"; "sdg.edges"; "slicer.nodes_visited" ]
      | _ -> Alcotest.fail "telemetry.counters is not an object");
      (* every span of the tree carries both allocation fields *)
      let rec check_span sp =
        List.iter
          (fun k ->
            check_bool ("span key " ^ k) true (Json.member k sp <> None))
          [ "minor_words"; "major_words" ];
        match Json.member "children" sp with
        | Some (Json.List cs) -> List.iter check_span cs
        | _ -> Alcotest.fail "span without children list"
      in
      match Json.member "spans" t with
      | Some (Json.List (_ :: _ as spans)) -> List.iter check_span spans
      | _ -> Alcotest.fail "telemetry.spans is not a non-empty list")
    | None -> Alcotest.fail "no telemetry object"
  end

(* --- allocated_words counts the live minor heap ------------------- *)

(* A 10,000-pair list is 10,000 cons cells of 3 words plus 10,000 pairs
   of 3 words, all on the minor heap: 60,000 words whether or not a
   minor collection runs inside the window. *)
let test_allocated_words_minor () =
  Gc.minor ();
  let w0 = allocated_words () in
  let l = List.init 10_000 (fun i -> (i, i)) in
  let words = allocated_words () -. w0 in
  ignore (Sys.opaque_identity l);
  if words < 60_000. then
    Alcotest.failf "allocated_words read %.0f words for a 10,000-pair list"
      words

(* A traced update is explained by its spans: over an edit/revert
   sequence on a 5k-statement program, every update takes [path], the
   [under] spans sit directly under [engine.update], the [phases] span
   breaks down into its phases, and the children of [engine.update]
   cover at least 90% of its wall time.  The median keeps one slow
   outlier from deciding. *)
let check_update_coverage ~(edit : stmts:int -> string * string)
    ~(path : string) ~(phases : string * string list) ~(under : string list)
    =
  set_enabled true;
  let src, edited = edit ~stmts:5_000 in
  let f = "scaled.tj" in
  let h = ref (Slice_core.Engine.load [ (f, src) ]) in
  let shares =
    List.init 7 (fun i ->
        let s = if i mod 2 = 0 then edited else src in
        let (h', rep), snap =
          scoped (fun () -> Slice_core.Engine.update !h [ (f, s) ])
        in
        h := h';
        check_string path path
          (Slice_core.Engine.update_path_to_string
             rep.Slice_core.Engine.up_path);
        match snap.snap_spans with
        | [ u ] when u.sp_name = "engine.update" ->
          let name, want = phases in
          let sp = List.find (fun c -> c.sp_name = name) u.sp_children in
          Alcotest.(check (list string))
            (name ^ " phases") want
            (List.map (fun c -> c.sp_name) sp.sp_children);
          List.iter
            (fun name ->
              check_bool (name ^ " under engine.update") true
                (List.exists (fun c -> c.sp_name = name) u.sp_children))
            under;
          List.fold_left (fun a c -> a +. c.sp_wall) 0. u.sp_children
          /. u.sp_wall
        | _ -> Alcotest.fail "one engine.update span")
  in
  let median = List.nth (List.sort compare shares) 3 in
  if median < 0.9 then
    Alcotest.failf "children cover %.1f%% of engine.update (want >= 90%%)"
      (100. *. median)

(* A patched update: the delta's diff, resolve and re-lower (the
   mini-unit frontend inside), the points-to re-key and the SDG patch,
   which breaks down into its phases. *)
let test_patched_update_coverage () =
  check_update_coverage ~edit:Helpers.scaled_tweak ~path:"patched"
    ~phases:
      ( "sdg.patch",
        [ "sdg.patch.disconnect"; "sdg.patch.intra"; "sdg.patch.heap";
          "sdg.patch.control"; "sdg.patch.commit"; "sdg.patch.locs" ] )
    ~under:[ "delta.diff"; "delta.resolve"; "delta.relower"; "pta.rekey" ]

(* A resolved-incremental update: a class swap moves one method's
   constraint summary, so after the re-lower the points-to result is
   solved afresh ([pta], its one phase [pta.solve]) and the arena and
   SDG are built again over it. *)
let test_resolved_update_coverage () =
  check_update_coverage ~edit:Helpers.scaled_swap ~path:"resolved-incremental"
    ~phases:("pta", [ "pta.solve" ])
    ~under:
      [ "delta.diff"; "delta.resolve"; "delta.relower"; "ir.arena";
        "sdg.build" ]

let suite =
  [ Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "span disabled passthrough" `Quick test_span_disabled;
    Alcotest.test_case "span totals aggregate" `Quick test_span_totals;
    Alcotest.test_case "reset_spans keeps counters and open spans" `Quick
      test_reset_spans;
    Alcotest.test_case "counter monotonicity" `Quick test_counter_monotonic;
    Alcotest.test_case "gauge and histogram" `Quick test_gauge_and_histogram;
    Alcotest.test_case "histogram bucket geometry" `Quick test_bucket_geometry;
    Alcotest.test_case "percentile math pinned" `Quick test_percentile_pinned;
    Alcotest.test_case "span args" `Quick test_span_args;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json ints are string_of_int" `Quick test_json_ints;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "snapshot json shape" `Quick test_snapshot_json_shape;
    Alcotest.test_case "span major words" `Quick test_span_major_words;
    Alcotest.test_case "scoped isolates identical tasks" `Quick
      test_scoped_isolates_identical_tasks;
    Alcotest.test_case "scoped merges back" `Quick test_scoped_merges_back;
    Alcotest.test_case "scoped exception safety" `Quick
      test_scoped_exception_safe;
    Alcotest.test_case "batch span names distinct" `Quick
      test_batch_span_names_distinct;
    Alcotest.test_case "thinslice --stats-json contract" `Quick
      test_cli_stats_json;
    Alcotest.test_case "allocated_words counts the minor heap" `Quick
      test_allocated_words_minor;
    Alcotest.test_case "patched update spans cover engine.update" `Quick
      test_patched_update_coverage;
    Alcotest.test_case "resolved update spans cover engine.update" `Quick
      test_resolved_update_coverage ]
