(* Serve daemon tests: the JSON-RPC error contract (no request kills
   the loop), LRU cache behaviour (hit/miss, eviction, reload),
   long-lived-process hygiene (span rotation, scratch shrink on
   eviction), and serve-vs-CLI byte parity across both pointer-analysis
   solvers via a scripted subprocess. *)

open Slice_core
module Serve = Slice_serve.Serve
module Json = Slice_obs.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* --- demo programs -------------------------------------------------- *)

let tiny_src =
  "void main(String[] args) {\n\
  \  int x = 1 + 2;\n\
  \  int y = x * 3;\n\
  \  print(itoa(y));\n\
   }\n"

(* heap traffic: expand/explain/report have something to say *)
let box_src =
  "class Box {\n\
  \  String val;\n\
  \  Box() { this.val = \"\"; }\n\
  \  void set(String v) { this.val = v; }\n\
  \  String get() { return this.val; }\n\
   }\n\
   void main(String[] args) {\n\
  \  Box b = new Box();\n\
  \  String x = \"hello\";\n\
  \  String y = x + \"!\";\n\
  \  b.set(y);\n\
  \  String z = b.get();\n\
  \  if (z.length() > 0) {\n\
  \    print(z);\n\
  \  }\n\
   }\n"

let box_print_line = 14 (* print(z) *)
let box_def_line = 9 (* String x = "hello" *)

(* --- request / response helpers ------------------------------------- *)

let req ?(id = 1) mname params =
  Json.Obj
    [ ("id", Json.Int id); ("method", Json.Str mname);
      ("params", Json.Obj params) ]

let member_exn name (j : Json.t) : Json.t =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "response missing %S member: %s" name (Json.to_string j)

let error_code (resp : Json.t) : int option =
  match Json.member "error" resp with
  | Some e -> (
    match Json.member "code" e with Some (Json.Int c) -> Some c | _ -> None)
  | None -> None

let result_str (resp : Json.t) : string =
  Json.to_string (member_exn "result" resp)

let cache_of (resp : Json.t) : string =
  match Json.member "cache" (member_exn "telemetry" resp) with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "no cache telemetry: %s" (Json.to_string resp)

let phase_keys (resp : Json.t) : string list =
  match Json.member "phase_wall_s" (member_exn "telemetry" resp) with
  | Some (Json.Obj kvs) -> List.map fst kvs
  | _ -> []

let do_req st r =
  let o = Serve.handle_request st r in
  o.Serve.resp

let expect_error what st r code =
  let o = Serve.handle_request st r in
  check_bool (what ^ ": does not stop the loop") false o.Serve.stop;
  (match error_code o.Serve.resp with
  | Some c -> check_int (what ^ ": error code") code c
  | None ->
    Alcotest.failf "%s: expected error %d, got %s" what code
      (Json.to_string o.Serve.resp))

(* --- the error contract --------------------------------------------- *)

let test_error_contract () =
  let st = Serve.create_state Serve.default_config in
  (* malformed JSON: a -32700 response, not a crash or a dropped line *)
  (match Serve.handle_line st "{not json" with
  | Some o ->
    check_bool "parse error does not stop" false o.Serve.stop;
    check_int "parse error code" Serve.parse_error
      (Option.get (error_code o.Serve.resp))
  | None -> Alcotest.fail "malformed line produced no response");
  (* blank lines are ignored *)
  (match Serve.handle_line st "   " with
  | None -> ()
  | Some _ -> Alcotest.fail "blank line produced a response");
  (* non-object request *)
  expect_error "non-object request" st (Json.Int 42) Serve.invalid_request;
  (* missing / non-string method *)
  expect_error "missing method" st (Json.Obj [ ("id", Json.Int 1) ])
    Serve.invalid_request;
  expect_error "non-string method" st
    (Json.Obj [ ("method", Json.Int 3) ])
    Serve.invalid_request;
  (* unknown method *)
  expect_error "unknown method" st (req "frobnicate" []) Serve.method_not_found;
  (* missing required params *)
  expect_error "slice without line" st
    (req "slice" [ ("source", Json.Str tiny_src) ])
    Serve.invalid_params;
  expect_error "no program or source" st
    (req "slice" [ ("line", Json.Int 4) ])
    Serve.invalid_params;
  expect_error "bad mode" st
    (req "slice"
       [ ("source", Json.Str tiny_src); ("line", Json.Int 4);
         ("mode", Json.Str "psychic") ])
    Serve.invalid_params;
  expect_error "bad solver" st
    (req "slice"
       [ ("source", Json.Str tiny_src); ("line", Json.Int 4);
         ("solver", Json.Str "quantum") ])
    Serve.invalid_params;
  (* analysis/user errors: code 1, mirroring CLI exit 1 *)
  expect_error "unresident program key" st
    (req "slice" [ ("program", Json.Str "no-such-key"); ("line", Json.Int 4) ])
    1;
  expect_error "unparsable source" st
    (req "load" [ ("source", Json.Str "void main( {") ])
    1;
  expect_error "no statement at line" st
    (req "slice" [ ("source", Json.Str tiny_src); ("line", Json.Int 999) ])
    1;
  (* after all that abuse, the daemon still answers a good request *)
  let resp =
    do_req st (req "slice" [ ("source", Json.Str tiny_src); ("line", Json.Int 4) ])
  in
  check_bool "loop survives: valid slice has a result" true
    (Json.member "result" resp <> None);
  check_bool "slice result carries lines" true
    (Json.member "lines" (member_exn "result" resp) <> None);
  (* shutdown stops the loop and acknowledges *)
  let o = Serve.handle_request st (req "shutdown" []) in
  check_bool "shutdown stops" true o.Serve.stop;
  check_bool "shutdown acks" true (Json.member "result" o.Serve.resp <> None)

(* --- cache hit/miss: equal answers, no re-analysis ------------------- *)

let test_hit_miss_equality () =
  Slice_obs.reset ();
  Slice_obs.set_enabled true;
  let st = Serve.create_state Serve.default_config in
  let r =
    req "slice"
      [ ("source", Json.Str box_src); ("file", Json.Str "box.tj");
        ("line", Json.Int box_print_line) ]
  in
  let cold = do_req st r in
  let hot = do_req st r in
  check_string "first is a miss" "miss" (cache_of cold);
  check_string "second is a hit" "hit" (cache_of hot);
  check_string "hit result byte-equals miss result" (result_str cold)
    (result_str hot);
  (* the hot path must not re-run any analysis phase: its scoped span
     snapshot has no front/pta/sdg phases at all *)
  let analysis_phase k =
    List.exists
      (fun p -> String.length k >= String.length p && String.sub k 0 (String.length p) = p)
      [ "front"; "pta"; "sdg" ]
  in
  check_bool "cold query ran analysis phases" true
    (List.exists analysis_phase (phase_keys cold));
  check_bool "hot query ran zero analysis phases" false
    (List.exists analysis_phase (phase_keys hot));
  Slice_obs.set_enabled false

(* --- LRU eviction and reload ---------------------------------------- *)

let test_lru_eviction_reload () =
  let st = Serve.create_state { Serve.max_programs = 2 } in
  let load file src = do_req st (req "load" [ ("source", Json.Str src); ("file", Json.Str file) ]) in
  let key_of resp =
    match Json.member "program" (member_exn "result" resp) with
    | Some (Json.Str k) -> k
    | _ -> Alcotest.fail "load result has no program key"
  in
  let ka = key_of (load "a.tj" tiny_src) in
  let kb = key_of (load "b.tj" tiny_src) in
  Alcotest.(check (list string)) "MRU order after two loads" [ kb; ka ]
    (Serve.cache_keys st);
  (* querying A touches it to the front *)
  let ra =
    do_req st (req "slice" [ ("program", Json.Str ka); ("line", Json.Int 4) ])
  in
  Alcotest.(check (list string)) "query touches A to MRU" [ ka; kb ]
    (Serve.cache_keys st);
  (* a third load evicts the LRU entry (B) *)
  let kc = key_of (load "c.tj" box_src) in
  Alcotest.(check (list string)) "C evicts B" [ kc; ka ] (Serve.cache_keys st);
  (* the evicted key is an explicit user error, not a silent reload *)
  expect_error "evicted program key" st
    (req "slice" [ ("program", Json.Str kb); ("line", Json.Int 4) ])
    1;
  (* ... but the same source reloads by digest, with the same answer *)
  let rb =
    do_req st
      (req "slice"
         [ ("source", Json.Str tiny_src); ("file", Json.Str "b.tj");
           ("line", Json.Int 4) ])
  in
  check_string "reload is a miss" "miss" (cache_of rb);
  check_string "reloaded B computes the same slice as resident A"
    (result_str ra) (result_str rb);
  check_int "capacity still respected" 2 (List.length (Serve.cache_keys st))

(* --- satellite 1: spans do not accumulate across queries ------------- *)

let test_span_rotation () =
  Slice_obs.reset ();
  Slice_obs.set_enabled true;
  let st = Serve.create_state Serve.default_config in
  let r =
    req "slice" [ ("source", Json.Str tiny_src); ("line", Json.Int 4) ]
  in
  ignore (do_req st r);
  let baseline = List.length (Slice_obs.snapshot ()).Slice_obs.snap_spans in
  for _ = 1 to 50 do
    ignore (do_req st r)
  done;
  let after = List.length (Slice_obs.snapshot ()).Slice_obs.snap_spans in
  check_int "span list does not grow over 50 queries" baseline after;
  check_int "resident span list stays empty" 0 after;
  Slice_obs.set_enabled false

(* --- satellite 2: eviction shrinks the walk scratch ------------------ *)

(* a program whose SDG dwarfs tiny_src's: a long straight-line chain *)
let big_src =
  let b = Buffer.create 4096 in
  Buffer.add_string b "void main(String[] args) {\n  int x0 = 1;\n";
  for i = 1 to 400 do
    Buffer.add_string b (Printf.sprintf "  int x%d = x%d + 1;\n" i (i - 1))
  done;
  Buffer.add_string b "  print(itoa(x400));\n}\n";
  Buffer.contents b

let test_eviction_shrinks_scratch () =
  let st = Serve.create_state { Serve.max_programs = 1 } in
  let slice src file line =
    do_req st
      (req "slice"
         [ ("source", Json.Str src); ("file", Json.Str file);
           ("line", Json.Int line) ])
  in
  ignore (slice big_src "big.tj" 402);
  let cap_big = Slicer.domain_scratch_capacity () in
  let tiny_nodes =
    Sdg.num_nodes
      (Engine.load [ ("t.tj", tiny_src) ]).Engine.h_analysis.Engine.sdg
  in
  check_bool "big program grew the scratch past tiny's size" true
    (cap_big > tiny_nodes);
  (* loading tiny evicts big (capacity 1) and must release big's buffers *)
  ignore (slice tiny_src "t.tj" 4);
  let cap_after = Slicer.domain_scratch_capacity () in
  check_bool "eviction shrank the scratch" true (cap_after < cap_big);
  check_int "scratch sized to the surviving program" tiny_nodes cap_after

(* --- serve-vs-CLI byte parity (subprocess) --------------------------- *)

let exe_path = Filename.concat (Filename.concat ".." "bin") "thinslice.exe"
let skip_if_missing () = if not (Sys.file_exists exe_path) then Alcotest.skip ()

let slurp f =
  let ic = open_in_bin f in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* Run the one-shot CLI, returning trimmed stdout; any nonzero exit is
   a test failure (parity inputs are all valid queries). *)
let cli_json (args : string) : string =
  let out_f = Filename.temp_file "serve_cli" ".json" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> /dev/null" (Filename.quote exe_path) args
      (Filename.quote out_f)
  in
  let rc = Sys.command cmd in
  let out = slurp out_f in
  Sys.remove out_f;
  if rc <> 0 then Alcotest.failf "CLI failed (%d): %s" rc args;
  String.trim out

(* Pipe a scripted request file through [thinslice serve]; one response
   line per request, in order. *)
let serve_responses (reqs : Json.t list) : Json.t list =
  let in_f = Filename.temp_file "serve_req" ".jsonl" in
  let out_f = Filename.temp_file "serve_resp" ".jsonl" in
  write_file in_f
    (String.concat "" (List.map (fun r -> Json.to_string r ^ "\n") reqs));
  let cmd =
    Printf.sprintf "%s serve < %s > %s 2> /dev/null" (Filename.quote exe_path)
      (Filename.quote in_f) (Filename.quote out_f)
  in
  let rc = Sys.command cmd in
  let out = slurp out_f in
  Sys.remove in_f;
  Sys.remove out_f;
  if rc <> 0 then Alcotest.failf "serve subprocess exited %d" rc;
  String.split_on_char '\n' out
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.of_string l with
         | Ok j -> j
         | Error e -> Alcotest.failf "unparsable serve response %S: %s" l e)

let parity_for_solver (solver : string) () =
  skip_if_missing ();
  let dir = Filename.temp_file "serve_parity" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "box.tj" in
  write_file path box_src;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove path with Sys_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      (* serve identifies the unit by basename, exactly as the CLI does *)
      let base =
        [ ("source", Json.Str box_src); ("file", Json.Str "box.tj");
          ("solver", Json.Str solver) ]
      in
      let qp = Filename.quote path in
      let cases =
        [ ( "slice",
            req "slice" (("line", Json.Int box_print_line) :: base),
            Printf.sprintf "slice %s -l %d --json --pta %s" qp box_print_line
              solver );
          ( "forward",
            req "forward"
              (("line", Json.Int box_def_line)
               :: ("mode", Json.Str "trad") :: base),
            Printf.sprintf "slice %s -l %d --forward --mode trad --json --pta %s"
              qp box_def_line solver );
          ( "chop",
            req "chop"
              (("line", Json.Int box_def_line)
               :: ("to", Json.Int box_print_line) :: base),
            Printf.sprintf "chop %s -l %d --to %d --json --pta %s" qp
              box_def_line box_print_line solver );
          ( "expand",
            req "expand" (("line", Json.Int box_print_line) :: base),
            Printf.sprintf "expand %s -l %d --json --pta %s" qp box_print_line
              solver );
          ( "explain",
            req "explain"
              (("line", Json.Int box_def_line)
               :: ("seed", Json.Int box_print_line)
               :: ("mode", Json.Str "full") :: base),
            Printf.sprintf "explain %s %d --seed %d --mode full --json --pta %s"
              qp box_def_line box_print_line solver );
          ( "report",
            req "report"
              (("line", Json.Int box_print_line)
               :: ("mode", Json.Str "full") :: base),
            Printf.sprintf "report %s -l %d --mode full --json --pta %s" qp
              box_print_line solver );
          ( "stats",
            req "stats" base,
            Printf.sprintf "stats %s --json --pta %s" qp solver ) ]
      in
      let resps = serve_responses (List.map (fun (_, r, _) -> r) cases) in
      check_int "one response per request" (List.length cases)
        (List.length resps);
      List.iter2
        (fun (name, _, cli_args) resp ->
          let serve_result = result_str resp in
          let cli_out = cli_json cli_args in
          check_string
            (Printf.sprintf "%s (--pta %s): serve result byte-equals CLI --json"
               name solver)
            cli_out serve_result)
        cases resps;
      (* every response after the first reuses the resident analysis *)
      List.iteri
        (fun i resp ->
          check_string
            (Printf.sprintf "request %d cache state" i)
            (if i = 0 then "miss" else "hit")
            (cache_of resp))
        resps)

(* --- incremental update --------------------------------------------- *)

(* A body-interior, pointer-free tweak of [box_src]: same line count,
   same skeleton, so [Engine.update] can take the Patched path. *)
let box_src_edited =
  let sub = "z.length() > 0" and by = "z.length() > 1" in
  let ls = String.length box_src and lsub = String.length sub in
  let rec find i =
    if i + lsub > ls then Alcotest.failf "edit needle %S not in box_src" sub
    else if String.sub box_src i lsub = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub box_src 0 i ^ by
  ^ String.sub box_src (i + lsub) (ls - i - lsub)

let program_of (resp : Json.t) : string =
  match Json.member "program" (member_exn "result" resp) with
  | Some (Json.Str k) -> k
  | _ -> Alcotest.failf "no program key in %s" (Json.to_string resp)

(* update patches the resident entry in place: the cache is re-keyed
   under the new digest, the old key is gone, and queries through the
   new key byte-equal a fresh load of the edited source. *)
let test_update_method () =
  let st = Serve.create_state Serve.default_config in
  let file = "box.tj" in
  let key1 =
    program_of
      (do_req st
         (req "load" [ ("source", Json.Str box_src); ("file", Json.Str file) ]))
  in
  let upd =
    do_req st
      (req "update"
         [ ("program", Json.Str key1); ("source", Json.Str box_src_edited);
           ("file", Json.Str file) ])
  in
  let r = member_exn "result" upd in
  let key2 = program_of upd in
  check_bool "edit re-keys the entry" true (key1 <> key2);
  (match Json.member "path" r with
  | Some (Json.Str "patched") -> ()
  | other ->
    Alcotest.failf "expected the patched path, got %s"
      (match other with Some j -> Json.to_string j | None -> "<none>"));
  (match Json.member "relowered" r with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.failf "expected exactly one re-lowered method: %s"
           (Json.to_string r));
  check_string "update telemetry" "update"
    (cache_of upd);
  (* the patched entry answers by its NEW key, as a hit *)
  let sl =
    do_req st
      (req "slice"
         [ ("program", Json.Str key2); ("line", Json.Int box_print_line) ])
  in
  check_string "patched entry is resident" "hit" (cache_of sl);
  (* ... the old key is gone ... *)
  expect_error "stale pre-edit key" st
    (req "slice"
       [ ("program", Json.Str key1); ("line", Json.Int box_print_line) ])
    Serve.user_error;
  (* ... and the patched analysis byte-equals a fresh load of the edit *)
  let fresh = Serve.create_state Serve.default_config in
  let sl' =
    do_req fresh
      (req "slice"
         [ ("source", Json.Str box_src_edited); ("file", Json.Str file);
           ("line", Json.Int box_print_line) ])
  in
  check_string "patched result equals fresh-load result" (result_str sl')
    (result_str sl)

(* A shrinking EDIT must release the walk scratch the same way LRU
   eviction does: the update handler re-sizes the domain scratch to the
   surviving residents instead of pinning the pre-edit high-water mark. *)
let test_update_shrinks_scratch () =
  let st = Serve.create_state { Serve.max_programs = 1 } in
  let key =
    program_of
      (do_req st
         (req "load"
            [ ("source", Json.Str big_src); ("file", Json.Str "big.tj") ]))
  in
  ignore
    (do_req st
       (req "slice" [ ("program", Json.Str key); ("line", Json.Int 402) ]));
  let cap_big = Slicer.domain_scratch_capacity () in
  let tiny_nodes =
    Sdg.num_nodes
      (Engine.load [ ("big.tj", tiny_src) ]).Engine.h_analysis.Engine.sdg
  in
  check_bool "big program grew the scratch past tiny's size" true
    (cap_big > tiny_nodes);
  (* a structural shrink of the resident program (Rebuilt path) *)
  let upd =
    do_req st
      (req "update"
         [ ("program", Json.Str key); ("source", Json.Str tiny_src);
           ("file", Json.Str "big.tj") ])
  in
  (match Json.member "path" (member_exn "result" upd) with
  | Some (Json.Str "rebuilt") -> ()
  | other ->
    Alcotest.failf "expected the rebuilt path, got %s"
      (match other with Some j -> Json.to_string j | None -> "<none>"));
  let cap_after = Slicer.domain_scratch_capacity () in
  check_bool "shrinking update released the scratch" true
    (cap_after < cap_big);
  check_int "scratch sized to the post-edit program" tiny_nodes cap_after

(* updating a non-resident key is a user error, not a crash; so is an
   update without any source payload *)
let test_update_errors () =
  let st = Serve.create_state Serve.default_config in
  expect_error "update of non-resident program" st
    (req "update"
       [ ("program", Json.Str "no-such-key"); ("source", Json.Str tiny_src) ])
    Serve.user_error;
  let key =
    program_of (do_req st (req "load" [ ("source", Json.Str tiny_src) ]))
  in
  expect_error "update without source" st
    (req "update" [ ("program", Json.Str key) ])
    Serve.invalid_params

(* --- multi-file loads ------------------------------------------------ *)

let two_files =
  [ ( "main.tj",
      "void main(String[] args) {\n  int x = helper(2);\n  print(itoa(x));\n}\n"
    );
    ("util.tj", "int helper(int n) {\n  return n * 3;\n}\n") ]

let sources_json (files : (string * string) list) : Json.t =
  Json.List
    (List.map
       (fun (f, s) ->
         Json.Obj [ ("file", Json.Str f); ("source", Json.Str s) ])
       files)

let test_sources_array () =
  let st = Serve.create_state Serve.default_config in
  (* a two-file program loads and is digest-addressable *)
  let key =
    program_of
      (do_req st (req "load" [ ("sources", sources_json two_files) ]))
  in
  let again = do_req st (req "load" [ ("sources", sources_json two_files) ]) in
  check_string "same sources digest to the same key" key (program_of again);
  check_string "second load is a hit" "hit" (cache_of again);
  (* a singleton sources array is the same program as source+file *)
  let k1 =
    program_of
      (do_req st
         (req "load" [ ("sources", sources_json [ ("t.tj", tiny_src) ]) ]))
  in
  let direct =
    do_req st
      (req "load" [ ("source", Json.Str tiny_src); ("file", Json.Str "t.tj") ])
  in
  check_string "singleton array digests like source+file" k1
    (program_of direct);
  check_string "singleton/direct is a hit" "hit" (cache_of direct)

let test_sources_errors () =
  let st = Serve.create_state Serve.default_config in
  (* duplicate paths: structured user error (code 1), not a crash *)
  expect_error "duplicate source path" st
    (req "load"
       [ ( "sources",
           sources_json [ ("a.tj", tiny_src); ("a.tj", tiny_src) ] ) ])
    Serve.user_error;
  (* malformed arrays: invalid params *)
  expect_error "empty sources" st
    (req "load" [ ("sources", Json.List []) ])
    Serve.invalid_params;
  expect_error "non-array sources" st
    (req "load" [ ("sources", Json.Str "nope") ])
    Serve.invalid_params;
  expect_error "entry without file" st
    (req "load"
       [ ("sources", Json.List [ Json.Obj [ ("source", Json.Str tiny_src) ] ])
       ])
    Serve.invalid_params

(* --- socket robustness ----------------------------------------------- *)

(* A client that vanishes mid-request (or mid-response) must end only
   its own connection: the daemon stays up, leaks no fd, and serves the
   next client.  Regression test for the SIGPIPE/EOF handling in
   [serve_unix_socket]. *)
let test_socket_disconnect () =
  skip_if_missing ();
  let sock_path = Filename.temp_file "thinslice" ".sock" in
  Sys.remove sock_path;
  let pid =
    Unix.create_process exe_path
      [| exe_path; "serve"; "--socket"; sock_path |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      try Sys.remove sock_path with Sys_error _ -> ())
    (fun () ->
      (* wait for the daemon to bind *)
      let rec wait_sock n =
        if Sys.file_exists sock_path then ()
        else if n = 0 then Alcotest.fail "daemon never bound its socket"
        else begin
          Unix.sleepf 0.05;
          wait_sock (n - 1)
        end
      in
      wait_sock 200;
      let connect () =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock_path);
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
        fd
      in
      let slice_req =
        Json.to_string
          (req "slice"
             [ ("source", Json.Str box_src);
               ("line", Json.Int box_print_line) ])
      in
      (* client 1: dies mid-request — a partial line, then a hard close *)
      let fd1 = connect () in
      let partial = String.sub slice_req 0 (String.length slice_req / 2) in
      ignore (Unix.write_substring fd1 partial 0 (String.length partial));
      Unix.close fd1;
      (* client 2: dies mid-response — full request, closed before the
         (analysis-sized) response can be written back *)
      let fd2 = connect () in
      ignore
        (Unix.write_substring fd2 (slice_req ^ "\n") 0
           (String.length slice_req + 1));
      Unix.close fd2;
      (* client 3: must still be served, with a real result *)
      let fd3 = connect () in
      ignore
        (Unix.write_substring fd3 (slice_req ^ "\n") 0
           (String.length slice_req + 1));
      let ic = Unix.in_channel_of_descr fd3 in
      let line =
        try input_line ic
        with End_of_file | Sys_error _ | Unix.Unix_error (_, _, _) ->
          Alcotest.fail "daemon did not answer after client disconnects"
      in
      (match Json.of_string line with
      | Ok resp ->
        check_bool "post-disconnect response carries a result" true
          (Json.member "result" resp <> None)
      | Error e -> Alcotest.failf "unparsable response %S: %s" line e);
      (* clean shutdown so the daemon exits by itself *)
      let bye = Json.to_string (req "shutdown" []) ^ "\n" in
      ignore (Unix.write_substring fd3 bye 0 (String.length bye));
      (try ignore (input_line ic) with _ -> ());
      Unix.close fd3;
      let rec reap n =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when n > 0 ->
          Unix.sleepf 0.05;
          reap (n - 1)
        | 0, _ -> Alcotest.fail "daemon did not exit after shutdown"
        | _ -> ()
      in
      reap 200)

let suite =
  [ Alcotest.test_case "error contract: nothing kills the loop" `Quick
      test_error_contract;
    Alcotest.test_case "cache hit equals miss, zero re-analysis" `Quick
      test_hit_miss_equality;
    Alcotest.test_case "LRU eviction, explicit miss, reload" `Quick
      test_lru_eviction_reload;
    Alcotest.test_case "spans do not accumulate across queries" `Quick
      test_span_rotation;
    Alcotest.test_case "eviction shrinks the walk scratch" `Quick
      test_eviction_shrinks_scratch;
    Alcotest.test_case "update patches and re-keys the resident entry" `Quick
      test_update_method;
    Alcotest.test_case "shrinking update releases the walk scratch" `Quick
      test_update_shrinks_scratch;
    Alcotest.test_case "update error contract" `Quick test_update_errors;
    Alcotest.test_case "multi-file sources load" `Quick test_sources_array;
    Alcotest.test_case "sources error contract" `Quick test_sources_errors;
    Alcotest.test_case "client disconnect does not kill the daemon" `Quick
      test_socket_disconnect;
    Alcotest.test_case "serve/CLI byte parity (bitset pta)" `Quick
      (parity_for_solver "bitset");
    Alcotest.test_case "serve/CLI byte parity (reference pta)" `Quick
      (parity_for_solver "reference") ]
