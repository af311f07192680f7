(* Slice-as-a-service: the [thinslice serve] daemon core.

   The protocol layer is deliberately thin: parse a request line with
   the existing hand-rolled JSON module, resolve the program (LRU cache
   keyed by source digest x sensitivity), build an
   [Engine.query], and let [Engine.run_query] / [query_result_to_json]
   do the work — the very same code path the one-shot CLI runs, which
   is what makes serve-vs-CLI byte parity structural rather than
   tested-for.  Long-lived-process hygiene lives here too: each request
   runs under [Slice_obs.scoped] (per-query phase walls), completed
   spans are dropped afterwards ([reset_spans] — the registry must stay
   O(1) over N queries), and LRU eviction shrinks the shared walk
   scratch back to the largest surviving program. *)

open Slice_core
module Json = Slice_obs.Json

type config = { max_programs : int }

let default_config = { max_programs = 8 }

type entry = {
  e_key : string;
  e_handle : Engine.handle;
}

(* MRU-first association list: [max_programs] is a handful of resident
   analyses (each holding a full SDG), so O(n) touch/evict is noise
   next to even a cache-hit slice query. *)
type state = {
  cfg : config;
  mutable entries : entry list;
}

let create_state (cfg : config) : state =
  { cfg = { max_programs = max 1 cfg.max_programs }; entries = [] }

let cache_keys (st : state) : string list =
  List.map (fun e -> e.e_key) st.entries

(* The digest folds every (file, source) pair, so a one-byte edit to
   ANY unit of a multi-file program changes the key — which is what
   makes [update] safe to key the patched entry under the new digest.
   A singleton list hashes to the same key as the historical single-file
   form. *)
let program_key_sources ?(obj_sens = true) (sources : (string * string) list)
    : string =
  let payload =
    String.concat "\x01" (List.map (fun (f, s) -> f ^ "\x00" ^ s) sources)
  in
  Printf.sprintf "%s:%s"
    (Digest.to_hex (Digest.string payload))
    (if obj_sens then "objsens" else "no-objsens")

let program_key ?obj_sens ~(file : string) (src : string) : string =
  program_key_sources ?obj_sens [ (file, src) ]

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

(* Structured failure of one request.  The codes mirror JSON-RPC for
   protocol-level problems and the CLI exit-code contract for the rest:
   1 = user/analysis error (unloadable program, no statement at a line,
   evicted program key), 2 = unexpected internal error. *)
exception Err of int * string

let parse_error = -32700
let invalid_request = -32600
let method_not_found = -32601
let invalid_params = -32602
let user_error = 1
let internal_error = 2

let errf code fmt = Printf.ksprintf (fun m -> raise (Err (code, m))) fmt

(* ------------------------------------------------------------------ *)
(* Param helpers                                                       *)
(* ------------------------------------------------------------------ *)

let params_of (req : Json.t) : Json.t =
  match Json.member "params" req with
  | None -> Json.Obj []
  | Some (Json.Obj _ as p) -> p
  | Some _ -> errf invalid_params "params must be an object"

let opt_str params name =
  match Json.member name params with
  | None | Some Json.Null -> None
  | Some (Json.Str s) -> Some s
  | Some _ -> errf invalid_params "%s must be a string" name

let opt_int params name =
  match Json.member name params with
  | None | Some Json.Null -> None
  | Some (Json.Int i) -> Some i
  | Some _ -> errf invalid_params "%s must be an integer" name

let req_int params name =
  match opt_int params name with
  | Some i -> i
  | None -> errf invalid_params "missing required param %s" name

let opt_bool params name ~default =
  match Json.member name params with
  | None | Some Json.Null -> default
  | Some (Json.Bool b) -> b
  | Some _ -> errf invalid_params "%s must be a boolean" name

let mode_of params =
  match opt_str params "mode" with
  | None -> Slicer.Thin
  | Some s -> (
    match Slicer.mode_of_string s with
    | Some m -> m
    | None -> errf invalid_params "unknown mode %s" s)

(* Inline sources of a request: a single ["source"] (+ optional
   ["file"]), or a multi-file ["sources"] array of {file, source}
   objects.  Duplicate paths are a code-1 user error, not a crash: the
   frontend would otherwise let one unit silently shadow the other. *)
let sources_of (params : Json.t) : (string * string) list option =
  match Json.member "sources" params with
  | Some (Json.List items) ->
    if items = [] then errf invalid_params "sources must be non-empty";
    let one = function
      | Json.Obj _ as o -> (
        let str name =
          match Json.member name o with
          | Some (Json.Str s) -> Some s
          | None | Some Json.Null -> None
          | Some _ -> errf invalid_params "sources entry %s must be a string" name
        in
        match (str "file", str "source") with
        | Some f, Some s -> (f, s)
        | None, _ -> errf invalid_params "sources entries need a \"file\""
        | _, None -> errf invalid_params "sources entries need a \"source\"")
      | _ -> errf invalid_params "sources must be an array of objects"
    in
    let sources = List.map one items in
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (f, _) ->
        if Hashtbl.mem seen f then errf user_error "duplicate source path: %s" f;
        Hashtbl.replace seen f ())
      sources;
    Some sources
  | Some _ -> errf invalid_params "sources must be an array"
  | None -> (
    match opt_str params "source" with
    | None -> None
    | Some src ->
      let file = Option.value (opt_str params "file") ~default:"<request>" in
      Some [ (file, src) ])

(* ------------------------------------------------------------------ *)
(* The program cache                                                   *)
(* ------------------------------------------------------------------ *)

let find_entry (st : state) (key : string) : entry option =
  List.find_opt (fun e -> e.e_key = key) st.entries

let touch (st : state) (e : entry) : unit =
  st.entries <- e :: List.filter (fun x -> x.e_key <> e.e_key) st.entries

(* Release walk-scratch memory down to the largest RESIDENT program:
   without this, one mega-program query pins its peak buffers for the
   daemon's lifetime.  Shared by eviction and by [update] (an edit can
   shrink a program just as surely as an eviction can drop one). *)
let shrink_to_residents (st : state) : unit =
  let keep_nodes =
    List.fold_left
      (fun acc e ->
        max acc (Sdg.num_nodes e.e_handle.Engine.h_analysis.Engine.sdg))
      1 st.entries
  in
  Slicer.shrink_shared_scratch ~keep:keep_nodes

let insert (st : state) (e : entry) : unit =
  st.entries <- e :: st.entries;
  if List.length st.entries > st.cfg.max_programs then begin
    let rec split i = function
      | [] -> ([], [])
      | x :: rest ->
        if i = 0 then ([], x :: rest)
        else
          let keep, drop = split (i - 1) rest in
          (x :: keep, drop)
    in
    let keep, drop = split st.cfg.max_programs st.entries in
    st.entries <- keep;
    ignore drop;
    shrink_to_residents st
  end

(* Resolve the program a request addresses: an explicit resident key
   (hit or error — a daemon must not silently reload a program it no
   longer has the source of), or an inline source (hit on digest match,
   load on miss). *)
let resolve_program (st : state) (params : Json.t) : entry * [ `Hit | `Miss ]
    =
  match Json.member "program" params with
  | Some (Json.Str key) -> (
    match find_entry st key with
    | Some e ->
      touch st e;
      (e, `Hit)
    | None -> errf user_error "program not resident: %s" key)
  | Some _ -> errf invalid_params "program must be a string key"
  | None -> (
    match sources_of params with
    | None ->
      errf invalid_params
        "request needs \"program\", \"source\" or \"sources\""
    | Some sources -> (
      let obj_sens = opt_bool params "obj_sens" ~default:true in
      let key = program_key_sources ~obj_sens sources in
      match find_entry st key with
      | Some e ->
        touch st e;
        (e, `Hit)
      | None ->
        let handle =
          try Engine.load ~obj_sens sources
          with Slice_front.Frontend.Error e ->
            errf user_error "%s" (Slice_front.Frontend.error_to_string e)
        in
        let e = { e_key = key; e_handle = handle } in
        insert st e;
        (e, `Miss)))

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

type dispatched = {
  d_result : Json.t;
  d_tel : (string * Json.t) list;  (* cache/program telemetry fields *)
  d_stop : bool;
}

let cache_tel (e : entry) hit =
  [ ("cache", Json.Str (match hit with `Hit -> "hit" | `Miss -> "miss"));
    ("program", Json.Str e.e_key) ]

let query_of_method (mname : string) (params : Json.t) : Engine.query option =
  match mname with
  | "slice" ->
    Some
      (Engine.Q_slice
         { line = req_int params "line"; mode = mode_of params;
           forward = false })
  | "forward" ->
    Some
      (Engine.Q_slice
         { line = req_int params "line"; mode = mode_of params;
           forward = true })
  | "chop" ->
    Some
      (Engine.Q_chop
         { line = req_int params "line"; sink_line = req_int params "to";
           mode = mode_of params })
  | "expand" -> Some (Engine.Q_expand { line = req_int params "line" })
  | "explain" ->
    Some
      (Engine.Q_explain
         { seed_line = req_int params "seed"; line = req_int params "line";
           mode = mode_of params })
  | "report" ->
    Some (Engine.Q_report { line = req_int params "line"; mode = mode_of params })
  | "stats" -> Some Engine.Q_stats
  | _ -> None

let dispatch (st : state) (req : Json.t) : dispatched =
  let mname =
    match Json.member "method" req with
    | Some (Json.Str m) -> m
    | Some _ -> errf invalid_request "method must be a string"
    | None -> errf invalid_request "missing method"
  in
  match mname with
  | "shutdown" ->
    { d_result = Json.Obj [ ("ok", Json.Bool true) ]; d_tel = []; d_stop = true }
  | "load" ->
    let params = params_of req in
    let e, hit = resolve_program st params in
    { d_result = Json.Obj [ ("program", Json.Str e.e_key) ];
      d_tel = cache_tel e hit;
      d_stop = false }
  | "update" ->
    (* Edit a RESIDENT program in place: the entry is re-keyed under the
       new sources' digest (so digest-addressed requests still behave)
       but its analysis is patched, not rebuilt, whenever the delta
       allows — the path taken is reported back. *)
    let params = params_of req in
    let e =
      match Json.member "program" params with
      | Some (Json.Str key) -> (
        match find_entry st key with
        | Some e -> e
        | None -> errf user_error "program not resident: %s" key)
      | Some _ -> errf invalid_params "program must be a string key"
      | None -> errf invalid_params "update needs a \"program\" key"
    in
    let sources =
      match sources_of params with
      | Some s -> s
      | None -> errf invalid_params "update needs \"source\" or \"sources\""
    in
    let h = e.e_handle in
    let h', report =
      try Engine.update h sources
      with Slice_front.Frontend.Error fe ->
        errf user_error "%s" (Slice_front.Frontend.error_to_string fe)
    in
    let key' = program_key_sources ~obj_sens:h.Engine.h_obj_sens sources in
    let e' = { e_key = key'; e_handle = h' } in
    st.entries <-
      e'
      :: List.filter
           (fun x -> x.e_key <> e.e_key && x.e_key <> key')
           st.entries;
    (* Mirror the eviction path: a shrinking edit must release the
       daemon's walk scratch, not pin the pre-edit high-water mark. *)
    shrink_to_residents st;
    let path = Engine.update_path_to_string report.Engine.up_path in
    { d_result =
        Json.Obj
          [ ("program", Json.Str key');
            ("path", Json.Str path);
            ("relowered", Json.Int report.Engine.up_relowered);
            ("segments_refrozen", Json.Int report.Engine.up_segments_refrozen);
            ("segments_total", Json.Int report.Engine.up_segments_total);
            ("nodes_dead", Json.Int report.Engine.up_nodes_dead);
            ("nodes_new", Json.Int report.Engine.up_nodes_new) ];
      d_tel =
        [ ("cache", Json.Str "update"); ("program", Json.Str key');
          ("path", Json.Str path) ];
      d_stop = false }
  | _ -> (
    let params = params_of req in
    match query_of_method mname params with
    | None -> errf method_not_found "unknown method %s" mname
    | Some q ->
      let e, hit = resolve_program st params in
      let result =
        try
          Engine.query_result_to_json e.e_handle q
            (Engine.run_query e.e_handle q)
        with Engine.No_seed line ->
          errf user_error "no statement found at line %d" line
      in
      { d_result = result; d_tel = cache_tel e hit; d_stop = false })

(* ------------------------------------------------------------------ *)
(* The response envelope                                               *)
(* ------------------------------------------------------------------ *)

type outcome = {
  resp : Json.t;
  stop : bool;
}

let telemetry_json ~(tel : (string * Json.t) list) ~(wall : float)
    (snap : Slice_obs.snapshot) : Json.t =
  Json.Obj
    (tel
    @ [ ("wall_s", Json.Float wall);
        ("phase_wall_s",
         Json.Obj
           (List.map
              (fun (n, w) -> (n, Json.Float w))
              (Slice_obs.span_totals snap))) ])

let handle_request (st : state) (req : Json.t) : outcome =
  let id = Option.value (Json.member "id" req) ~default:Json.Null in
  let t0 = Unix.gettimeofday () in
  (* Scoped: the snapshot holds exactly this query's spans — on a cache
     hit there is no front/pta/sdg phase in it at all, the claim the
     serve_ab bench self-checks.  The merge-back then lands those spans
     in the daemon registry, where [reset_spans] drops them: a resident
     process must not accumulate one span tree per query forever. *)
  let out, snap =
    Slice_obs.scoped (fun () ->
        try Ok (dispatch st req) with
        | Err (code, msg) -> Error (code, msg)
        | Engine.No_seed line ->
          Error (user_error, Printf.sprintf "no statement found at line %d" line)
        | Failure msg -> Error (user_error, msg)
        | Invalid_argument msg ->
          Error (user_error, "invalid argument: " ^ msg)
        | e -> Error (internal_error, Printexc.to_string e))
  in
  Slice_obs.reset_spans ();
  let wall = Unix.gettimeofday () -. t0 in
  match out with
  | Ok d ->
    { resp =
        Json.Obj
          [ ("id", id);
            ("result", d.d_result);
            ("telemetry", telemetry_json ~tel:d.d_tel ~wall snap) ];
      stop = d.d_stop }
  | Error (code, msg) ->
    { resp =
        Json.Obj
          [ ("id", id);
            ("error",
             Json.Obj [ ("code", Json.Int code); ("message", Json.Str msg) ]);
            ("telemetry", telemetry_json ~tel:[] ~wall snap) ];
      stop = false }

let handle_line (st : state) (line : string) : outcome option =
  if String.trim line = "" then None
  else
    match Json.of_string line with
    | Ok req -> Some (handle_request st req)
    | Error msg ->
      Some
        { resp =
            Json.Obj
              [ ("id", Json.Null);
                ("error",
                 Json.Obj
                   [ ("code", Json.Int parse_error);
                     ("message", Json.Str ("parse error: " ^ msg)) ]) ];
          stop = false }

(* ------------------------------------------------------------------ *)
(* Transports                                                          *)
(* ------------------------------------------------------------------ *)

let serve_channels (st : state) (ic : in_channel) (oc : out_channel) :
    [ `Eof | `Shutdown ] =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> `Eof
    | line -> (
      match handle_line st line with
      | None -> loop ()
      | Some o ->
        output_string oc (Json.to_string o.resp);
        output_char oc '\n';
        flush oc;
        if o.stop then `Shutdown else loop ())
  in
  loop ()

let serve_unix_socket (st : state) ~(path : string) : unit =
  (* A client that vanishes mid-response must not kill the daemon: the
     default SIGPIPE disposition terminates the process on the first
     write to the dead socket.  Ignored, the write raises instead, and
     the per-connection handler below turns it into that connection's
     EOF. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists path then Unix.unlink path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        let status =
          Fun.protect
            ~finally:(fun () ->
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              (* EPIPE/ECONNRESET on a half-closed peer surfaces here as
                 Sys_error (channel writes) or Unix_error (raw ops); a
                 dead client ends its own connection, never the accept
                 loop, and the [finally] above still releases the fd. *)
              try serve_channels st ic oc
              with
              | End_of_file | Sys_error _ | Unix.Unix_error (_, _, _) ->
                `Eof)
        in
        match status with `Shutdown -> () | `Eof -> accept_loop ()
      in
      accept_loop ())
