(** Slice-as-a-service: the [thinslice serve] protocol and program cache.

    A long-lived daemon answering line-delimited JSON requests
    ([thinslice.serve/v1]) over stdin/stdout or a Unix socket.  Loaded
    programs are cached in an LRU keyed by source digest x
    sensitivity; each resident entry holds a CSR SDG + solved
    points-to ({!Engine.handle}), so repeat queries skip the whole
    analysis pipeline.  Every query dispatches through
    {!Engine.run_query} — the same code path as the one-shot CLI — and
    every response carries per-query telemetry (cache hit/miss, wall,
    per-phase walls from the query-scoped {!Slice_obs} snapshot).

    {2 Protocol}

    One request per line:
    [{"id": ..., "method": M, "params": {...}}] with [M] one of [load],
    [update], [slice], [forward], [chop], [expand], [explain],
    [report], [stats], [shutdown].  Every method except [shutdown] and
    [update] identifies a program either by ["program"] (a key
    returned from an earlier load; a structured error when no longer
    resident) or inline by ["source"] (+ optional ["file"]) or by a
    multi-file ["sources"] array of [{"file": F, "source": S}] objects
    (+ optional ["obj_sens"]), which loads on miss and
    reuses the resident analysis on hit.  Duplicate paths in
    ["sources"] are a code-1 error.  Query params: ["line"], ["mode"]
    (any {!Slice_core.Slicer.mode_of_string} spelling, default thin),
    ["to"] (chop), ["seed"] (explain).

    [update] takes a resident ["program"] key plus the edited
    ["source"]/["sources"] and re-analyzes incrementally
    ({!Slice_core.Engine.update}): the cache entry is re-keyed under
    the new digest and patched in place rather than evicted, and the
    result reports the incremental path taken ([noop], [patched],
    [resolved-incremental], [rebuilt]) with its
    delta statistics ([relowered],
    [segments_refrozen]/[segments_total], [nodes_dead]/[nodes_new]).
    After an update the daemon's walk scratch is shrunk to the largest
    resident program, exactly as on eviction.

    One response per request, in order:
    [{"id": ..., "result": R, "telemetry": T}] or
    [{"id": ..., "error": {"code": C, "message": S}, "telemetry": T}].
    [R] byte-equals the corresponding one-shot CLI [--json] payload.
    Protocol errors use the JSON-RPC codes (-32700 parse, -32600
    invalid request, -32601 unknown method, -32602 invalid params);
    analysis/user errors (load failure, no statement at a line, program
    not resident) use code 1 and unexpected internal errors code 2,
    mirroring the CLI exit-code contract.  No request ever kills the
    loop. *)

type config = { max_programs : int  (** LRU capacity; at least 1 *) }

val default_config : config
(** [{ max_programs = 8 }]. *)

(** Error codes carried in [{"error": {"code": C}}] responses: the
    JSON-RPC codes for protocol-level failures, plus [user_error] (1)
    and [internal_error] (2) mirroring the CLI exit-code contract. *)

val parse_error : int
(** [-32700]: the request line was not valid JSON. *)

val invalid_request : int
(** [-32600]: not an object, or no string ["method"]. *)

val method_not_found : int
(** [-32601]: unknown ["method"]. *)

val invalid_params : int
(** [-32602]: missing or ill-typed params (line, mode, ...). *)

val user_error : int
(** [1]: analysis/user error — unloadable source, no statement at the
    line, a program key that is no longer resident. *)

val internal_error : int
(** [2]: an unexpected internal error (a bug). *)

(** Mutable daemon state: the LRU of resident analyses. *)
type state

val create_state : config -> state

(** The cache key of a program, [<md5>:objsens] or [<md5>:no-objsens]:
    an MD5 digest over every (file, source) pair x object-sensitivity.
    This is what a load result returns as ["program"] and what query
    requests may pass back.  A singleton list yields the same key as
    {!program_key}. *)
val program_key_sources :
  ?obj_sens:bool ->
  (string * string) list ->
  string

(** Single-file convenience form of {!program_key_sources}. *)
val program_key :
  ?obj_sens:bool ->
  file:string ->
  string ->
  string

(** Resident program keys, most recently used first (exposed for the
    eviction tests and the bench). *)
val cache_keys : state -> string list

(** Handle one decoded request.  Returns the response and whether the
    daemon should stop ([shutdown]).  Never raises: every failure is
    encoded as a structured error response. *)
type outcome = {
  resp : Slice_obs.Json.t;
  stop : bool;
}

val handle_request : state -> Slice_obs.Json.t -> outcome

(** Handle one raw request line.  [None] for blank lines (no response
    is sent); parse failures become [-32700] error responses. *)
val handle_line : state -> string -> outcome option

(** Serve a channel pair until EOF or a [shutdown] request; responses
    are flushed per line. *)
val serve_channels : state -> in_channel -> out_channel -> [ `Eof | `Shutdown ]

(** Serve a Unix domain socket: bind [path] (unlinking any stale socket
    file first), accept one connection at a time, serve each until its
    EOF, and return (unlinking [path]) when a connection sends
    [shutdown].  SIGPIPE is ignored for the daemon's lifetime; a client
    that disconnects mid-request or mid-response ends only its own
    connection (fd released, next connection served). *)
val serve_unix_socket : state -> path:string -> unit
