(* Canonical dump keys shared by the bitset solver and the test oracle
   solver: one spelling, so a parity failure is always a fact that
   differs, never two renderings of the same fact. *)

open Slice_ir

type node_desc =
  | Nvar of int * Instr.var
  | Nstatic of Types.class_name * Types.field_name
  | Nfield of int * string
  | Nret of int

let rec obj_key ~(site : int -> string) (ctxs : Context.t) (o : int) : string =
  let oi = Context.obj ctxs o in
  let cls =
    match oi.Context.oi_cls with
    | Context.Aclass c -> "C" ^ c
    | Context.Aarray ty -> "A" ^ Types.ty_to_string ty
    | Context.Astring -> "S"
    | Context.Aextern s -> "X" ^ s
  in
  site oi.Context.oi_site ^ ":" ^ cls ^ ctx_key ~site ctxs oi.Context.oi_ctx

and ctx_key ~site (ctxs : Context.t) (c : Context.ctx) : string =
  match c with
  | Context.Cnone -> ""
  | Context.Crecv o -> "<" ^ obj_key ~site ctxs o ^ ">"

let mctx_key ?(site = string_of_int) ctxs mq c =
  Instr.method_qname_to_string mq ^ "@" ^ ctx_key ~site ctxs c

let node_key ~site ctxs (mctx_of : int -> Instr.method_qname * Context.ctx)
    (d : node_desc) : string =
  match d with
  | Nvar (mc, v) ->
    let mq, c = mctx_of mc in
    "V:" ^ mctx_key ~site ctxs mq c ^ ":" ^ string_of_int v
  | Nstatic (c, f) -> "G:" ^ c ^ "." ^ f
  | Nfield (o, f) -> "F:" ^ obj_key ~site ctxs o ^ "." ^ f
  | Nret mc ->
    let mq, c = mctx_of mc in
    "R:" ^ mctx_key ~site ctxs mq c

let pts ?(site = string_of_int) ctxs ~mctx_of ~num_nodes ~desc_of ~objs_of :
    (string * string list) list =
  let entries = ref [] in
  for i = 0 to num_nodes - 1 do
    let objs = objs_of i in
    if objs <> [] then
      entries :=
        ( node_key ~site ctxs mctx_of (desc_of i),
          List.sort compare (List.map (obj_key ~site ctxs) objs) )
        :: !entries
  done;
  List.sort compare !entries

let call_graph ?(site = string_of_int) ctxs ~mctx_of ~calls ~intrinsics :
    (string * string list) list =
  let mk caller stmt tag =
    let mq, c = mctx_of caller in
    tag ^ mctx_key ~site ctxs mq c ^ "#" ^ site stmt
  in
  let entries = ref [] in
  calls (fun caller stmt callees ->
      let keys =
        List.map
          (fun cmc ->
            let mq, c = mctx_of cmc in
            mctx_key ~site ctxs mq c)
          callees
      in
      entries := (mk caller stmt "C:", List.sort compare keys) :: !entries);
  intrinsics (fun caller stmt callees ->
      let names = List.map Instr.method_qname_to_string callees in
      entries := (mk caller stmt "I:", List.sort compare names) :: !entries);
  List.sort compare !entries
