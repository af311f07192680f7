(* End-to-end frontend driver: source text -> typed IR program in SSA form. *)

open Slice_ir

type error = {
  err_msg : string;
  err_loc : Loc.t;
  err_phase : [ `Lex | `Parse | `Semantic | `Internal ];
}

let pp_error ppf e =
  let phase =
    match e.err_phase with
    | `Lex -> "lexical error"
    | `Parse -> "parse error"
    | `Semantic -> "error"
    | `Internal -> "internal error"
  in
  Format.fprintf ppf "%a: %s: %s" Loc.pp e.err_loc phase e.err_msg

let error_to_string e = Format.asprintf "%a" pp_error e

exception Error of error

(* Parse, declare, lower and SSA-convert a single source text.
   [container_classes] selects the classes that the points-to analysis may
   treat object-sensitively (see [Declare.default_container_classes]). *)
let load_exn ?container_classes ~(file : string) (src : string) : Program.t =
  let wrap phase f =
    try f () with
    | Lexer.Lex_error (m, l) -> raise (Error { err_msg = m; err_loc = l; err_phase = `Lex })
    | Parser.Parse_error (m, l) ->
      raise (Error { err_msg = m; err_loc = l; err_phase = `Parse })
    | Declare.Semantic_error (m, l) | Lower.Type_error (m, l) ->
      raise (Error { err_msg = m; err_loc = l; err_phase = `Semantic })
    | Ssa.Ssa_error m ->
      raise (Error { err_msg = m; err_loc = Loc.none; err_phase = `Internal })
    | e ->
      ignore phase;
      raise e
  in
  Slice_obs.span "frontend" (fun () ->
      let cu = wrap `Parse (fun () -> Parser.parse_string ~file src) in
      let p = Program.create () in
      wrap `Semantic (fun () ->
          Slice_obs.span "front.declare" (fun () ->
              Declare.run ?container_classes p cu));
      wrap `Semantic (fun () ->
          Slice_obs.span "front.lower" (fun () -> Lower.run p cu));
      wrap `Internal (fun () ->
          Slice_obs.span "front.ssa" (fun () ->
              Program.iter_methods p (fun m -> Ssa.convert p m)));
      p)

(* Multi-file load: parse each unit with its own file name (so every Loc
   keeps the file it came from), then declare/lower/SSA the concatenated
   declaration list in one pass — classes may reference classes from any
   other unit regardless of order, exactly as a single concatenated source
   would behave, except that source locations stay per-file. *)
let load_many_exn ?container_classes (units : (string * string) list) :
    Program.t =
  let wrap phase f =
    try f () with
    | Lexer.Lex_error (m, l) -> raise (Error { err_msg = m; err_loc = l; err_phase = `Lex })
    | Parser.Parse_error (m, l) ->
      raise (Error { err_msg = m; err_loc = l; err_phase = `Parse })
    | Declare.Semantic_error (m, l) | Lower.Type_error (m, l) ->
      raise (Error { err_msg = m; err_loc = l; err_phase = `Semantic })
    | Ssa.Ssa_error m ->
      raise (Error { err_msg = m; err_loc = Loc.none; err_phase = `Internal })
    | e ->
      ignore phase;
      raise e
  in
  Slice_obs.span "frontend" (fun () ->
      let cus =
        List.map
          (fun (file, src) ->
            wrap `Parse (fun () -> Parser.parse_string ~file src))
          units
      in
      let cu_file =
        match cus with [] -> "<empty>" | cu :: _ -> cu.Ast.cu_file
      in
      let cu =
        { Ast.cu_file; cu_decls = List.concat_map (fun cu -> cu.Ast.cu_decls) cus }
      in
      let p = Program.create () in
      wrap `Semantic (fun () ->
          Slice_obs.span "front.declare" (fun () ->
              Declare.run ?container_classes p cu));
      wrap `Semantic (fun () ->
          Slice_obs.span "front.lower" (fun () -> Lower.run p cu));
      wrap `Internal (fun () ->
          Slice_obs.span "front.ssa" (fun () ->
              Program.iter_methods p (fun m -> Ssa.convert p m)));
      p)

let load ?container_classes ~(file : string) (src : string) :
    (Program.t, error) result =
  match load_exn ?container_classes ~file src with
  | p -> Ok p
  | exception Error e -> Error e
