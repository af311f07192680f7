(* Recursive-descent parser for TJ.

   Disambiguation conventions (documented in the README):
   - class names start with an uppercase letter, variables with lowercase;
     this resolves the classic cast-vs-parenthesization ambiguity:
     [(Foo) x] is a cast, [(foo)] is a parenthesized expression.
   - [for] loops desugar into [while] at parse time; [continue] inside a
     [for] is rejected because it would skip the update expression. *)

open Slice_ir

exception Parse_error of string * Loc.t

type state = {
  toks : Token.located array;
  mutable pos : int;
  mutable for_depth : int;
}

let make toks = { toks = Array.of_list toks; pos = 0; for_depth = 0 }

let cur st = st.toks.(st.pos)
let cur_tok st = (cur st).Token.tok
let cur_loc st = (cur st).Token.loc

let peek_tok st n =
  if st.pos + n < Array.length st.toks then st.toks.(st.pos + n).Token.tok
  else Token.EOF

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let error st msg = raise (Parse_error (msg, cur_loc st))

let expect st tok =
  if cur_tok st = tok then advance st
  else
    error st
      (Printf.sprintf "expected '%s' but found '%s'" (Token.to_string tok)
         (Token.to_string (cur_tok st)))

let expect_ident st =
  match cur_tok st with
  | Token.IDENT s ->
    advance st;
    s
  | t -> error st (Printf.sprintf "expected identifier, found '%s'" (Token.to_string t))

let is_upper_ident = function
  | Token.IDENT s -> String.length s > 0 && s.[0] >= 'A' && s.[0] <= 'Z'
  | _ -> false

(* ---------------- types ---------------- *)

let rec parse_type st : Ast.sty =
  let base =
    match cur_tok st with
    | Token.KW_int -> advance st; Ast.Sint
    | Token.KW_boolean -> advance st; Ast.Sbool
    | Token.KW_void -> advance st; Ast.Svoid
    | Token.IDENT s -> advance st; Ast.Sclass s
    | t -> error st (Printf.sprintf "expected a type, found '%s'" (Token.to_string t))
  in
  parse_array_suffix st base

and parse_array_suffix st base =
  if cur_tok st = Token.LBRACKET && peek_tok st 1 = Token.RBRACKET then begin
    advance st;
    advance st;
    parse_array_suffix st (Ast.Sarray base)
  end
  else base

(* Does a type begin at the current position, followed by an identifier?
   Used to recognize declarations among statements. *)
let looks_like_decl st =
  match cur_tok st with
  | Token.KW_int | Token.KW_boolean -> true
  | Token.IDENT _ -> (
    match (peek_tok st 1, peek_tok st 2) with
    | Token.IDENT _, _ -> true
    | Token.LBRACKET, Token.RBRACKET -> true
    | _ -> false)
  | _ -> false

(* ---------------- expressions ---------------- *)

let starts_expr = function
  | Token.INT _ | Token.STRING _ | Token.IDENT _ | Token.KW_true
  | Token.KW_false | Token.KW_null | Token.KW_this | Token.KW_new
  | Token.LPAREN | Token.NOT | Token.MINUS -> true
  | _ -> false

let rec parse_expr st : Ast.expr = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while cur_tok st = Token.OR do
    let loc = cur_loc st in
    advance st;
    let rhs = parse_and st in
    lhs := { Ast.e_kind = Ast.Ebinop (Types.Or, !lhs, rhs); e_loc = loc }
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_equality st) in
  while cur_tok st = Token.AND do
    let loc = cur_loc st in
    advance st;
    let rhs = parse_equality st in
    lhs := { Ast.e_kind = Ast.Ebinop (Types.And, !lhs, rhs); e_loc = loc }
  done;
  !lhs

and parse_equality st =
  let lhs = ref (parse_relational st) in
  let rec go () =
    match cur_tok st with
    | Token.EQ | Token.NE ->
      let op = if cur_tok st = Token.EQ then Types.Eq else Types.Ne in
      let loc = cur_loc st in
      advance st;
      let rhs = parse_relational st in
      lhs := { Ast.e_kind = Ast.Ebinop (op, !lhs, rhs); e_loc = loc };
      go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_relational st =
  let lhs = ref (parse_additive st) in
  let rec go () =
    match cur_tok st with
    | Token.LT | Token.LE | Token.GT | Token.GE ->
      let op =
        match cur_tok st with
        | Token.LT -> Types.Lt
        | Token.LE -> Types.Le
        | Token.GT -> Types.Gt
        | _ -> Types.Ge
      in
      let loc = cur_loc st in
      advance st;
      let rhs = parse_additive st in
      lhs := { Ast.e_kind = Ast.Ebinop (op, !lhs, rhs); e_loc = loc };
      go ()
    | Token.KW_instanceof ->
      let loc = cur_loc st in
      advance st;
      let ty = parse_type st in
      lhs := { Ast.e_kind = Ast.Einstanceof (!lhs, ty); e_loc = loc };
      go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let rec go () =
    match cur_tok st with
    | Token.PLUS | Token.MINUS ->
      let op = if cur_tok st = Token.PLUS then Types.Add else Types.Sub in
      let loc = cur_loc st in
      advance st;
      let rhs = parse_multiplicative st in
      lhs := { Ast.e_kind = Ast.Ebinop (op, !lhs, rhs); e_loc = loc };
      go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_unary st) in
  let rec go () =
    match cur_tok st with
    | Token.STAR | Token.SLASH | Token.PERCENT ->
      let op =
        match cur_tok st with
        | Token.STAR -> Types.Mul
        | Token.SLASH -> Types.Div
        | _ -> Types.Mod
      in
      let loc = cur_loc st in
      advance st;
      let rhs = parse_unary st in
      lhs := { Ast.e_kind = Ast.Ebinop (op, !lhs, rhs); e_loc = loc };
      go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_unary st =
  match cur_tok st with
  | Token.NOT ->
    let loc = cur_loc st in
    advance st;
    let e = parse_unary st in
    { Ast.e_kind = Ast.Eunop (Types.Not, e); e_loc = loc }
  | Token.MINUS ->
    let loc = cur_loc st in
    advance st;
    let e = parse_unary st in
    { Ast.e_kind = Ast.Eunop (Types.Neg, e); e_loc = loc }
  | _ -> parse_postfix st

(* A '(' begins a cast iff it is followed by a type (primitive keyword or
   uppercase class name, possibly with [] suffixes), ')' and then the start
   of a unary expression. *)
and is_cast st =
  if cur_tok st <> Token.LPAREN then false
  else begin
    match peek_tok st 1 with
    | Token.KW_int | Token.KW_boolean -> true
    | t when is_upper_ident t ->
      (* scan over optional [] pairs to the matching ')' *)
      let at i =
        if i < Array.length st.toks then st.toks.(i).Token.tok else Token.EOF
      in
      let i = ref (st.pos + 2) in
      while at !i = Token.LBRACKET && at (!i + 1) = Token.RBRACKET do
        i := !i + 2
      done;
      at !i = Token.RPAREN && starts_expr (at (!i + 1))
    | _ -> false
  end

and parse_postfix st =
  let e = ref (parse_primary st) in
  let rec go () =
    match cur_tok st with
    | Token.DOT ->
      let loc = cur_loc st in
      advance st;
      let name = expect_ident st in
      if cur_tok st = Token.LPAREN then begin
        let args = parse_args st in
        e := { Ast.e_kind = Ast.Ecall (Ast.Cmethod (!e, name), args); e_loc = loc }
      end
      else e := { Ast.e_kind = Ast.Efield (!e, name); e_loc = loc };
      go ()
    | Token.LBRACKET ->
      let loc = cur_loc st in
      advance st;
      let idx = parse_expr st in
      expect st Token.RBRACKET;
      e := { Ast.e_kind = Ast.Eindex (!e, idx); e_loc = loc };
      go ()
    | Token.PLUSPLUS ->
      let loc = cur_loc st in
      advance st;
      let lv =
        match (!e).Ast.e_kind with
        | Ast.Eident x -> Ast.Lident (x, (!e).Ast.e_loc)
        | Ast.Efield (b, f) -> Ast.Lfield (b, f, (!e).Ast.e_loc)
        | Ast.Eindex (b, i) -> Ast.Lindex (b, i, (!e).Ast.e_loc)
        | _ -> raise (Parse_error ("++ applies only to assignable expressions", loc))
      in
      e := { Ast.e_kind = Ast.Epostincr lv; e_loc = loc };
      go ()
    | _ -> ()
  in
  go ();
  !e

and parse_args st : Ast.expr list =
  expect st Token.LPAREN;
  if cur_tok st = Token.RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let e = parse_expr st in
      if cur_tok st = Token.COMMA then begin
        advance st;
        go (e :: acc)
      end
      else begin
        expect st Token.RPAREN;
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_primary st : Ast.expr =
  let loc = cur_loc st in
  match cur_tok st with
  | Token.INT n -> advance st; { Ast.e_kind = Ast.Eint n; e_loc = loc }
  | Token.STRING s -> advance st; { Ast.e_kind = Ast.Estr s; e_loc = loc }
  | Token.KW_true -> advance st; { Ast.e_kind = Ast.Ebool true; e_loc = loc }
  | Token.KW_false -> advance st; { Ast.e_kind = Ast.Ebool false; e_loc = loc }
  | Token.KW_null -> advance st; { Ast.e_kind = Ast.Enull; e_loc = loc }
  | Token.KW_this -> advance st; { Ast.e_kind = Ast.Ethis; e_loc = loc }
  | Token.KW_new ->
    advance st;
    let base =
      match cur_tok st with
      | Token.KW_int -> advance st; Ast.Sint
      | Token.KW_boolean -> advance st; Ast.Sbool
      | Token.IDENT s -> advance st; Ast.Sclass s
      | t -> error st (Printf.sprintf "expected type after 'new', found '%s'" (Token.to_string t))
    in
    if cur_tok st = Token.LBRACKET then begin
      advance st;
      let len = parse_expr st in
      expect st Token.RBRACKET;
      (* trailing [] pairs make multi-dimensional array types *)
      let elem = ref base in
      while cur_tok st = Token.LBRACKET && peek_tok st 1 = Token.RBRACKET do
        advance st;
        advance st;
        elem := Ast.Sarray !elem
      done;
      { Ast.e_kind = Ast.Enew_array (!elem, len); e_loc = loc }
    end
    else begin
      match base with
      | Ast.Sclass c ->
        let args = parse_args st in
        { Ast.e_kind = Ast.Enew (c, args); e_loc = loc }
      | _ -> error st "cannot instantiate a primitive type"
    end
  | Token.IDENT name ->
    (* bare call, static member access, or plain identifier *)
    if peek_tok st 1 = Token.LPAREN then begin
      advance st;
      let args = parse_args st in
      { Ast.e_kind = Ast.Ecall (Ast.Cbare name, args); e_loc = loc }
    end
    else if
      is_upper_ident (Token.IDENT name)
      && peek_tok st 1 = Token.DOT
      && (match peek_tok st 2 with Token.IDENT _ -> true | _ -> false)
      && peek_tok st 3 = Token.LPAREN
    then begin
      (* Class.method(args) *)
      advance st;
      advance st;
      let m = expect_ident st in
      let args = parse_args st in
      { Ast.e_kind = Ast.Ecall (Ast.Cstatic (name, m), args); e_loc = loc }
    end
    else begin
      advance st;
      { Ast.e_kind = Ast.Eident name; e_loc = loc }
    end
  | Token.KW_super ->
    if peek_tok st 1 = Token.LPAREN then begin
      advance st;
      let args = parse_args st in
      { Ast.e_kind = Ast.Ecall (Ast.Csuper, args); e_loc = loc }
    end
    else error st "'super' is only supported as a constructor call: super(...)"
  | Token.LPAREN ->
    if is_cast st then begin
      advance st;
      let ty = parse_type st in
      expect st Token.RPAREN;
      let e = parse_unary st in
      { Ast.e_kind = Ast.Ecast (ty, e); e_loc = loc }
    end
    else begin
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
    end
  | t -> error st (Printf.sprintf "expected expression, found '%s'" (Token.to_string t))

(* ---------------- statements ---------------- *)

let rec parse_stmt st : Ast.stmt =
  let loc = cur_loc st in
  match cur_tok st with
  | Token.LBRACE ->
    { Ast.s_kind = Ast.Sblock (parse_block st); s_loc = loc }
  | Token.KW_if ->
    advance st;
    expect st Token.LPAREN;
    let cond = parse_expr st in
    expect st Token.RPAREN;
    let then_ = parse_stmt_as_list st in
    let else_ =
      if cur_tok st = Token.KW_else then begin
        advance st;
        parse_stmt_as_list st
      end
      else []
    in
    { Ast.s_kind = Ast.Sif (cond, then_, else_); s_loc = loc }
  | Token.KW_while ->
    advance st;
    expect st Token.LPAREN;
    let cond = parse_expr st in
    expect st Token.RPAREN;
    let body = parse_stmt_as_list st in
    { Ast.s_kind = Ast.Swhile (cond, body); s_loc = loc }
  | Token.KW_for -> parse_for st loc
  | Token.KW_return ->
    advance st;
    let e = if cur_tok st = Token.SEMI then None else Some (parse_expr st) in
    expect st Token.SEMI;
    { Ast.s_kind = Ast.Sreturn e; s_loc = loc }
  | Token.KW_throw ->
    advance st;
    let e = parse_expr st in
    expect st Token.SEMI;
    { Ast.s_kind = Ast.Sthrow e; s_loc = loc }
  | Token.KW_break ->
    advance st;
    expect st Token.SEMI;
    { Ast.s_kind = Ast.Sbreak; s_loc = loc }
  | Token.KW_continue ->
    if st.for_depth > 0 then
      error st "'continue' inside 'for' is not supported (for desugars to while)";
    advance st;
    expect st Token.SEMI;
    { Ast.s_kind = Ast.Scontinue; s_loc = loc }
  | _ when looks_like_decl st ->
    let ty = parse_type st in
    let name = expect_ident st in
    let init =
      if cur_tok st = Token.ASSIGN then begin
        advance st;
        Some (parse_expr st)
      end
      else None
    in
    expect st Token.SEMI;
    { Ast.s_kind = Ast.Sdecl (ty, name, init); s_loc = loc }
  | _ ->
    let s = parse_simple_stmt st loc in
    expect st Token.SEMI;
    s

(* assignment / call / post-increment, without the trailing ';' (shared with
   [for] headers). *)
and parse_simple_stmt st loc : Ast.stmt =
  let e = parse_expr st in
  if cur_tok st = Token.ASSIGN then begin
    advance st;
    let rhs = parse_expr st in
    let lv =
      match e.Ast.e_kind with
      | Ast.Eident x -> Ast.Lident (x, e.Ast.e_loc)
      | Ast.Efield (b, f) -> Ast.Lfield (b, f, e.Ast.e_loc)
      | Ast.Eindex (b, i) -> Ast.Lindex (b, i, e.Ast.e_loc)
      | _ -> raise (Parse_error ("invalid assignment target", e.Ast.e_loc))
    in
    { Ast.s_kind = Ast.Sassign (lv, rhs); s_loc = loc }
  end
  else begin
    match e.Ast.e_kind with
    | Ast.Ecall _ | Ast.Epostincr _ | Ast.Enew _ ->
      { Ast.s_kind = Ast.Sexpr e; s_loc = loc }
    | _ -> raise (Parse_error ("expression statement must be a call, new, or ++", loc))
  end

and parse_for st loc : Ast.stmt =
  advance st;
  expect st Token.LPAREN;
  let init : Ast.stmt option =
    if cur_tok st = Token.SEMI then begin
      advance st;
      None
    end
    else if looks_like_decl st then begin
      let dloc = cur_loc st in
      let ty = parse_type st in
      let name = expect_ident st in
      expect st Token.ASSIGN;
      let e = parse_expr st in
      expect st Token.SEMI;
      Some { Ast.s_kind = Ast.Sdecl (ty, name, Some e); s_loc = dloc }
    end
    else begin
      let s = parse_simple_stmt st (cur_loc st) in
      expect st Token.SEMI;
      Some s
    end
  in
  let cond =
    if cur_tok st = Token.SEMI then
      { Ast.e_kind = Ast.Ebool true; e_loc = cur_loc st }
    else parse_expr st
  in
  expect st Token.SEMI;
  let update =
    if cur_tok st = Token.RPAREN then None
    else Some (parse_simple_stmt st (cur_loc st))
  in
  expect st Token.RPAREN;
  st.for_depth <- st.for_depth + 1;
  let body = parse_stmt_as_list st in
  st.for_depth <- st.for_depth - 1;
  let while_body = body @ Option.to_list update in
  let w = { Ast.s_kind = Ast.Swhile (cond, while_body); s_loc = loc } in
  { Ast.s_kind = Ast.Sblock (Option.to_list init @ [ w ]); s_loc = loc }

and parse_stmt_as_list st : Ast.stmt list =
  if cur_tok st = Token.LBRACE then parse_block st else [ parse_stmt st ]

and parse_block st : Ast.stmt list =
  expect st Token.LBRACE;
  let rec go acc =
    if cur_tok st = Token.RBRACE then begin
      advance st;
      List.rev acc
    end
    else go (parse_stmt st :: acc)
  in
  go []

(* ---------------- declarations ---------------- *)

let parse_params st : Ast.param list =
  expect st Token.LPAREN;
  if cur_tok st = Token.RPAREN then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let loc = cur_loc st in
      let ty = parse_type st in
      let name = expect_ident st in
      let p = { Ast.p_name = name; p_ty = ty; p_loc = loc } in
      if cur_tok st = Token.COMMA then begin
        advance st;
        go (p :: acc)
      end
      else begin
        expect st Token.RPAREN;
        List.rev (p :: acc)
      end
    in
    go []
  end

let parse_class st : Ast.class_decl =
  let loc = cur_loc st in
  expect st Token.KW_class;
  let name = expect_ident st in
  let super =
    if cur_tok st = Token.KW_extends then begin
      advance st;
      Some (expect_ident st)
    end
    else None
  in
  expect st Token.LBRACE;
  let fields = ref [] in
  let methods = ref [] in
  while cur_tok st <> Token.RBRACE do
    let mloc = cur_loc st in
    let static =
      if cur_tok st = Token.KW_static then begin
        advance st;
        true
      end
      else false
    in
    (* constructor: ClassName '(' *)
    if (not static) && cur_tok st = Token.IDENT name && peek_tok st 1 = Token.LPAREN
    then begin
      advance st;
      let params = parse_params st in
      let body = parse_block st in
      methods :=
        { Ast.md_name = Types.constructor_name;
          md_static = false;
          md_params = params;
          md_ret = Ast.Svoid;
          md_body = body;
          md_is_ctor = true;
          md_loc = mloc }
        :: !methods
    end
    else begin
      let ty = parse_type st in
      let mname = expect_ident st in
      if cur_tok st = Token.LPAREN then begin
        let params = parse_params st in
        let body = parse_block st in
        methods :=
          { Ast.md_name = mname;
            md_static = static;
            md_params = params;
            md_ret = ty;
            md_body = body;
            md_is_ctor = false;
            md_loc = mloc }
          :: !methods
      end
      else begin
        let init =
          if cur_tok st = Token.ASSIGN then begin
            advance st;
            Some (parse_expr st)
          end
          else None
        in
        expect st Token.SEMI;
        if init <> None && not static then
          raise
            (Parse_error ("instance field initializers are not supported; assign in the constructor", mloc));
        fields :=
          { Ast.fd_name = mname; fd_ty = ty; fd_static = static; fd_init = init; fd_loc = mloc }
          :: !fields
      end
    end
  done;
  expect st Token.RBRACE;
  { Ast.cd_name = name;
    cd_super = super;
    cd_fields = List.rev !fields;
    cd_methods = List.rev !methods;
    cd_loc = loc }

let parse_unit ~(file : string) (toks : Token.located list) : Ast.compilation_unit =
  let st = make toks in
  let decls = ref [] in
  while cur_tok st <> Token.EOF do
    if cur_tok st = Token.KW_class then decls := Ast.Dclass (parse_class st) :: !decls
    else begin
      let loc = cur_loc st in
      let ty = parse_type st in
      let name = expect_ident st in
      if cur_tok st <> Token.LPAREN then
        error st "top-level declarations must be classes or functions";
      let params = parse_params st in
      let body = parse_block st in
      decls :=
        Ast.Dfunc
          { Ast.md_name = name;
            md_static = true;
            md_params = params;
            md_ret = ty;
            md_body = body;
            md_is_ctor = false;
            md_loc = loc }
        :: !decls
    end
  done;
  { Ast.cu_file = file; cu_decls = List.rev !decls }

let parse_string ?line ~(file : string) (src : string) : Ast.compilation_unit =
  let tokens =
    Slice_obs.span "front.lex" (fun () -> Lexer.tokenize ?line ~file src)
  in
  Slice_obs.span "front.parse" (fun () -> parse_unit ~file tokens)
