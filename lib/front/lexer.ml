(* Hand-written lexer for TJ.  Produces the full token list up front; TJ
   sources are small enough that streaming buys nothing. *)

open Slice_ir

exception Lex_error of string * Loc.t

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;                 (* offset of the beginning of line *)
}

(* [line] is the line number of the source's first byte: a fragment cut
   from a larger file keeps its tokens at the file's lines. *)
let make ?(line = 1) ~file src = { src; file; pos = 0; line; bol = 0 }

let loc st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol + 1)

(* The character at the cursor and the one after it, ['\000'] past the
   end of input.  A source may itself contain a NUL byte, so a caller
   that must tell the two apart checks [at_end]. *)
let at_end st = st.pos >= String.length st.src

let peek st = if at_end st then '\000' else String.unsafe_get st.src st.pos

let peek2 st =
  if st.pos + 1 < String.length st.src then String.unsafe_get st.src (st.pos + 1)
  else '\000'

let advance st =
  if peek st = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident_char c = is_ident_start c || is_digit c

let rec skip_trivia st =
  match peek st with
  | ' ' | '\t' | '\r' | '\n' ->
    advance st;
    skip_trivia st
  | '/' when peek2 st = '/' ->
    while not (at_end st) && peek st <> '\n' do advance st done;
    skip_trivia st
  | '/' when peek2 st = '*' ->
    let start = loc st in
    advance st;
    advance st;
    let rec close () =
      match peek st with
      | '*' when peek2 st = '/' ->
        advance st;
        advance st
      | '\000' when at_end st ->
        raise (Lex_error ("unterminated block comment", start))
      | _ ->
        advance st;
        close ()
    in
    close ();
    skip_trivia st
  | _ -> ()

let lex_number st =
  let start = st.pos in
  while is_digit (peek st) do advance st done;
  Token.INT (int_of_string (String.sub st.src start (st.pos - start)))

let lex_ident st =
  let start = st.pos in
  while is_ident_char (peek st) do advance st done;
  let word = String.sub st.src start (st.pos - start) in
  match Token.keyword_of_string word with
  | Some kw -> kw
  | None -> Token.IDENT word

let lex_string st =
  let start_loc = loc st in
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | '\000' when at_end st ->
      raise (Lex_error ("unterminated string literal", start_loc))
    | '\n' -> raise (Lex_error ("unterminated string literal", start_loc))
    | '"' -> advance st
    | '\\' -> (
      advance st;
      match peek st with
      | 'n' -> Buffer.add_char buf '\n'; advance st; go ()
      | 't' -> Buffer.add_char buf '\t'; advance st; go ()
      | '"' -> Buffer.add_char buf '"'; advance st; go ()
      | '\\' -> Buffer.add_char buf '\\'; advance st; go ()
      | '\000' when at_end st ->
        raise (Lex_error ("unterminated string literal", start_loc))
      | c -> raise (Lex_error (Printf.sprintf "bad escape \\%c" c, loc st)))
    | c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Token.STRING (Buffer.contents buf)

let next_token st : Token.located =
  skip_trivia st;
  let l = loc st in
  let simple tok = advance st; tok in
  let tok =
    match peek st with
    | '\000' when at_end st -> Token.EOF
    | c when is_digit c -> lex_number st
    | c when is_ident_start c -> lex_ident st
    | '"' -> lex_string st
    | '(' -> simple Token.LPAREN
    | ')' -> simple Token.RPAREN
    | '{' -> simple Token.LBRACE
    | '}' -> simple Token.RBRACE
    | '[' -> simple Token.LBRACKET
    | ']' -> simple Token.RBRACKET
    | ';' -> simple Token.SEMI
    | ',' -> simple Token.COMMA
    | '.' -> simple Token.DOT
    | '+' ->
      advance st;
      if peek st = '+' then (advance st; Token.PLUSPLUS) else Token.PLUS
    | '-' -> simple Token.MINUS
    | '*' -> simple Token.STAR
    | '/' -> simple Token.SLASH
    | '%' -> simple Token.PERCENT
    | '=' ->
      advance st;
      if peek st = '=' then (advance st; Token.EQ) else Token.ASSIGN
    | '<' ->
      advance st;
      if peek st = '=' then (advance st; Token.LE) else Token.LT
    | '>' ->
      advance st;
      if peek st = '=' then (advance st; Token.GE) else Token.GT
    | '!' ->
      advance st;
      if peek st = '=' then (advance st; Token.NE) else Token.NOT
    | '&' ->
      advance st;
      if peek st = '&' then (advance st; Token.AND)
      else raise (Lex_error ("expected &&", l))
    | '|' ->
      advance st;
      if peek st = '|' then (advance st; Token.OR)
      else raise (Lex_error ("expected ||", l))
    | c -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, l))
  in
  { Token.tok; loc = l }

let c_tokens = Slice_obs.counter "front.tokens"
let c_lines = Slice_obs.counter "front.lines"

let tokenize ?(line = 1) ~(file : string) (src : string) : Token.located list =
  let st = make ~line ~file src in
  let rec go acc =
    let t = next_token st in
    if t.Token.tok = Token.EOF then List.rev (t :: acc) else go (t :: acc)
  in
  let toks = go [] in
  Slice_obs.add c_tokens (List.length toks);
  Slice_obs.add c_lines (st.line - line + 1);
  toks
