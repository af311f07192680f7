(* Lexer unit tests. *)

open Slice_front

let toks src =
  List.map (fun t -> t.Token.tok) (Lexer.tokenize ~file:"t.tj" src)

let tok_pp = Fmt.of_to_string Token.to_string
let tok = Alcotest.testable tok_pp ( = )

let check_toks msg expected src =
  Alcotest.(check (list tok)) msg (expected @ [ Token.EOF ]) (toks src)

let test_punctuation () =
  check_toks "operators"
    [ Token.LPAREN; Token.RPAREN; Token.PLUS; Token.PLUSPLUS; Token.MINUS;
      Token.STAR; Token.SLASH; Token.PERCENT; Token.SEMI ]
    "( ) + ++ - * / % ;"

let test_comparisons () =
  check_toks "comparisons"
    [ Token.LT; Token.LE; Token.GT; Token.GE; Token.EQ; Token.NE;
      Token.ASSIGN; Token.NOT; Token.AND; Token.OR ]
    "< <= > >= == != = ! && ||"

let test_keywords_vs_idents () =
  check_toks "keywords"
    [ Token.KW_class; Token.IDENT "classy"; Token.KW_if; Token.IDENT "iffy";
      Token.KW_new; Token.KW_this; Token.KW_instanceof ]
    "class classy if iffy new this instanceof"

let test_numbers () =
  check_toks "numbers" [ Token.INT 0; Token.INT 42; Token.INT 1234567 ] "0 42 1234567"

let test_strings () =
  check_toks "plain string" [ Token.STRING "hello world" ] {|"hello world"|};
  check_toks "escapes"
    [ Token.STRING "a\nb\tc\"d\\e" ]
    {|"a\nb\tc\"d\\e"|};
  (* a NUL byte is a character like any other, not the end of input *)
  check_toks "NUL inside a string" [ Token.STRING "a\000b" ] "\"a\000b\""

let test_comments () =
  check_toks "line comment" [ Token.INT 1; Token.INT 2 ] "1 // comment\n2";
  check_toks "block comment" [ Token.INT 1; Token.INT 2 ] "1 /* x\ny */ 2";
  check_toks "line comment to end of input" [ Token.INT 1 ] "1 // comment"

let test_locations () =
  let located = Lexer.tokenize ~file:"t.tj" "a\n  b" in
  match located with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "a line" 1 a.Token.loc.Slice_ir.Loc.line;
    Alcotest.(check int) "a col" 1 a.Token.loc.Slice_ir.Loc.col;
    Alcotest.(check int) "b line" 2 b.Token.loc.Slice_ir.Loc.line;
    Alcotest.(check int) "b col" 3 b.Token.loc.Slice_ir.Loc.col
  | _ -> Alcotest.fail "expected three tokens"

let expect_lex_error src =
  match Lexer.tokenize ~file:"t.tj" src with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected a lexical error"

let test_errors () =
  expect_lex_error "\"unterminated";
  expect_lex_error "/* unterminated";
  expect_lex_error "a & b";
  expect_lex_error "a | b";
  expect_lex_error "@";
  expect_lex_error "a \000 b";
  expect_lex_error "\"escape at the end\\";
  expect_lex_error "\"bad \\q escape\""

let suite =
  [ Alcotest.test_case "punctuation" `Quick test_punctuation;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "keywords vs idents" `Quick test_keywords_vs_idents;
    Alcotest.test_case "numbers" `Quick test_numbers;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "locations" `Quick test_locations;
    Alcotest.test_case "errors" `Quick test_errors ]
