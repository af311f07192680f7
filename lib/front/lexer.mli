(** Hand-written lexer for TJ.  Produces the full token list up front; TJ
    sources are small enough that streaming buys nothing. *)

exception Lex_error of string * Slice_ir.Loc.t

(** Tokenize a source text; the result always ends with [EOF].  Comments
    ([//] and [/* */]) and whitespace are skipped; raises {!Lex_error} on
    unterminated strings/comments and stray characters.  [line] (default
    1) is the line number of the text's first byte, so a fragment of a
    file lexes to the locations it has in the file. *)
val tokenize : ?line:int -> file:string -> string -> Token.located list
