(** Recursive-descent parser for TJ.

    Disambiguation conventions (see the README):
    - class names start uppercase, variables lowercase, which resolves the
      cast-vs-parenthesization ambiguity: [(Foo) x] is a cast, [(foo)] a
      parenthesized expression;
    - [for] desugars into [while] at parse time; [continue] inside [for]
      is rejected because it would skip the update expression. *)

exception Parse_error of string * Slice_ir.Loc.t

val parse_unit : file:string -> Token.located list -> Ast.compilation_unit

(** [line] is the line number of the text's first byte (default 1). *)
val parse_string : ?line:int -> file:string -> string -> Ast.compilation_unit
