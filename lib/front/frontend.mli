(** End-to-end frontend driver: TJ source text -> typed IR program in SSA
    form (lex, parse, declare, lower, SSA-convert). *)

open Slice_ir

type error = {
  err_msg : string;
  err_loc : Loc.t;
  err_phase : [ `Lex | `Parse | `Semantic | `Internal ];
}

val error_to_string : error -> string

exception Error of error

(** Load a single source text.  [container_classes] selects the classes
    the points-to analysis may treat object-sensitively (defaults to
    {!Declare.default_container_classes}: Vector, HashMap, Stack, ...). *)
val load_exn : ?container_classes:string list -> file:string -> string -> Program.t

(** Load several source texts as ONE program: each [(file, src)] unit is
    parsed with its own file name (so every location keeps the file it
    came from), then the concatenated declarations are declared, lowered
    and SSA-converted in a single pass — classes may reference classes
    from any other unit regardless of order. *)
val load_many_exn :
  ?container_classes:string list -> (string * string) list -> Program.t

val load :
  ?container_classes:string list ->
  file:string ->
  string ->
  (Program.t, error) result
