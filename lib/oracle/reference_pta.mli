(** The original list/tree Andersen solver ([Set.Make(Int)] points-to
    sets, LIFO [(node, delta)] worklist), kept as the oracle for the
    bitset solver ({!Slice_pta.Andersen}).  Its dumps use the shared
    {!Slice_pta.Pta_dump} keys, so they are byte-comparable with
    {!Slice_pta.Andersen.pts_dump} and
    {!Slice_pta.Andersen.call_graph_dump}. *)

open Slice_ir

type result

val analyze : ?opts:Slice_pta.Andersen.opts -> Program.t -> result
val num_objects : result -> int
val pts_dump : result -> (string * string list) list
val call_graph_dump : result -> (string * string list) list
