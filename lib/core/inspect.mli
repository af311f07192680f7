(** The paper's evaluation metric (section 6.1): simulate a user exploring
    the dependence graph outward from the seed in breadth-first order (as
    with CodeSurfer-style browsing [19]) and count how many distinct
    source statements she inspects before discovering all the desired
    statements.

    Counting is at source-line granularity; synthetic nodes (formals,
    phis, gotos) are traversed but not counted. *)

type report = {
  inspected : int;  (** statements read until all desired were found *)
  found : bool;     (** were all desired statements discovered? *)
  slice_size : int; (** total statements in the full slice *)
  order : (string * int) list;
      (** (file, line) in inspection order, for debugging metrics *)
  order_depths : int list;
      (** the BFS layer each counted line first appears in, parallel to
          [order] — in budget-free modes this is exactly the
          {!Slicer.distance} provenance rank of the line's closest
          countable node *)
}

(** [bfs g ~seeds ~desired mode] explores from [seeds] under [mode]'s edge
    discipline (see {!Slicer.edge_policy}), layer by layer, and stops once
    every line in [desired] has been seen.  If some desired line is not
    reachable, [found] is false and [inspected] covers the whole slice. *)
val bfs :
  Sdg.t -> seeds:Sdg.node list -> desired:int list -> Slicer.mode -> report
