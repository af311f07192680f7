(* The evaluation metric of the paper (section 6.1): simulate a user
   exploring the dependence graph outward from the seed in breadth-first
   order (as with CodeSurfer-style browsing [19]), and count how many
   distinct source statements she inspects before discovering all the
   desired statements.

   Counting is at source-line granularity: a source statement lowered to
   several IR instructions is inspected once.  Synthetic nodes (formals,
   phis, gotos) are traversed but not counted. *)

type report = {
  inspected : int;             (* statements read until all desired found *)
  found : bool;                (* were all desired statements discovered? *)
  slice_size : int;            (* total statements in the full slice *)
  order : (string * int) list; (* (file, line) in inspection order *)
  order_depths : int list;     (* BFS layer each counted line first appears
                                  in; parallel to [order] *)
}

(* BFS over dependence edges honoring the slicing mode; stops once every
   desired (file-agnostic) line has been seen. *)
let bfs (g : Sdg.t) ~(seeds : Sdg.node list) ~(desired : int list)
    (mode : Slicer.mode) : report =
  let best : (Sdg.node, int) Hashtbl.t = Hashtbl.create 256 in
  let counted : (string * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let depths = ref [] in
  let depth = ref 0 in
  let remaining = ref (List.sort_uniq compare desired) in
  let inspected_when_found = ref None in
  let count_node n =
    if Sdg.node_countable g n then begin
      let loc = Sdg.node_loc g n in
      let key = (loc.Slice_ir.Loc.file, loc.Slice_ir.Loc.line) in
      if not (Hashtbl.mem counted key) then begin
        Hashtbl.replace counted key ();
        order := key :: !order;
        depths := !depth :: !depths;
        remaining := List.filter (fun l -> l <> loc.Slice_ir.Loc.line) !remaining;
        if !remaining = [] && !inspected_when_found = None then
          inspected_when_found := Some (Hashtbl.length counted)
      end
    end
  in
  (* Layered BFS for a deterministic, distance-respecting inspection order. *)
  let layer = ref [] in
  let push n budget =
    match Hashtbl.find_opt best n with
    | Some b when b >= budget -> ()
    | Some _ | None ->
      Hashtbl.replace best n budget;
      layer := (n, budget) :: !layer
  in
  List.iter (fun s -> push s (Slicer.initial_budget mode)) seeds;
  while !layer <> [] do
    let current = List.sort compare (List.rev !layer) in
    layer := [];
    (* count this layer first, then expand *)
    List.iter (fun (n, _) -> count_node n) current;
    List.iter
      (fun (n, budget) ->
        Sdg.deps_iter g n (fun dep t ->
            match Slicer.edge_policy mode (Sdg.edge_kind_of_tag t) with
            | `Follow -> push dep budget
            | `Costly -> if budget > 0 then push dep (budget - 1)
            | `Skip -> ()))
      current;
    incr depth
  done;
  let slice_size = Hashtbl.length counted in
  let order = List.rev !order and order_depths = List.rev !depths in
  match !inspected_when_found with
  | Some k -> { inspected = k; found = true; slice_size; order; order_depths }
  | None ->
    { inspected = slice_size; found = false; slice_size; order; order_depths }
