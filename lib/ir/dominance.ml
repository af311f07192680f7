(* Dominator trees and dominance frontiers, via the Cooper-Harvey-Kennedy
   iterative algorithm ("A Simple, Fast Dominance Algorithm").

   The computation is expressed over an abstract rooted digraph so that the
   same code computes dominators (forward CFG from the entry) and
   postdominators (reverse CFG from a virtual exit). *)

type graph = {
  num_nodes : int;
  entry : int;
  preds : int -> int list;
  succs : int -> int list;
}

type t = {
  graph : graph;
  (* [idom.(v)] is the immediate dominator of [v]; [idom.(entry) = entry];
     [-1] for nodes unreachable from the entry. *)
  idom : int array;
  (* reverse postorder position of each node; [-1] if unreachable *)
  rpo_num : int array;
  rpo : int list;
}

let forward_graph (g : Cfg.t) : graph =
  { num_nodes = Cfg.num_blocks g;
    entry = g.Cfg.entry;
    preds = (fun l -> Cfg.predecessors g l);
    succs = (fun l -> Cfg.successors g l) }

(* Reverse CFG with a virtual exit node appended at index [num_blocks].
   Every method exit (return/throw block) gets an edge to the virtual exit.
   Blocks on paths that never leave the method (infinite loops) remain
   unreachable in this graph and get no postdominator. *)
let backward_graph (g : Cfg.t) : graph =
  let n = Cfg.num_blocks g in
  let virtual_exit = n in
  let is_exit = Array.make n false in
  List.iter (fun l -> is_exit.(l) <- true) g.Cfg.exits;
  (* In the reversed orientation the virtual exit is the entry: its
     successors are the method's exit blocks, and each exit block gains the
     virtual exit as a predecessor. *)
  let preds l =
    if l = virtual_exit then []
    else if is_exit.(l) then virtual_exit :: Cfg.successors g l
    else Cfg.successors g l
  in
  let succs l =
    if l = virtual_exit then g.Cfg.exits else Cfg.predecessors g l
  in
  { num_nodes = n + 1; entry = virtual_exit; preds; succs }

let compute_rpo (g : graph) : int list =
  let visited = Array.make g.num_nodes false in
  let order = ref [] in
  let rec go v =
    if not visited.(v) then begin
      visited.(v) <- true;
      List.iter go (g.succs v);
      order := v :: !order
    end
  in
  go g.entry;
  !order

let compute (g : graph) : t =
  let rpo = compute_rpo g in
  let rpo_num = Array.make g.num_nodes (-1) in
  List.iteri (fun i v -> rpo_num.(v) <- i) rpo;
  let idom = Array.make g.num_nodes (-1) in
  idom.(g.entry) <- g.entry;
  let rec intersect a b =
    if a = b then a
    else if rpo_num.(a) > rpo_num.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun v ->
        if v <> g.entry then begin
          let processed_preds =
            List.filter (fun p -> idom.(p) <> -1) (g.preds v)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left intersect first rest in
            if idom.(v) <> new_idom then begin
              idom.(v) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  { graph = g; idom; rpo_num; rpo }

let idom (d : t) (v : int) : int option =
  if v = d.graph.entry || d.idom.(v) = -1 then None else Some d.idom.(v)

let reachable (d : t) (v : int) : bool = d.idom.(v) <> -1

(* Reflexive dominance test by walking the idom chain. *)
let dominates (d : t) ~(dom : int) ~(node : int) : bool =
  if not (reachable d node) then false
  else begin
    let rec up v = if v = dom then true else if v = d.graph.entry then false else up d.idom.(v) in
    up node
  end

(* Children lists of the dominator tree. *)
let dom_tree (d : t) : int list array =
  let children = Array.make d.graph.num_nodes [] in
  Array.iteri
    (fun v iv ->
      if iv <> -1 && v <> d.graph.entry then children.(iv) <- v :: children.(iv))
    d.idom;
  Array.map List.rev children

(* Dominance frontiers (Cytron et al.): [df.(b)] is the set of nodes where
   b's dominance stops.  Each [v] adds all its entries before the next [v]
   starts, so [last.(b) = v] (the last writer of [df.(b)]) is a repeat
   test that needs no scan of the list. *)
let dominance_frontiers (d : t) : int list array =
  let n = d.graph.num_nodes in
  let df = Array.make n [] in
  let last = Array.make n (-1) in
  let add b v =
    if last.(b) <> v then begin
      last.(b) <- v;
      df.(b) <- v :: df.(b)
    end
  in
  for v = 0 to n - 1 do
    if reachable d v then begin
      let preds = List.filter (fun p -> reachable d p) (d.graph.preds v) in
      if List.length preds >= 2 then
        (* Walking up from each predecessor must reach idom(v), since
           idom(v) dominates every predecessor of v. *)
        List.iter
          (fun p ->
            let rec runner b =
              if b <> d.idom.(v) then begin
                add b v;
                runner d.idom.(b)
              end
            in
            runner p)
          preds
    end
  done;
  df
