(* Control-flow graph views over a method body: successor/predecessor maps,
   reverse postorder, reachability.  Blocks are identified by their labels,
   which index the method's block array. *)

type t = {
  meth : Instr.meth;
  succ : int list array;
  pred : int list array;
  entry : Instr.label;
  (* Labels of blocks whose terminator leaves the method. *)
  exits : Instr.label list;
}

let build (m : Instr.meth) : t =
  let blocks = Instr.blocks_exn m in
  let n = Array.length blocks in
  let succ = Array.make n [] in
  let pred = Array.make n [] in
  let exits = ref [] in
  Array.iter
    (fun b ->
      let l = b.Instr.b_label in
      let targets = Instr.term_targets b.Instr.b_term in
      succ.(l) <- targets;
      if targets = [] then exits := l :: !exits;
      List.iter (fun t -> pred.(t) <- l :: pred.(t)) targets)
    blocks;
  Array.iteri (fun i ps -> pred.(i) <- List.rev ps) pred;
  { meth = m; succ; pred; entry = Instr.entry_label m; exits = List.rev !exits }

let num_blocks (g : t) = Array.length g.succ
let successors (g : t) (l : Instr.label) = g.succ.(l)
let predecessors (g : t) (l : Instr.label) = g.pred.(l)

(* Depth-first reverse postorder from the entry; unreachable blocks are
   excluded (dominance and SSA only consider reachable code). *)
let reverse_postorder (g : t) : Instr.label list =
  let n = num_blocks g in
  let visited = Array.make n false in
  let order = ref [] in
  let rec go l =
    if not visited.(l) then begin
      visited.(l) <- true;
      List.iter go g.succ.(l);
      order := l :: !order
    end
  in
  go g.entry;
  !order
