(* The pre-CSR slice walk, verbatim: Hashtbl visited/budget table,
   stdlib Queue with stale-entry re-enqueues, and a polymorphic-compare
   sort of the result.  Runs over the [Sdg.deps]/[Sdg.uses] list views,
   allocating a row per visit, and bumps no telemetry.  It is the
   semantic oracle for [Slice_core.Slicer]'s CSR walk: it shares only
   the mode's edge policy and the clamped initial budget. *)

open Slice_core

let walk (next : Sdg.t -> Sdg.node -> (Sdg.node * Sdg.edge_kind) list)
    (g : Sdg.t) ~(seeds : Sdg.node list) (mode : Slicer.mode) : Sdg.node list =
  let best : (Sdg.node, int) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  let push n budget =
    match Hashtbl.find_opt best n with
    | Some b when b >= budget -> ()
    | Some _ | None ->
      Hashtbl.replace best n budget;
      Queue.add (n, budget) queue
  in
  List.iter (fun s -> push s (Slicer.initial_budget mode)) seeds;
  while not (Queue.is_empty queue) do
    let n, budget = Queue.pop queue in
    (* stale entries: a better budget may have been recorded since *)
    if Hashtbl.find_opt best n = Some budget then
      List.iter
        (fun (dep, kind) ->
          match Slicer.edge_policy mode kind with
          | `Follow -> push dep budget
          | `Costly -> if budget > 0 then push dep (budget - 1)
          | `Skip -> ())
        (next g n)
  done;
  List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) best [])

let slice g ~seeds mode = walk Sdg.deps g ~seeds mode
let forward_slice g ~seeds mode = walk Sdg.uses g ~seeds mode

let slice_lines g ~seeds mode = Slicer.nodes_to_lines g (slice g ~seeds mode)
