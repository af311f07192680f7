(* Context-sensitive slicing (paper, section 5.3).

   Unlike the scalable context-insensitive representation (direct heap
   edges, [Sdg]), this variant models heap accesses as extra parameters
   and return values on each procedure, discovered by the interprocedural
   mod-ref analysis [24], and answers slices as a partially balanced-
   parentheses reachability problem, i.e. the classic two-phase
   HRB backward slice over summary edges computed by tabulation [20, 21].

   The paper's own finding — reproduced by the bench harness — is that the
   heap-parameter SDG explodes with program size while barely changing the
   breadth-first inspection counts, which is why the evaluation uses the
   context-insensitive algorithm.  This module exists to measure exactly
   that. *)

open Slice_ir
open Slice_pta
open Slice_core

type loc = Modref.loc

(* Node universe.  Procedures are context-insensitive here (one PDG per
   method); context sensitivity comes from parenthesis matching. *)
type node_desc =
  | HStmt of string * Instr.stmt_id               (* method key, statement *)
  | HFormal of string * int                        (* parameter in *)
  | HFormal_heap_in of string * loc
  | HFormal_heap_out of string * loc
  | HRet of string                                 (* return formal-out *)
  | HActual_in of string * Instr.stmt_id * int
  | HActual_heap_in of string * Instr.stmt_id * loc
  | HActual_heap_out of string * Instr.stmt_id * loc

type edge_label =
  | Intra of Sdg.edge_kind       (* same-procedure; kind drives thin filter *)
  | Ascend of Instr.stmt_id      (* callee input  -> caller actual-in  (call site) *)
  | Descend of Instr.stmt_id     (* caller output -> callee output     (call site) *)
(* summary edges (actual-out -> actual-in at a call site) are stored
   separately in [t.summ], recomputed per mode *)

type mode = Thin | Traditional

let follows (mode : mode) (k : Sdg.edge_kind) : bool =
  match mode with
  | Traditional -> k <> Sdg.Control
  | Thin -> Sdg.is_producer k

type t = {
  p : Program.t;
  pta : Andersen.result;
  modref : Modref.t;
  mutable descs : node_desc array;
  mutable num_nodes : int;
  intern_tbl : (node_desc, int) Hashtbl.t;
  mutable deps : (int * edge_label) list array;    (* backward adjacency *)
  (* proc key -> its input nodes (formals), output nodes *)
  proc_of : (int, string) Hashtbl.t;               (* node -> proc key *)
  (* call sites of each procedure: (caller key, call stmt) list *)
  callers : (string, (string * Instr.stmt_id) list ref) Hashtbl.t;
  stmt_table : (Instr.stmt_id, Program.stmt_info) Hashtbl.t;
  (* summary edges (actual-out -> actual-in), recomputed per mode *)
  mutable summ : int list array;
  mutable summ_mode : mode option;
  mutable summ_count : int;
}

let num_nodes (t : t) = t.num_nodes
let node_desc (t : t) (n : int) = t.descs.(n)

let mq_key (mq : Instr.method_qname) = Instr.method_qname_to_string mq

let intern (t : t) (proc : string) (d : node_desc) : int =
  match Hashtbl.find_opt t.intern_tbl d with
  | Some n -> n
  | None ->
    let n = t.num_nodes in
    if n = Array.length t.descs then begin
      let grow a default =
        let b = Array.make (2 * n) default in
        Array.blit a 0 b 0 n;
        b
      in
      t.descs <- grow t.descs (HRet "");
      t.deps <- grow t.deps []
    end;
    t.descs.(n) <- d;
    t.num_nodes <- n + 1;
    Hashtbl.replace t.intern_tbl d n;
    Hashtbl.replace t.proc_of n proc;
    n

let add_edge (t : t) ~(from : int) ~(on : int) (l : edge_label) : unit =
  if not (List.mem (on, l) t.deps.(from)) then
    t.deps.(from) <- (on, l) :: t.deps.(from)

(* The abstract locations a statement's heap access may touch. *)
let locs_of_load (t : t) mq (i : Instr.instr) : loc list =
  let pts v =
    Andersen.ObjSet.elements (Andersen.pts_of_var_ci t.pta mq v)
  in
  match i.Instr.i_kind with
  | Instr.Load (_, y, f) -> List.map (fun o -> Modref.Lfield (o, f)) (pts y)
  | Instr.Array_load (_, a, _) ->
    List.map (fun o -> Modref.Lfield (o, Andersen.elem_field)) (pts a)
  | Instr.Array_length (_, a) -> List.map (fun o -> Modref.Larray_len o) (pts a)
  | Instr.Static_load (_, c, f) -> [ Modref.Lstatic (c, f) ]
  | _ -> []

let locs_of_store (t : t) mq (i : Instr.instr) : loc list =
  let pts v =
    Andersen.ObjSet.elements (Andersen.pts_of_var_ci t.pta mq v)
  in
  match i.Instr.i_kind with
  | Instr.Store (x, f, _) -> List.map (fun o -> Modref.Lfield (o, f)) (pts x)
  | Instr.Array_store (a, _, _) ->
    List.map (fun o -> Modref.Lfield (o, Andersen.elem_field)) (pts a)
  | Instr.New_array (x, _, _) -> List.map (fun o -> Modref.Larray_len o) (pts x)
  | Instr.Static_store (c, f, _) -> [ Modref.Lstatic (c, f) ]
  | _ -> []

(* mod/ref sets per method, context-insensitively. *)
let mod_of (t : t) (mq : Instr.method_qname) : Modref.LocSet.t =
  Modref.mod_of_method t.p t.pta t.modref mq

let ref_of (t : t) (mq : Instr.method_qname) : Modref.LocSet.t =
  Modref.ref_of_method t.p t.pta t.modref mq

let build (p : Program.t) (pta : Andersen.result) : t =
  let t =
    { p;
      pta;
      modref = Modref.compute p pta;
      descs = Array.make 1024 (HRet "");
      num_nodes = 0;
      intern_tbl = Hashtbl.create 1024;
      deps = Array.make 1024 [];
      proc_of = Hashtbl.create 1024;
      callers = Hashtbl.create 64;
      stmt_table = Program.build_stmt_table p;
      summ = [||];
      summ_mode = None;
      summ_count = 0 }
  in
  let methods = Andersen.reachable_methods pta in
  List.iter
    (fun mq ->
      let key = mq_key mq in
      let m = Program.find_method_exn p mq in
      if Instr.has_body m then begin
        let stmt s = intern t key (HStmt (key, s)) in
        let def_stmt = Hashtbl.create 64 in
        Instr.iter_instrs m (fun _ i ->
            match Instr.def_of_instr i with
            | Some v -> Hashtbl.replace def_stmt v i.Instr.i_id
            | None -> ());
        let param_index = Hashtbl.create 8 in
        List.iteri (fun idx v -> Hashtbl.replace param_index v idx) m.Instr.m_params;
        let def_target v =
          match Hashtbl.find_opt def_stmt v with
          | Some s -> Some (stmt s)
          | None -> (
            match Hashtbl.find_opt param_index v with
            | Some idx -> Some (intern t key (HFormal (key, idx)))
            | None -> None)
        in
        (* stores on each location, for intraprocedural heap wiring *)
        let stores_on : (loc, int list ref) Hashtbl.t = Hashtbl.create 32 in
        Instr.iter_instrs m (fun _ i ->
            List.iter
              (fun l ->
                let cell =
                  match Hashtbl.find_opt stores_on l with
                  | Some r -> r
                  | None ->
                    let r = ref [] in
                    Hashtbl.replace stores_on l r;
                    r
                in
                cell := stmt i.Instr.i_id :: !cell)
              (locs_of_store t mq i));
        (* calls in this method that may mod a location *)
        let call_outs_on : (loc, int list ref) Hashtbl.t = Hashtbl.create 32 in
        Instr.iter_instrs m (fun _ i ->
            match i.Instr.i_kind with
            | Instr.Call _ ->
              let callees =
                Andersen.call_targets_ci pta mq ~stmt:i.Instr.i_id
              in
              List.iter
                (fun n ->
                  Modref.LocSet.iter
                    (fun l ->
                      let node =
                        intern t key (HActual_heap_out (key, i.Instr.i_id, l))
                      in
                      let cell =
                        match Hashtbl.find_opt call_outs_on l with
                        | Some r -> r
                        | None ->
                          let r = ref [] in
                          Hashtbl.replace call_outs_on l r;
                          r
                      in
                      if not (List.mem node !cell) then cell := node :: !cell)
                    (mod_of t n))
                callees
            | _ -> ());
        let heap_sources (l : loc) : int list =
          let stores =
            match Hashtbl.find_opt stores_on l with Some r -> !r | None -> []
          in
          let calls =
            match Hashtbl.find_opt call_outs_on l with Some r -> !r | None -> []
          in
          let fin =
            if Modref.LocSet.mem l (ref_of t mq) then
              [ intern t key (HFormal_heap_in (key, l)) ]
            else []
          in
          stores @ calls @ fin
        in
        (* 1. local def-use and heap-read wiring per statement *)
        Instr.iter_instrs m (fun _ i ->
            let n = stmt i.Instr.i_id in
            (match i.Instr.i_kind with
            | Instr.Call { args; _ } ->
              let intr = ref false in
              List.iter
                (fun imq ->
                  ignore imq;
                  intr := true)
                (Andersen.intrinsic_targets_ci pta mq ~stmt:i.Instr.i_id);
              if !intr then
                List.iter
                  (fun a ->
                    match def_target a with
                    | Some d -> add_edge t ~from:n ~on:d (Intra Sdg.Producer_local)
                    | None -> ())
                  args
            | _ ->
              List.iter
                (fun (v, cls) ->
                  let kind =
                    match cls with
                    | Instr.Use_value -> Sdg.Producer_local
                    | Instr.Use_base -> Sdg.Base_pointer
                    | Instr.Use_index -> Sdg.Index
                  in
                  match def_target v with
                  | Some d -> add_edge t ~from:n ~on:d (Intra kind)
                  | None -> ())
                (Instr.classified_uses i));
            (* heap reads *)
            List.iter
              (fun l ->
                List.iter
                  (fun src -> add_edge t ~from:n ~on:src (Intra Sdg.Producer_heap))
                  (heap_sources l))
              (locs_of_load t mq i));
        Instr.iter_terms m (fun _ term ->
            let n = stmt term.Instr.t_id in
            List.iter
              (fun v ->
                match def_target v with
                | Some d -> add_edge t ~from:n ~on:d (Intra Sdg.Producer_local)
                | None -> ())
              (Instr.uses_of_term term);
            match term.Instr.t_kind with
            | Instr.Return (Some _) ->
              add_edge t ~from:(intern t key (HRet key)) ~on:n
                (Intra Sdg.Producer_local)
            | _ -> ());
        (* 2. heap formal-outs: transparent or written *)
        Modref.LocSet.iter
          (fun l ->
            let fo = intern t key (HFormal_heap_out (key, l)) in
            List.iter
              (fun src -> add_edge t ~from:fo ~on:src (Intra Sdg.Producer_heap))
              (heap_sources l))
          (mod_of t mq);
        (* 3. call sites: actuals, heap actuals, descend edges *)
        Instr.iter_instrs m (fun _ i ->
            match i.Instr.i_kind with
            | Instr.Call { args; _ } ->
              let c = i.Instr.i_id in
              let callees = Andersen.call_targets_ci pta mq ~stmt:c in
              (* scalar actual-ins *)
              List.iteri
                (fun idx a ->
                  match def_target a with
                  | Some d ->
                    let ai = intern t key (HActual_in (key, c, idx)) in
                    add_edge t ~from:ai ~on:d (Intra Sdg.Producer_local);
                    add_edge t ~from:(stmt c) ~on:ai (Intra Sdg.Call_actual)
                  | None -> ())
                args;
              List.iter
                (fun n ->
                  let nkey = mq_key n in
                  let cell =
                    match Hashtbl.find_opt t.callers nkey with
                    | Some r -> r
                    | None ->
                      let r = ref [] in
                      Hashtbl.replace t.callers nkey r;
                      r
                  in
                  if not (List.mem (key, c) !cell) then cell := (key, c) :: !cell;
                  (* return value: descend *)
                  add_edge t ~from:(stmt c)
                    ~on:(intern t nkey (HRet nkey))
                    (Descend c);
                  (* heap actual-ins feed the callee's reads *)
                  Modref.LocSet.iter
                    (fun l ->
                      let ahi = intern t key (HActual_heap_in (key, c, l)) in
                      List.iter
                        (fun src ->
                          add_edge t ~from:ahi ~on:src (Intra Sdg.Producer_heap))
                        (heap_sources l))
                    (ref_of t n);
                  (* heap actual-outs descend into the callee's formal-outs *)
                  Modref.LocSet.iter
                    (fun l ->
                      let aho = intern t key (HActual_heap_out (key, c, l)) in
                      add_edge t ~from:aho
                        ~on:(intern t nkey (HFormal_heap_out (nkey, l)))
                        (Descend c))
                    (mod_of t n))
                callees
            | _ -> ())
      end)
    methods;
  (* 4. ascend edges: callee inputs -> caller actual-ins *)
  List.iter
    (fun mq ->
      let key = mq_key mq in
      let m = Program.find_method_exn p mq in
      if Instr.has_body m then begin
        let callers =
          match Hashtbl.find_opt t.callers key with Some r -> !r | None -> []
        in
        List.iter
          (fun (caller_key, c) ->
            List.iteri
              (fun idx _ ->
                match Hashtbl.find_opt t.intern_tbl (HActual_in (caller_key, c, idx)) with
                | Some ai ->
                  add_edge t
                    ~from:(intern t key (HFormal (key, idx)))
                    ~on:ai (Ascend c)
                | None -> ())
              m.Instr.m_params;
            Modref.LocSet.iter
              (fun l ->
                match
                  Hashtbl.find_opt t.intern_tbl (HActual_heap_in (caller_key, c, l))
                with
                | Some ahi ->
                  add_edge t
                    ~from:(intern t key (HFormal_heap_in (key, l)))
                    ~on:ahi (Ascend c)
                | None -> ())
              (ref_of t mq))
          callers
      end)
    methods;
  t

(* ------------------------------------------------------------------ *)
(* Summary edges via tabulation                                        *)
(* ------------------------------------------------------------------ *)

(* An "output" node of a procedure (HRet or heap formal-out) is mirrored by
   an output node at each call site; an "input" node (HFormal or heap
   formal-in) by an actual-in node.  A same-level backward path output ->
   input yields summary edges at every call site. *)

let caller_out_node (t : t) ~(caller : string) ~(site : Instr.stmt_id)
    (out : node_desc) : int option =
  match out with
  | HRet _ -> Hashtbl.find_opt t.intern_tbl (HStmt (caller, site))
  | HFormal_heap_out (_, l) ->
    Hashtbl.find_opt t.intern_tbl (HActual_heap_out (caller, site, l))
  | _ -> None

let caller_in_node (t : t) ~(caller : string) ~(site : Instr.stmt_id)
    (inp : node_desc) : int option =
  match inp with
  | HFormal (_, idx) -> Hashtbl.find_opt t.intern_tbl (HActual_in (caller, site, idx))
  | HFormal_heap_in (_, l) ->
    Hashtbl.find_opt t.intern_tbl (HActual_heap_in (caller, site, l))
  | _ -> None

let is_input = function
  | HFormal _ | HFormal_heap_in _ -> true
  | _ -> false

let is_output = function
  | HRet _ | HFormal_heap_out _ -> true
  | _ -> false

(* Compute summary edges for the given mode, stored in [t.summ].
   Recomputed (and cached) per mode. *)
let compute_summaries (t : t) (mode : mode) : unit =
  if t.summ_mode <> Some mode then begin
    t.summ <- Array.make t.num_nodes [];
    t.summ_mode <- Some mode;
    t.summ_count <- 0;
    (* path edges: (output node, reached node) *)
    let path : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
    (* reverse index: reached node -> outputs that reached it *)
    let reached_by : (int, int list ref) Hashtbl.t = Hashtbl.create 1024 in
    let work = Queue.create () in
    let add_path o n =
      if not (Hashtbl.mem path (o, n)) then begin
        Hashtbl.replace path (o, n) ();
        (match Hashtbl.find_opt reached_by n with
        | Some r -> r := o :: !r
        | None -> Hashtbl.replace reached_by n (ref [ o ]));
        Queue.add (o, n) work
      end
    in
    for n = 0 to t.num_nodes - 1 do
      if is_output t.descs.(n) then add_path n n
    done;
    while not (Queue.is_empty work) do
      let o, n = Queue.pop work in
      (* reached an input node: install summary edges at all call sites *)
      (if is_input t.descs.(n) then begin
         let proc = Hashtbl.find t.proc_of n in
         let callers =
           match Hashtbl.find_opt t.callers proc with Some r -> !r | None -> []
         in
         List.iter
           (fun (caller, site) ->
             match
               ( caller_out_node t ~caller ~site t.descs.(o),
                 caller_in_node t ~caller ~site t.descs.(n) )
             with
             | Some co, Some ci ->
               if not (List.mem ci t.summ.(co)) then begin
                 t.summ.(co) <- ci :: t.summ.(co);
                 t.summ_count <- t.summ_count + 1;
                 (* re-activate path problems passing through co *)
                 match Hashtbl.find_opt reached_by co with
                 | Some outs -> List.iter (fun o' -> add_path o' ci) !outs
                 | None -> ()
               end
             | _ -> ())
           callers
       end);
      List.iter
        (fun (dep, label) ->
          match label with
          | Intra k -> if follows mode k then add_path o dep
          | Ascend _ | Descend _ -> ())
        t.deps.(n);
      List.iter (fun dep -> add_path o dep) t.summ.(n)
    done
  end

(* ------------------------------------------------------------------ *)
(* Two-phase backward slice                                            *)
(* ------------------------------------------------------------------ *)

let slice (t : t) ~(seeds : int list) (mode : mode) : int list =
  compute_summaries t mode;
  let traverse ~ascend ~descend init =
    let visited = Hashtbl.create 256 in
    let q = Queue.create () in
    List.iter
      (fun s ->
        if not (Hashtbl.mem visited s) then begin
          Hashtbl.replace visited s ();
          Queue.add s q
        end)
      init;
    while not (Queue.is_empty q) do
      let n = Queue.pop q in
      let push dep =
        if not (Hashtbl.mem visited dep) then begin
          Hashtbl.replace visited dep ();
          Queue.add dep q
        end
      in
      List.iter
        (fun (dep, label) ->
          let go =
            match label with
            | Intra k -> follows mode k
            | Ascend _ -> ascend
            | Descend _ -> descend
          in
          if go then push dep)
        t.deps.(n);
      List.iter push t.summ.(n)
    done;
    Hashtbl.fold (fun n () acc -> n :: acc) visited []
  in
  (* Phase 1: ascend to callers, summaries instead of descending;
     Phase 2: descend into callees from everything phase 1 found. *)
  let phase1 = traverse ~ascend:true ~descend:false seeds in
  let phase2 = traverse ~ascend:false ~descend:true phase1 in
  List.sort compare phase2

(* Statement nodes at a source line; used to seed slices. *)
let nodes_at_line (t : t) ~(line : int) : int list =
  let out = ref [] in
  for n = 0 to t.num_nodes - 1 do
    match t.descs.(n) with
    | HStmt (_, s) -> (
      match Hashtbl.find_opt t.stmt_table s with
      | Some si when (Program.stmt_loc si).Loc.line = line -> out := n :: !out
      | _ -> ())
    | _ -> ()
  done;
  List.rev !out

(* Source lines of a node set.  Scalar actual-parameter nodes belong to
   their call statement for display, as in [Sdg]; heap-parameter nodes are
   bookkeeping and do not count as statements (the paper likewise
   "excludes parameter passing statements introduced to model the heap"). *)
let slice_lines (t : t) (nodes : int list) : int list =
  let seen = Hashtbl.create 64 in
  let add_stmt s =
    match Hashtbl.find_opt t.stmt_table s with
    | Some si -> (
      (* skip compiler-internal statements, as [Sdg.node_countable] does *)
      match si.Program.s_site with
      | Program.Site_instr { Instr.i_kind = Instr.Phi _; _ }
      | Program.Site_term { Instr.t_kind = Instr.Goto _; _ } -> ()
      | Program.Site_instr _ | Program.Site_term _ ->
        let l = (Program.stmt_loc si).Loc.line in
        if l > 0 then Hashtbl.replace seen l ())
    | None -> ()
  in
  List.iter
    (fun n ->
      match t.descs.(n) with
      | HStmt (_, s) | HActual_in (_, s, _) -> add_stmt s
      | HActual_heap_in _ | HActual_heap_out _ | HFormal _
      | HFormal_heap_in _ | HFormal_heap_out _ | HRet _ -> ())
    nodes;
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) seen [])

(* How many of the nodes are heap-parameter bookkeeping?  This is the
   paper's scalability bottleneck: "the number of SDG statements
   introduced to model heap parameter-passing quickly explodes". *)
type stats = {
  total_nodes : int;
  stmt_nodes : int;
  heap_param_nodes : int;
  summary_edges_thin : int;
}

let stats (t : t) : stats =
  let stmt = ref 0 and heap = ref 0 in
  for n = 0 to t.num_nodes - 1 do
    match t.descs.(n) with
    | HStmt _ -> incr stmt
    | HFormal_heap_in _ | HFormal_heap_out _ | HActual_heap_in _
    | HActual_heap_out _ -> incr heap
    | HFormal _ | HRet _ | HActual_in _ -> ()
  done;
  { total_nodes = t.num_nodes;
    stmt_nodes = !stmt;
    heap_param_nodes = !heap;
    summary_edges_thin = t.summ_count }
