(* SSA construction (Cytron et al.): phi insertion at iterated dominance
   frontiers followed by stack-based renaming over the dominator tree.

   The paper computes local data dependences "flow sensitively" by operating
   on an SSA representation (section 5.1); after this pass every variable
   has exactly one definition, so def-use chains are exact.

   Statement ids of existing instructions are preserved (they identify
   source statements); phi instructions receive fresh ids. *)

let c_phis_inserted = Slice_obs.counter "ssa.phis_inserted"
let c_phis_pruned = Slice_obs.counter "ssa.phis_pruned"
let c_methods_converted = Slice_obs.counter "ssa.methods_converted"

let is_ssa_var (m : Instr.meth) (v : Instr.var) : bool =
  match (Instr.var_info m v).Instr.vi_kind with
  | Instr.Vssa _ -> true
  | Instr.Vparam _ | Instr.Vlocal | Instr.Vtemp -> false

(* Internal exception for scoping violations that should have been caught by
   the typechecker. *)
exception Ssa_error of string

(* Remove phi instructions whose results never reach a real (non-phi) use.
   A plain "unused" check is not enough: a loop-header phi and a join phi
   can form a dead cycle feeding only each other.  Instead, mark phis
   transitively demanded by real uses and drop the rest. *)
let prune_dead_phis (m : Instr.meth) : unit =
  let phi_def : (Instr.var, Instr.instr) Hashtbl.t = Hashtbl.create 32 in
  Instr.iter_instrs m (fun _ i ->
      match i.Instr.i_kind with
      | Instr.Phi (x, _) -> Hashtbl.replace phi_def x i
      | _ -> ());
  let demanded : (Instr.var, unit) Hashtbl.t = Hashtbl.create 64 in
  let work = ref [] in
  let demand v =
    if Hashtbl.mem phi_def v && not (Hashtbl.mem demanded v) then begin
      Hashtbl.replace demanded v ();
      work := v :: !work
    end
  in
  Instr.iter_instrs m (fun _ i ->
      match i.Instr.i_kind with
      | Instr.Phi _ -> ()
      | _ -> List.iter demand (Instr.uses_of_instr i));
  Instr.iter_terms m (fun _ t -> List.iter demand (Instr.uses_of_term t));
  while !work <> [] do
    match !work with
    | [] -> ()
    | v :: rest ->
      work := rest;
      let phi = Hashtbl.find phi_def v in
      List.iter demand (Instr.uses_of_instr phi)
  done;
  Array.iter
    (fun b ->
      b.Instr.b_instrs <-
        List.filter
          (fun i ->
            match i.Instr.i_kind with
            | Instr.Phi (x, _) ->
              let keep = Hashtbl.mem demanded x in
              if not keep then Slice_obs.bump c_phis_pruned;
              keep
            | _ -> true)
          b.Instr.b_instrs)
    (Instr.blocks_exn m)

let convert (p : Program.t) (m : Instr.meth) : unit =
  if not (Instr.has_body m) then ()
  else begin
    Slice_obs.bump c_methods_converted;
    let cfg = Cfg.build m in
    let dom = Dominance.compute (Dominance.forward_graph cfg) in
    let df = Dominance.dominance_frontiers dom in
    let dom_children = Dominance.dom_tree dom in
    let blocks = Instr.blocks_exn m in
    let nblocks = Array.length blocks in
    let nvars = Array.length m.Instr.m_vars in
    (* 1. Definition sites of each original variable.  Definitions are met
       block by block (the parameters with the entry, block 0, first), so
       a repeat of [(v, l)] can only follow [v]'s latest site: a per-variable
       stamp of that block dedups without scanning the list. *)
    let def_blocks = Array.make nvars [] in
    let last_def = Array.make nvars (-1) in
    let add_def v l =
      if last_def.(v) <> l then begin
        last_def.(v) <- l;
        def_blocks.(v) <- l :: def_blocks.(v)
      end
    in
    List.iter (fun v -> add_def v cfg.Cfg.entry) m.Instr.m_params;
    Instr.iter_instrs m (fun l i ->
        match Instr.def_of_instr i with
        | Some v -> add_def v l
        | None -> ());
    (* 2. Phi insertion at iterated dominance frontiers.  [phi_for.(l)] maps
       original variables to the (mutable) phi record for that block.
       [has_phi.(y) = v] and [ever_on_work.(y) = v] are stamps for the
       variable being placed, so no per-variable array is allocated. *)
    let phi_for : (Instr.var, Instr.instr ref) Hashtbl.t array =
      Array.init nblocks (fun _ -> Hashtbl.create 4)
    in
    let has_phi = Array.make nblocks (-1) in
    let ever_on_work = Array.make nblocks (-1) in
    for v = 0 to nvars - 1 do
      if def_blocks.(v) <> [] then begin
        let work = ref def_blocks.(v) in
        List.iter (fun l -> ever_on_work.(l) <- v) !work;
        while !work <> [] do
          let l = List.hd !work in
          work := List.tl !work;
          List.iter
            (fun y ->
              if has_phi.(y) <> v && Dominance.reachable dom y then begin
                has_phi.(y) <- v;
                let loc =
                  match blocks.(y).Instr.b_instrs with
                  | i :: _ -> i.Instr.i_loc
                  | [] -> blocks.(y).Instr.b_term.Instr.t_loc
                in
                let phi =
                  { Instr.i_id = Program.fresh_stmt_id p;
                    i_kind = Instr.Phi (v, []);
                    i_loc = loc }
                in
                Slice_obs.bump c_phis_inserted;
                Hashtbl.replace phi_for.(y) v (ref phi);
                if ever_on_work.(y) <> v then begin
                  ever_on_work.(y) <- v;
                  work := y :: !work
                end
              end)
            df.(l)
        done
      end
    done;
    (* 3. Renaming.  Stacks of SSA versions per original variable.  Parameters
       keep their original variable as version 0, so [m_params] stays valid.
       New versions collect in [vars], committed to [m_vars] once renaming
       is done. *)
    let stacks : Instr.var list array = Array.make nvars [] in
    let vars = Instr.Var_buf.create m in
    let fresh_version (v : Instr.var) : Instr.var =
      let vi = Instr.var_info m v in
      let version_count =
        Instr.Var_buf.length vars
        (* names only need to be readable, not dense *)
      in
      Instr.Var_buf.add vars
        { Instr.vi_name = vi.Instr.vi_name ^ "#" ^ string_of_int version_count;
          vi_kind = Instr.Vssa v;
          vi_ty = vi.Instr.vi_ty }
    in
    let top v =
      match stacks.(v) with
      | s :: _ -> s
      | [] ->
        raise
          (Ssa_error
             (Printf.sprintf "use of %s before definition in %s"
                (Instr.var_name m v)
                (Instr.method_qname_to_string m.Instr.m_qname)))
    in
    (* Variables standing in for never-defined phi operands; phis using them
       must be pruned afterwards. *)
    let undef_vars = Hashtbl.create 4 in
    let top_or_undef v =
      match stacks.(v) with
      | s :: _ -> s
      | [] ->
        let u =
          Instr.Var_buf.add vars
            { Instr.vi_name = Printf.sprintf "%s#undef" (Instr.var_name m v);
              vi_kind = Instr.Vssa v;
              vi_ty = (Instr.var_info m v).Instr.vi_ty }
        in
        Hashtbl.replace undef_vars u ();
        u
    in
    let rename_uses (k : Instr.instr_kind) : Instr.instr_kind =
      match k with
      | Instr.Const _ | Instr.New _ | Instr.Static_load _ | Instr.Nop -> k
      | Instr.Move (x, y) -> Instr.Move (x, top y)
      | Instr.Binop (x, op, y, z) -> Instr.Binop (x, op, top y, top z)
      | Instr.Unop (x, op, y) -> Instr.Unop (x, op, top y)
      | Instr.New_array (x, t, n) -> Instr.New_array (x, t, top n)
      | Instr.Load (x, y, f) -> Instr.Load (x, top y, f)
      | Instr.Store (x, f, y) -> Instr.Store (top x, f, top y)
      | Instr.Array_load (x, y, i) -> Instr.Array_load (x, top y, top i)
      | Instr.Array_store (a, i, y) -> Instr.Array_store (top a, top i, top y)
      | Instr.Static_store (c, f, y) -> Instr.Static_store (c, f, top y)
      | Instr.Call { lhs; kind; args } ->
        Instr.Call { lhs; kind; args = List.map top args }
      | Instr.Cast (x, t, y) -> Instr.Cast (x, t, top y)
      | Instr.Instance_of (x, t, y) -> Instr.Instance_of (x, t, top y)
      | Instr.Array_length (x, y) -> Instr.Array_length (x, top y)
      | Instr.Phi _ -> k (* operands filled from predecessors *)
    in
    let rename_def (k : Instr.instr_kind) (push : Instr.var -> Instr.var) :
        Instr.instr_kind =
      match k with
      | Instr.Const (x, c) -> Instr.Const (push x, c)
      | Instr.Move (x, y) -> Instr.Move (push x, y)
      | Instr.Binop (x, op, y, z) -> Instr.Binop (push x, op, y, z)
      | Instr.Unop (x, op, y) -> Instr.Unop (push x, op, y)
      | Instr.New (x, c) -> Instr.New (push x, c)
      | Instr.New_array (x, t, n) -> Instr.New_array (push x, t, n)
      | Instr.Load (x, y, f) -> Instr.Load (push x, y, f)
      | Instr.Array_load (x, y, i) -> Instr.Array_load (push x, y, i)
      | Instr.Static_load (x, c, f) -> Instr.Static_load (push x, c, f)
      | Instr.Cast (x, t, y) -> Instr.Cast (push x, t, y)
      | Instr.Instance_of (x, t, y) -> Instr.Instance_of (push x, t, y)
      | Instr.Array_length (x, y) -> Instr.Array_length (push x, y)
      | Instr.Call { lhs = Some x; kind; args } ->
        Instr.Call { lhs = Some (push x); kind; args }
      | Instr.Phi (x, ins) -> Instr.Phi (push x, ins)
      | Instr.Call { lhs = None; _ } | Instr.Store _ | Instr.Array_store _
      | Instr.Static_store _ | Instr.Nop -> k
    in
    let rec rename_block (l : Instr.label) : unit =
      let pushed = ref [] in
      let push v =
        let nv = fresh_version v in
        stacks.(v) <- nv :: stacks.(v);
        pushed := v :: !pushed;
        nv
      in
      (* Parameters are implicitly defined at the entry. *)
      if l = cfg.Cfg.entry then
        List.iter
          (fun v ->
            stacks.(v) <- v :: stacks.(v);
            pushed := v :: !pushed)
          m.Instr.m_params;
      let b = blocks.(l) in
      (* Phis first: define new versions (their refs live in phi_for). *)
      Hashtbl.iter
        (fun _v phi_ref ->
          let phi = !phi_ref in
          phi_ref := { phi with Instr.i_kind = rename_def phi.Instr.i_kind push })
        phi_for.(l);
      b.Instr.b_instrs <-
        List.map
          (fun i ->
            let k = rename_uses i.Instr.i_kind in
            let k = rename_def k push in
            { i with Instr.i_kind = k })
          b.Instr.b_instrs;
      let t = b.Instr.b_term in
      let tk =
        match t.Instr.t_kind with
        | Instr.Goto _ as k -> k
        | Instr.If (v, l1, l2) -> Instr.If (top v, l1, l2)
        | Instr.Return (Some v) -> Instr.Return (Some (top v))
        | Instr.Return None as k -> k
        | Instr.Throw v -> Instr.Throw (top v)
      in
      b.Instr.b_term <- { t with Instr.t_kind = tk };
      (* Fill phi operands in CFG successors. *)
      List.iter
        (fun s ->
          Hashtbl.iter
            (fun orig phi_ref ->
              let phi = !phi_ref in
              match phi.Instr.i_kind with
              | Instr.Phi (x, ins) ->
                let operand = top_or_undef orig in
                phi_ref :=
                  { phi with Instr.i_kind = Instr.Phi (x, (l, operand) :: ins) }
              | _ -> assert false)
            phi_for.(s))
        (Cfg.successors cfg l);
      (* Recurse over dominator-tree children. *)
      List.iter rename_block dom_children.(l);
      List.iter (fun v -> stacks.(v) <- List.tl stacks.(v)) !pushed
    in
    rename_block cfg.Cfg.entry;
    Instr.Var_buf.commit vars;
    (* 4. Materialize phis at block heads and prune dead ones. *)
    Array.iteri
      (fun l tbl ->
        let phis = Hashtbl.fold (fun _ r acc -> !r :: acc) tbl [] in
        let phis =
          List.sort (fun a b -> compare a.Instr.i_id b.Instr.i_id) phis
        in
        blocks.(l).Instr.b_instrs <- phis @ blocks.(l).Instr.b_instrs)
      phi_for;
    prune_dead_phis m;
    (* Sanity: no surviving instruction may use an undef placeholder. *)
    Instr.iter_instrs m (fun _ i ->
        List.iter
          (fun v ->
            if Hashtbl.mem undef_vars v then
              raise
                (Ssa_error
                   (Printf.sprintf "undefined variable %s survives SSA in %s (instr %d)"
                      (Instr.var_name m v)
                      (Instr.method_qname_to_string m.Instr.m_qname)
                      i.Instr.i_id)))
          (Instr.uses_of_instr i))
  end

(* Check SSA invariants; used by tests and as a debugging aid.  Besides
   single definition, every variable an instruction, a terminator or
   [m_params] mentions must index [m_vars], and every SSA version's origin
   must be an in-range original variable: a variable table committed short
   would otherwise surface only later, as an index error in a consumer. *)
let check (m : Instr.meth) : (unit, string) result =
  let nvars = Array.length m.Instr.m_vars in
  let in_range v = v >= 0 && v < nvars in
  let first_error = ref None in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> if !first_error = None then first_error := Some msg)
      fmt
  in
  Array.iter
    (fun vi ->
      match vi.Instr.vi_kind with
      | Instr.Vssa o ->
        if not (in_range o) then
          fail "SSA variable %s has out-of-range origin %d" vi.Instr.vi_name o
        else if is_ssa_var m o then
          fail "SSA variable %s has SSA origin %s" vi.Instr.vi_name
            (Instr.var_name m o)
      | Instr.Vparam _ | Instr.Vlocal | Instr.Vtemp -> ())
    m.Instr.m_vars;
  (* [site] is "parameter", "instruction" or "terminator"; [id] its
     position or statement id. *)
  let check_var site id v =
    if not (in_range v) then
      fail "%s %d mentions variable %d, beyond the %d-entry variable table"
        site id v nvars
  in
  List.iteri (fun k v -> check_var "parameter" k v) m.Instr.m_params;
  if Instr.has_body m then begin
    let defined = Array.make nvars false in
    Instr.iter_instrs m (fun _ i ->
        let id = i.Instr.i_id in
        List.iter (check_var "instruction" id) (Instr.uses_of_instr i);
        match Instr.def_of_instr i with
        | Some v when not (in_range v) -> check_var "instruction" id v
        | Some v ->
          if defined.(v) then
            fail "variable %s defined twice" (Instr.var_name m v)
          else defined.(v) <- true
        | None -> ());
    Instr.iter_terms m (fun _ t ->
        List.iter (check_var "terminator" t.Instr.t_id) (Instr.uses_of_term t))
  end;
  match !first_error with Some msg -> Error msg | None -> Ok ()
