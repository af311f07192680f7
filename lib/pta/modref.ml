(* Interprocedural mod-ref analysis [24] over the points-to result: for each
   method context, the set of abstract heap locations it (transitively) may
   write and read.  The context-sensitive slicer uses these sets to
   introduce heap parameters and returns on each procedure (paper,
   section 5.3). *)

open Slice_ir

type loc =
  | Lfield of int * string                      (* abstract object, field *)
  | Lstatic of Types.class_name * Types.field_name
  | Larray_len of int                           (* length of abstract array *)

let compare_loc = compare

module LocSet = Set.Make (struct
  type t = loc

  let compare = compare_loc
end)

type t = {
  mods : (int, LocSet.t) Hashtbl.t;             (* mctx -> transitive mod *)
  refs : (int, LocSet.t) Hashtbl.t;
}

let mod_of (t : t) (mc : int) : LocSet.t =
  Option.value ~default:LocSet.empty (Hashtbl.find_opt t.mods mc)

let ref_of (t : t) (mc : int) : LocSet.t =
  Option.value ~default:LocSet.empty (Hashtbl.find_opt t.refs mc)

let direct_sets (p : Program.t) (r : Andersen.result) (mc : int)
    (mq : Instr.method_qname) : LocSet.t * LocSet.t =
  let m = Program.find_method_exn p mq in
  let dm = ref LocSet.empty and dr = ref LocSet.empty in
  if Instr.has_body m then
    Instr.iter_instrs m (fun _ i ->
        match i.Instr.i_kind with
        | Instr.Store (x, f, _) ->
          Andersen.pts_iter_var r ~mctx:mc x (fun o ->
              dm := LocSet.add (Lfield (o, f)) !dm)
        | Instr.Load (_, y, f) ->
          Andersen.pts_iter_var r ~mctx:mc y (fun o ->
              dr := LocSet.add (Lfield (o, f)) !dr)
        | Instr.Array_store (a, _, _) ->
          Andersen.pts_iter_var r ~mctx:mc a (fun o ->
              dm := LocSet.add (Lfield (o, Andersen.elem_field)) !dm)
        | Instr.Array_load (_, a, _) ->
          Andersen.pts_iter_var r ~mctx:mc a (fun o ->
              dr := LocSet.add (Lfield (o, Andersen.elem_field)) !dr)
        | Instr.New_array (x, _, _) ->
          Andersen.pts_iter_var r ~mctx:mc x (fun o ->
              dm := LocSet.add (Larray_len o) !dm)
        | Instr.Array_length (_, a) ->
          Andersen.pts_iter_var r ~mctx:mc a (fun o ->
              dr := LocSet.add (Larray_len o) !dr)
        | Instr.Static_store (c, f, _) -> dm := LocSet.add (Lstatic (c, f)) !dm
        | Instr.Static_load (_, c, f) -> dr := LocSet.add (Lstatic (c, f)) !dr
        | Instr.Const _ | Instr.Move _ | Instr.Binop _ | Instr.Unop _
        | Instr.New _ | Instr.Call _ | Instr.Cast _ | Instr.Instance_of _
        | Instr.Phi _ | Instr.Nop -> ());
  (!dm, !dr)

let compute (p : Program.t) (r : Andersen.result) : t =
  let t = { mods = Hashtbl.create 64; refs = Hashtbl.create 64 } in
  let mcs = Andersen.method_contexts r in
  List.iter
    (fun (mc, mq, _) ->
      let dm, dr = direct_sets p r mc mq in
      Hashtbl.replace t.mods mc dm;
      Hashtbl.replace t.refs mc dr)
    mcs;
  (* Transitive closure over the call graph, to fixpoint. *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (mc, mq, _) ->
        let m = Program.find_method_exn p mq in
        if Instr.has_body m then
          Instr.iter_instrs m (fun _ i ->
              match i.Instr.i_kind with
              | Instr.Call _ ->
                List.iter
                  (fun cmc ->
                    let extend tbl =
                      let mine =
                        Option.value ~default:LocSet.empty (Hashtbl.find_opt tbl mc)
                      in
                      let theirs =
                        Option.value ~default:LocSet.empty (Hashtbl.find_opt tbl cmc)
                      in
                      if not (LocSet.subset theirs mine) then begin
                        Hashtbl.replace tbl mc (LocSet.union mine theirs);
                        changed := true
                      end
                    in
                    extend t.mods;
                    extend t.refs)
                  (Andersen.call_targets r ~mctx:mc ~stmt:i.Instr.i_id)
              | _ -> ()))
      mcs
  done;
  t

(* Context-insensitive projections (union over a method's contexts). *)
let mod_of_method (p : Program.t) (r : Andersen.result) (t : t)
    (mq : Instr.method_qname) : LocSet.t =
  ignore p;
  List.fold_left
    (fun acc mc -> LocSet.union acc (mod_of t mc))
    LocSet.empty
    (Andersen.mctxs_of_method r mq)

let ref_of_method (p : Program.t) (r : Andersen.result) (t : t)
    (mq : Instr.method_qname) : LocSet.t =
  ignore p;
  List.fold_left
    (fun acc mc -> LocSet.union acc (ref_of t mc))
    LocSet.empty
    (Andersen.mctxs_of_method r mq)
