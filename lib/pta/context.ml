(* Abstract objects and analysis contexts for the points-to analysis.

   The heap abstraction is allocation sites, optionally cloned by the
   receiver object of the enclosing method (Milanova-style object
   sensitivity [16], applied selectively to container classes as in the
   paper, section 6.1).  Contexts and abstract objects are mutually
   recursive, so both are interned into integer ids. *)

open Slice_ir

(* What kind of thing an allocation site creates. *)
type alloc_class =
  | Aclass of Types.class_name
  | Aarray of Types.ty                  (* element type *)
  | Astring                             (* string literals / intrinsics *)
  | Aextern of string                   (* synthetic roots, e.g. main's args *)

type ctx =
  | Cnone
  | Crecv of int                        (* receiver abstract-object id *)

type obj_info = {
  oi_id : int;
  oi_site : Instr.stmt_id;              (* negative for synthetic roots *)
  oi_cls : alloc_class;
  oi_ctx : ctx;                         (* heap context of the allocation *)
}

type t = {
  mutable objs : obj_info array;
  mutable num_objs : int;
  intern : (Instr.stmt_id * ctx, int) Hashtbl.t;
}

let create () : t =
  { objs = Array.make 64 { oi_id = -1; oi_site = -1; oi_cls = Astring; oi_ctx = Cnone };
    num_objs = 0;
    intern = Hashtbl.create 64 }

let obj (t : t) (id : int) : obj_info =
  if id < 0 || id >= t.num_objs then invalid_arg "Context.obj";
  t.objs.(id)

let num_objs (t : t) = t.num_objs

(* Intern an abstract object for (site, heap context). *)
let intern_obj (t : t) ~(site : Instr.stmt_id) ~(cls : alloc_class) ~(ctx : ctx) :
    int =
  match Hashtbl.find_opt t.intern (site, ctx) with
  | Some id -> id
  | None ->
    let id = t.num_objs in
    if id = Array.length t.objs then begin
      let bigger = Array.make (2 * id) t.objs.(0) in
      Array.blit t.objs 0 bigger 0 id;
      t.objs <- bigger
    end;
    t.objs.(id) <- { oi_id = id; oi_site = site; oi_cls = cls; oi_ctx = ctx };
    t.num_objs <- id + 1;
    Hashtbl.replace t.intern (site, ctx) id;
    id

(* Move object [o] to a fresh allocation site after an incremental
   re-lower: a changed method's instructions get fresh statement ids,
   but under a P0 patch (identical constraint summary) each old
   allocation site corresponds positionally to exactly one new site.
   Rewrites [oi_site] in place and moves the object's (site, ctx) intern
   key so future interning agrees; keys are unique and the new site is
   fresh, so no other object's key is touched.  Object IDS are stable —
   only the site component of their identity moves. *)
let move_site (t : t) (o : int) (site' : Instr.stmt_id) : unit =
  let oi = t.objs.(o) in
  t.objs.(o) <- { oi with oi_site = site' };
  if Hashtbl.find_opt t.intern (oi.oi_site, oi.oi_ctx) = Some o then
    Hashtbl.remove t.intern (oi.oi_site, oi.oi_ctx);
  if not (Hashtbl.mem t.intern (site', oi.oi_ctx)) then
    Hashtbl.replace t.intern (site', oi.oi_ctx) o

let rec ctx_depth (t : t) (c : ctx) : int =
  match c with
  | Cnone -> 0
  | Crecv o -> 1 + ctx_depth t (obj t o).oi_ctx

(* The class a virtual call dispatches on, for an abstract object. *)
let dispatch_class (oc : alloc_class) : Types.class_name option =
  match oc with
  | Aclass c -> Some c
  | Astring -> Some Types.string_class
  | Aarray _ -> Some Types.object_class    (* arrays only inherit Object *)
  | Aextern _ -> None

let pp_ctx (t : t) ppf (c : ctx) =
  match c with
  | Cnone -> Format.pp_print_string ppf "[]"
  | Crecv o ->
    let oi = obj t o in
    Format.fprintf ppf "[o%d@%d]" o oi.oi_site
