(* Randomized TJ program generator.

   A generated program is a [model]: a small class universe (1-2 families,
   each a root class plus 0-2 subclasses, chains allowed) and a flat array
   of [step option]s.  Step [k], when present, renders to one or a few
   statements in [main]; value-producing steps define a local [v{k}].
   Operands are either [V j] (use [v{j}], a value produced by an EARLIER
   step of the right type) or [D] (a type-directed default literal /
   freshly materialized object).  That indirection is what makes the
   shrinker trivial and structure-preserving: deleting step [j] just
   turns every reference to it into its default — the program stays
   well-formed by construction.

   Termination is by construction too: no recursion, no [while] in
   generated code, and every generated [for] loop has a bound in
   [<= 4] iterations.  Hostile constructs (raw array indices, division
   by a variable, failing downcasts, null receivers, parseInt of
   arbitrary strings) are generated at low weight: runtime faults are
   legitimate outcomes the oracle battery must handle, not generator
   bugs.

   The renderer emits only what the surviving steps need: the
   Vector/HashMap prelude subset (via [Runtime_lib.prelude_of]) and the
   transitively referenced classes, so shrunk repros are small in
   source, not just in step count. *)

type operand = V of int | D

(* Static type of a step's value.  [TObj f] carries the class FAMILY:
   object variables are declared with the family's root class, so any
   runtime class of the family is assignable and any family member is a
   legal cast/instanceof target. *)
type ty = TInt | TStr | TObj of int | TVec | TMap | TArr

(* Restricted statement forms allowed inside generated branches and
   loop bodies. *)
type micro =
  | MAccAdd of operand                   (* acc = acc + I; *)
  | MAccAddIdx                           (* acc = acc + i{k};  loops only *)
  | MSaccCat of operand                  (* sacc = sacc + S; *)
  | MBump of int * operand * operand     (* family, O.bump(I); *)
  | MVecAdd of int * operand * operand   (* obj family, VEC.add(O); *)
  | MStoreFi of int * operand * operand  (* family, O.fi = I; *)

type step =
  (* int producers *)
  | SIntConst of int
  | SIntBin of string * operand * operand  (* "+" | "-" | "*" *)
  | SIntDivK of operand                    (* X / 3 — safe *)
  | SIntDivV of operand * operand          (* X / Y — hostile: may div0 *)
  | SIntMod of operand * int               (* X % k, k >= 1 *)
  | SParse of operand                      (* parseInt(S) — may fault *)
  | SStrLen of operand
  | SCharCode of operand                   (* guarded charCodeAt(0) *)
  | SCallGet of int * operand              (* family, O.get() — virtual *)
  | SLoadFi of int * operand
  | SVecSize of operand
  | SMapSize of operand
  | SArrLoad of operand * operand          (* guarded index *)
  | SArrLoadRaw of operand * operand       (* hostile: may be out of bounds *)
  (* string producers *)
  | SStrConst of string
  | SStrCat of operand * operand
  | SItoa of operand
  | SSubstr of operand                     (* S.substring(0, S.length() % 3) *)
  | SCallTag of int * operand              (* family, O.tag() — virtual *)
  | SLoadFs of int * operand
  | SMapGetStr of operand * int            (* guarded (String) M.get(key) *)
  (* object producers *)
  | SNew of int * int                      (* family, class index *)
  | SCast of int * int * operand           (* family, target class, O *)
  | SGetLink of int * operand
  | SVecGetObj of int * operand * operand  (* family, VEC, index (guarded) *)
  (* container producers *)
  | SNewVec
  | SNewMap
  | SNewArr of int                         (* int[] of literal size *)
  (* effects *)
  | SStoreFi of int * operand * operand
  | SStoreFs of int * operand * operand
  | SSetLink of int * operand * operand
  | SBump of int * operand * operand
  | SVecAddO of int * operand * operand    (* obj family *)
  | SVecAddS of operand * operand          (* VEC.add(S) — poisons casts *)
  | SMapPutStr of operand * int * operand  (* M.put(key, S) *)
  | SArrStore of operand * operand * operand (* guarded A[i] = X *)
  | SInstanceofAcc of int * operand        (* class idx; if (O instanceof C) acc++ *)
  | SAccAdd of operand
  | SSaccCat of operand
  | SPrintInt of operand
  | SPrintStr of operand
  | SBumpNull of int                       (* hostile: null receiver *)
  | SIf of operand * micro list * micro list
  | SLoop of operand * micro list          (* for i < (X % 4 + 1) *)

type cls = { c_name : string; c_family : int; c_parent : string option }

(* Per-class rendering flags, all false at generation time so a fresh
   model renders byte-identically to what it rendered before the flags
   existed.  Edits toggle them to exercise the engine's update tiers:
   - [alt_get]: swap class [i]'s [get()] body for a one-line variant
     that allocates and calls [bump] — a summary-MOVING body edit (the
     line structure is unchanged, so the delta stays [Bodies] and the
     update must solve afresh, not just patch);
   - [aux]: append an uncalled, globally uniquely named method
     [aux<i>()] to class [i] — a dispatch-neutral whole-method
     addition/removal, which the engine answers by a reload
     ([Rebuilt]);
   - [ovr]: append a [bump] override to SUBclass [i] — a
     dispatch-MOVING whole-method addition/removal, also a reload.
   Both check that a whole-method edit reloads to exact answers. *)
type model = {
  classes : cls array;
  steps : step option array;
  alt_get : bool array;  (* per class: summary-moving get() variant *)
  aux : bool array;      (* per class: extra uncalled aux<i>() method *)
  ovr : bool array;      (* per SUBclass: bump() override *)
}

let step_count (m : model) : int =
  Array.fold_left (fun a s -> if s = None then a else a + 1) 0 m.steps

let result_ty (s : step) : ty option =
  match s with
  | SIntConst _ | SIntBin _ | SIntDivK _ | SIntDivV _ | SIntMod _ | SParse _
  | SStrLen _ | SCharCode _ | SCallGet _ | SLoadFi _ | SVecSize _ | SMapSize _
  | SArrLoad _ | SArrLoadRaw _ -> Some TInt
  | SStrConst _ | SStrCat _ | SItoa _ | SSubstr _ | SCallTag _ | SLoadFs _
  | SMapGetStr _ -> Some TStr
  | SNew (f, _) | SCast (f, _, _) | SGetLink (f, _) | SVecGetObj (f, _, _) ->
    Some (TObj f)
  | SNewVec -> Some TVec
  | SNewMap -> Some TMap
  | SNewArr _ -> Some TArr
  | SStoreFi _ | SStoreFs _ | SSetLink _ | SBump _ | SVecAddO _ | SVecAddS _
  | SMapPutStr _ | SArrStore _ | SInstanceofAcc _ | SAccAdd _ | SSaccCat _
  | SPrintInt _ | SPrintStr _ | SBumpNull _ | SIf _ | SLoop _ -> None

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

let str_consts = [| "7"; "42"; "305"; "x"; "ka"; "0" |]
let map_keys = [| "ka"; "kb"; "kc" |]

let gen ~(seed : int) ~(max_size : int) : model =
  let rng = Fuzz_rng.make seed in
  (* Class universe. *)
  let n_fam = 1 + Fuzz_rng.int rng 2 in
  let classes = ref [] and n_cls = ref 0 in
  let fam_members = Array.make n_fam [] in
  let add_cls c =
    classes := c :: !classes;
    fam_members.(c.c_family) <- fam_members.(c.c_family) @ [ !n_cls ];
    incr n_cls
  in
  for f = 0 to n_fam - 1 do
    add_cls { c_name = Printf.sprintf "R%d" f; c_family = f; c_parent = None };
    let n_subs = Fuzz_rng.int rng 3 in
    for j = 0 to n_subs - 1 do
      let parent = Fuzz_rng.pick rng (fam_members.(f)) in
      let pname = (List.nth (List.rev !classes) parent).c_name in
      add_cls
        { c_name = Printf.sprintf "S%d_%d" f j;
          c_family = f;
          c_parent = Some pname }
    done
  done;
  let classes = Array.of_list (List.rev !classes) in
  let root_of f = List.hd fam_members.(f) in
  (* Ancestors (indices) of class [c] within its family, including [c]. *)
  let rec ancestors c =
    match classes.(c).c_parent with
    | None -> [ c ]
    | Some pname ->
      let p = ref (-1) in
      Array.iteri (fun i cl -> if cl.c_name = pname then p := i) classes;
      c :: ancestors !p
  in
  (* Step generation with typed operand pools. *)
  let n_steps = 4 + Fuzz_rng.int rng (max 1 (max_size - 3)) in
  let steps = Array.make n_steps None in
  let ints = ref [] and strs = ref [] and vecs = ref [] and maps = ref []
  and arrs = ref [] in
  let objs = Array.make n_fam [] in
  (* Statically known runtime class per step, for safe-biased casts. *)
  let runtime = Array.make n_steps None in
  let pick_from pool =
    match pool with
    | [] -> D
    | xs -> if Fuzz_rng.int rng 100 < 85 then V (Fuzz_rng.pick rng xs) else D
  in
  let p_int () = pick_from !ints
  and p_str () = pick_from !strs
  and p_vec () = pick_from !vecs
  and p_map () = pick_from !maps
  and p_arr () = pick_from !arrs in
  let p_obj f = pick_from objs.(f) in
  let p_fam () = Fuzz_rng.int rng n_fam in
  let runtime_of f op =
    match op with
    | D -> Some (root_of f)
    | V j -> runtime.(j)
  in
  let gen_micro ~in_loop () =
    let choices =
      [ (3, `AccAdd); (2, `SaccCat); (2, `Bump); (2, `VecAdd); (2, `StoreFi) ]
      @ (if in_loop then [ (3, `AccAddIdx) ] else [])
    in
    match Fuzz_rng.weighted rng choices with
    | `AccAdd -> MAccAdd (p_int ())
    | `AccAddIdx -> MAccAddIdx
    | `SaccCat -> MSaccCat (p_str ())
    | `Bump ->
      let f = p_fam () in
      MBump (f, p_obj f, p_int ())
    | `VecAdd ->
      let f = p_fam () in
      MVecAdd (f, p_vec (), p_obj f)
    | `StoreFi ->
      let f = p_fam () in
      MStoreFi (f, p_obj f, p_int ())
  in
  let gen_micros ~in_loop lo extra =
    let n = lo + Fuzz_rng.int rng (extra + 1) in
    List.init n (fun _ -> gen_micro ~in_loop ())
  in
  let kinds =
    [ (6, `IntConst); (8, `IntBin); (2, `IntDivK); (1, `IntDivV); (3, `IntMod);
      (2, `Parse); (3, `StrLen); (2, `CharCode); (5, `CallGet); (4, `LoadFi);
      (2, `VecSize); (1, `MapSize); (3, `ArrLoad); (1, `ArrLoadRaw);
      (4, `StrConst); (4, `StrCat); (3, `Itoa); (2, `Substr); (4, `CallTag);
      (2, `LoadFs); (2, `MapGetStr); (6, `New); (3, `Cast); (3, `GetLink);
      (2, `VecGetObj); (3, `NewVec); (2, `NewMap); (3, `NewArr);
      (3, `StoreFi); (2, `StoreFs); (3, `SetLink); (3, `Bump); (4, `VecAddO);
      (1, `VecAddS); (3, `MapPutStr); (2, `ArrStore); (2, `InstanceofAcc);
      (5, `AccAdd); (3, `SaccCat); (2, `If); (2, `Loop); (1, `PrintInt);
      (1, `PrintStr); (1, `BumpNull) ]
  in
  for k = 0 to n_steps - 1 do
    let s =
      match Fuzz_rng.weighted rng kinds with
      | `IntConst -> SIntConst (1 + Fuzz_rng.int rng 50)
      | `IntBin ->
        SIntBin (Fuzz_rng.pick rng [ "+"; "-"; "*" ], p_int (), p_int ())
      | `IntDivK -> SIntDivK (p_int ())
      | `IntDivV -> SIntDivV (p_int (), p_int ())
      | `IntMod -> SIntMod (p_int (), 1 + Fuzz_rng.int rng 6)
      | `Parse -> SParse (p_str ())
      | `StrLen -> SStrLen (p_str ())
      | `CharCode -> SCharCode (p_str ())
      | `CallGet ->
        let f = p_fam () in
        SCallGet (f, p_obj f)
      | `LoadFi ->
        let f = p_fam () in
        SLoadFi (f, p_obj f)
      | `VecSize -> SVecSize (p_vec ())
      | `MapSize -> SMapSize (p_map ())
      | `ArrLoad -> SArrLoad (p_arr (), p_int ())
      | `ArrLoadRaw -> SArrLoadRaw (p_arr (), p_int ())
      | `StrConst ->
        SStrConst str_consts.(Fuzz_rng.int rng (Array.length str_consts))
      | `StrCat -> SStrCat (p_str (), p_str ())
      | `Itoa -> SItoa (p_int ())
      | `Substr -> SSubstr (p_str ())
      | `CallTag ->
        let f = p_fam () in
        SCallTag (f, p_obj f)
      | `LoadFs ->
        let f = p_fam () in
        SLoadFs (f, p_obj f)
      | `MapGetStr ->
        SMapGetStr (p_map (), Fuzz_rng.int rng (Array.length map_keys))
      | `New ->
        let f = p_fam () in
        let c = Fuzz_rng.pick rng fam_members.(f) in
        runtime.(k) <- Some c;
        SNew (f, c)
      | `Cast ->
        let f = p_fam () in
        let o = p_obj f in
        let target =
          if Fuzz_rng.int rng 100 < 90 then
            (* safe-biased: an ancestor of the (known) runtime class *)
            match runtime_of f o with
            | Some rc -> Fuzz_rng.pick rng (ancestors rc)
            | None -> root_of f
          else Fuzz_rng.pick rng fam_members.(f)
        in
        runtime.(k) <- runtime_of f o;
        SCast (f, target, o)
      | `GetLink ->
        let f = p_fam () in
        SGetLink (f, p_obj f)
      | `VecGetObj ->
        let f = p_fam () in
        SVecGetObj (f, p_vec (), p_int ())
      | `NewVec -> SNewVec
      | `NewMap -> SNewMap
      | `NewArr -> SNewArr (2 + Fuzz_rng.int rng 5)
      | `StoreFi ->
        let f = p_fam () in
        SStoreFi (f, p_obj f, p_int ())
      | `StoreFs ->
        let f = p_fam () in
        SStoreFs (f, p_obj f, p_str ())
      | `SetLink ->
        let f = p_fam () in
        SSetLink (f, p_obj f, p_obj f)
      | `Bump ->
        let f = p_fam () in
        SBump (f, p_obj f, p_int ())
      | `VecAddO ->
        let f = p_fam () in
        SVecAddO (f, p_vec (), p_obj f)
      | `VecAddS -> SVecAddS (p_vec (), p_str ())
      | `MapPutStr ->
        SMapPutStr (p_map (), Fuzz_rng.int rng (Array.length map_keys), p_str ())
      | `ArrStore -> SArrStore (p_arr (), p_int (), p_int ())
      | `InstanceofAcc ->
        let f = p_fam () in
        let c = Fuzz_rng.pick rng fam_members.(f) in
        SInstanceofAcc (c, p_obj f)
      | `AccAdd -> SAccAdd (p_int ())
      | `SaccCat -> SSaccCat (p_str ())
      | `If ->
        SIf (p_int (), gen_micros ~in_loop:false 1 2, gen_micros ~in_loop:false 0 1)
      | `Loop -> SLoop (p_int (), gen_micros ~in_loop:true 1 2)
      | `PrintInt -> SPrintInt (p_int ())
      | `PrintStr -> SPrintStr (p_str ())
      | `BumpNull -> SBumpNull (p_fam ())
    in
    steps.(k) <- Some s;
    (match result_ty s with
     | Some TInt -> ints := k :: !ints
     | Some TStr -> strs := k :: !strs
     | Some (TObj f) -> objs.(f) <- k :: objs.(f)
     | Some TVec -> vecs := k :: !vecs
     | Some TMap -> maps := k :: !maps
     | Some TArr -> arrs := k :: !arrs
     | None -> ())
  done;
  let n_cls = Array.length classes in
  { classes;
    steps;
    alt_get = Array.make n_cls false;
    aux = Array.make n_cls false;
    ovr = Array.make n_cls false }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

type rendered = {
  src : string;        (* self-contained TJ program *)
  seed_lines : int list;  (* 1-based lines of the two trailing prints *)
  stmt_count : int;    (* statements rendered for the steps *)
}

let contains ~(sub : string) (s : string) : bool =
  let sl = String.length sub and l = String.length s in
  let rec go i = i + sl <= l && (String.sub s i sl = sub || go (i + 1)) in
  go 0

let split_lines (s : string) : string list =
  match List.rev (String.split_on_char '\n' s) with
  | "" :: rest -> List.rev rest
  | all -> List.rev all

let render (m : model) : rendered =
  let n = Array.length m.steps in
  let live j = j >= 0 && j < n && m.steps.(j) <> None in
  let ty_of j =
    match m.steps.(j) with None -> None | Some s -> result_ty s
  in
  let root_of f =
    let r = ref (-1) in
    Array.iteri
      (fun i c -> if c.c_family = f && c.c_parent = None && !r < 0 then r := i)
      m.classes;
    !r
  in
  let cname c = m.classes.(c).c_name in
  let stmts = ref 0 in
  let body = ref [] in
  let emit ?(stmt = 1) line =
    body := line :: !body;
    stmts := !stmts + stmt
  in
  (* Resolve an operand of required type [ty]; may emit an aux
     declaration line (for non-scalar defaults) at [indent]. *)
  let resolve ~indent ~k ~pos ty op : string =
    let valid j = live j && ty_of j = Some ty in
    match op with
    | V j when valid j -> Printf.sprintf "v%d" j
    | _ -> (
      match ty with
      | TInt -> "7"
      | TStr -> "\"7\""
      | TObj f ->
        let r = cname (root_of f) in
        let v = Printf.sprintf "v%dd%d" k !pos in
        incr pos;
        emit (Printf.sprintf "%s%s %s = new %s();" indent r v r);
        v
      | TVec ->
        let v = Printf.sprintf "v%dd%d" k !pos in
        incr pos;
        emit (Printf.sprintf "%sVector %s = new Vector();" indent v);
        v
      | TMap ->
        let v = Printf.sprintf "v%dd%d" k !pos in
        incr pos;
        emit (Printf.sprintf "%sHashMap %s = new HashMap();" indent v);
        v
      | TArr ->
        let v = Printf.sprintf "v%dd%d" k !pos in
        incr pos;
        emit (Printf.sprintf "%sint[] %s = new int[4];" indent v);
        v)
  in
  let arr_len op =
    match op with
    | V j when live j && ty_of j = Some TArr -> (
      match m.steps.(j) with Some (SNewArr s) -> s | _ -> 4)
    | _ -> 4
  in
  let render_micro ~indent ~k ~pos mi =
    match mi with
    | MAccAdd x ->
      let e = resolve ~indent ~k ~pos TInt x in
      emit (Printf.sprintf "%sacc = acc + %s;" indent e)
    | MAccAddIdx -> emit (Printf.sprintf "%sacc = acc + i%d;" indent k)
    | MSaccCat s ->
      let e = resolve ~indent ~k ~pos TStr s in
      emit (Printf.sprintf "%ssacc = sacc + %s;" indent e)
    | MBump (f, o, x) ->
      let eo = resolve ~indent ~k ~pos (TObj f) o in
      let ex = resolve ~indent ~k ~pos TInt x in
      emit (Printf.sprintf "%s%s.bump(%s);" indent eo ex)
    | MVecAdd (f, v, o) ->
      let ev = resolve ~indent ~k ~pos TVec v in
      let eo = resolve ~indent ~k ~pos (TObj f) o in
      emit (Printf.sprintf "%s%s.add(%s);" indent ev eo)
    | MStoreFi (f, o, x) ->
      let eo = resolve ~indent ~k ~pos (TObj f) o in
      let ex = resolve ~indent ~k ~pos TInt x in
      emit (Printf.sprintf "%s%s.fi = %s;" indent eo ex)
  in
  let ind = "  " and ind2 = "    " in
  Array.iteri
    (fun k sopt ->
      match sopt with
      | None -> ()
      | Some s ->
        let pos = ref 0 in
        let r ty op = resolve ~indent:ind ~k ~pos ty op in
        (match s with
         | SIntConst c -> emit (Printf.sprintf "  int v%d = %d;" k c)
         | SIntBin (op, a, b) ->
           let ea = r TInt a and eb = r TInt b in
           emit (Printf.sprintf "  int v%d = %s %s %s;" k ea op eb)
         | SIntDivK a ->
           let ea = r TInt a in
           emit (Printf.sprintf "  int v%d = %s / 3;" k ea)
         | SIntDivV (a, b) ->
           let ea = r TInt a and eb = r TInt b in
           emit (Printf.sprintf "  int v%d = %s / %s;" k ea eb)
         | SIntMod (a, d) ->
           let ea = r TInt a in
           emit (Printf.sprintf "  int v%d = %s %% %d;" k ea d)
         | SParse a ->
           let ea = r TStr a in
           emit (Printf.sprintf "  int v%d = parseInt(%s);" k ea)
         | SStrLen a ->
           let ea = r TStr a in
           emit (Printf.sprintf "  int v%d = %s.length();" k ea)
         | SCharCode a ->
           let ea = r TStr a in
           emit (Printf.sprintf "  int v%d = 0;" k);
           emit ~stmt:2
             (Printf.sprintf "  if (%s.length() > 0) { v%d = %s.charCodeAt(0); }"
                ea k ea)
         | SCallGet (f, o) ->
           let eo = r (TObj f) o in
           emit (Printf.sprintf "  int v%d = %s.get();" k eo)
         | SLoadFi (f, o) ->
           let eo = r (TObj f) o in
           emit (Printf.sprintf "  int v%d = %s.fi;" k eo)
         | SVecSize v ->
           let ev = r TVec v in
           emit (Printf.sprintf "  int v%d = %s.size();" k ev)
         | SMapSize mo ->
           let em = r TMap mo in
           emit (Printf.sprintf "  int v%d = %s.size();" k em)
         | SArrLoad (a, i) ->
           let len = arr_len a in
           let ea = r TArr a and ei = r TInt i in
           emit ~stmt:2
             (Printf.sprintf
                "  int v%di = %s %% %d; if (v%di < 0) { v%di = 0 - v%di; }" k ei
                len k k k);
           emit (Printf.sprintf "  int v%d = %s[v%di];" k ea k)
         | SArrLoadRaw (a, i) ->
           let ea = r TArr a and ei = r TInt i in
           emit (Printf.sprintf "  int v%d = %s[%s];" k ea ei)
         | SStrConst s -> emit (Printf.sprintf "  String v%d = \"%s\";" k s)
         | SStrCat (a, b) ->
           let ea = r TStr a and eb = r TStr b in
           emit (Printf.sprintf "  String v%d = %s + %s;" k ea eb)
         | SItoa a ->
           let ea = r TInt a in
           emit (Printf.sprintf "  String v%d = itoa(%s);" k ea)
         | SSubstr a ->
           let ea = r TStr a in
           emit
             (Printf.sprintf "  String v%d = %s.substring(0, %s.length() %% 3);"
                k ea ea)
         | SCallTag (f, o) ->
           let eo = r (TObj f) o in
           emit (Printf.sprintf "  String v%d = %s.tag();" k eo)
         | SLoadFs (f, o) ->
           let eo = r (TObj f) o in
           emit (Printf.sprintf "  String v%d = %s.fs;" k eo)
         | SMapGetStr (mo, key) ->
           let em = r TMap mo in
           let kk = map_keys.(key) in
           emit (Printf.sprintf "  String v%d = \"7\";" k);
           emit ~stmt:2
             (Printf.sprintf
                "  if (%s.containsKey(\"%s\")) { v%d = (String) %s.get(\"%s\"); }"
                em kk k em kk)
         | SNew (f, c) ->
           emit
             (Printf.sprintf "  %s v%d = new %s();" (cname (root_of f)) k
                (cname c))
         | SCast (f, c, o) ->
           let eo = r (TObj f) o in
           emit
             (Printf.sprintf "  %s v%d = (%s) %s;" (cname (root_of f)) k
                (cname c) eo)
         | SGetLink (f, o) ->
           let eo = r (TObj f) o in
           emit
             (Printf.sprintf "  %s v%d = %s.getLink();" (cname (root_of f)) k eo)
         | SVecGetObj (f, v, i) ->
           let root = cname (root_of f) in
           let ev = r TVec v and ei = r TInt i in
           emit (Printf.sprintf "  %s v%d = new %s();" root k root);
           emit (Printf.sprintf "  if (%s.size() > 0) {" ev);
           emit ~stmt:2
             (Printf.sprintf
                "    int v%di = %s %% %s.size(); if (v%di < 0) { v%di = 0 - v%di; }"
                k ei ev k k k);
           emit (Printf.sprintf "    v%d = (%s) %s.get(v%di);" k root ev k);
           emit ~stmt:0 "  }"
         | SNewVec -> emit (Printf.sprintf "  Vector v%d = new Vector();" k)
         | SNewMap -> emit (Printf.sprintf "  HashMap v%d = new HashMap();" k)
         | SNewArr sz -> emit (Printf.sprintf "  int[] v%d = new int[%d];" k sz)
         | SStoreFi (f, o, x) ->
           let eo = r (TObj f) o and ex = r TInt x in
           emit (Printf.sprintf "  %s.fi = %s;" eo ex)
         | SStoreFs (f, o, s) ->
           let eo = r (TObj f) o and es = r TStr s in
           emit (Printf.sprintf "  %s.fs = %s;" eo es)
         | SSetLink (f, o1, o2) ->
           let e1 = r (TObj f) o1 and e2 = r (TObj f) o2 in
           emit (Printf.sprintf "  %s.setLink(%s);" e1 e2)
         | SBump (f, o, x) ->
           let eo = r (TObj f) o and ex = r TInt x in
           emit (Printf.sprintf "  %s.bump(%s);" eo ex)
         | SVecAddO (f, v, o) ->
           let ev = r TVec v and eo = r (TObj f) o in
           emit (Printf.sprintf "  %s.add(%s);" ev eo)
         | SVecAddS (v, s) ->
           let ev = r TVec v and es = r TStr s in
           emit (Printf.sprintf "  %s.add(%s);" ev es)
         | SMapPutStr (mo, key, s) ->
           let em = r TMap mo and es = r TStr s in
           emit (Printf.sprintf "  %s.put(\"%s\", %s);" em map_keys.(key) es)
         | SArrStore (a, i, x) ->
           let len = arr_len a in
           let ea = r TArr a and ei = r TInt i and ex = r TInt x in
           emit ~stmt:2
             (Printf.sprintf
                "  int v%di = %s %% %d; if (v%di < 0) { v%di = 0 - v%di; }" k ei
                len k k k);
           emit (Printf.sprintf "  %s[v%di] = %s;" ea k ex)
         | SInstanceofAcc (c, o) ->
           let f = m.classes.(c).c_family in
           let eo = r (TObj f) o in
           emit ~stmt:2
             (Printf.sprintf "  if (%s instanceof %s) { acc = acc + 1; }" eo
                (cname c))
         | SAccAdd x ->
           let ex = r TInt x in
           emit (Printf.sprintf "  acc = acc + %s;" ex)
         | SSaccCat s ->
           let es = r TStr s in
           emit (Printf.sprintf "  sacc = sacc + %s;" es)
         | SPrintInt x ->
           let ex = r TInt x in
           emit (Printf.sprintf "  print(itoa(%s));" ex)
         | SPrintStr s ->
           let es = r TStr s in
           emit (Printf.sprintf "  print(%s);" es)
         | SBumpNull f ->
           emit
             (Printf.sprintf "  %s v%dn = null;" (cname (root_of f)) k);
           emit (Printf.sprintf "  v%dn.bump(7);" k)
         | SIf (c, th, el) ->
           let ec = r TInt c in
           emit (Printf.sprintf "  if (%s %% 2 == 0) {" ec);
           List.iter (render_micro ~indent:ind2 ~k ~pos) th;
           if el <> [] then begin
             emit ~stmt:0 "  } else {";
             List.iter (render_micro ~indent:ind2 ~k ~pos) el
           end;
           emit ~stmt:0 "  }"
         | SLoop (b, bodymi) ->
           let eb = r TInt b in
           emit
             (Printf.sprintf "  for (int i%d = 0; i%d < (%s %% 4 + 1); i%d++) {"
                k k eb k);
           List.iter (render_micro ~indent:ind2 ~k ~pos) bodymi;
           emit ~stmt:0 "  }"))
    m.steps;
  let body_lines = List.rev !body in
  let body_txt = String.concat "\n" body_lines in
  (* Class universe actually referenced by the surviving steps. *)
  let n_cls = Array.length m.classes in
  let used = Array.make n_cls false in
  let idx_of_name nm =
    let r = ref (-1) in
    Array.iteri (fun i c -> if c.c_name = nm then r := i) m.classes;
    !r
  in
  Array.iteri
    (fun i c ->
      if contains ~sub:(c.c_name ^ " ") body_txt
         || contains ~sub:(c.c_name ^ "(") body_txt
         || contains ~sub:(c.c_name ^ ")") body_txt
      then used.(i) <- true)
    m.classes;
  (* ancestor closure: an emitted subclass needs its parents *)
  let rec close i =
    match m.classes.(i).c_parent with
    | None -> ()
    | Some p ->
      let pi = idx_of_name p in
      if not used.(pi) then begin
        used.(pi) <- true;
        close pi
      end
  in
  Array.iteri (fun i u -> if u then close i) used;
  let class_lines = ref [] in
  Array.iteri
    (fun i c ->
      if used.(i) then begin
        let nm = c.c_name in
        (* Flag-dependent extra members keep to ONE line each, inserted
           just before the class's closing brace: a whole-method
           insertion/removal that leaves every other line of the class
           as it was. *)
        let aux_lines =
          if m.aux.(i) then
            [ Printf.sprintf
                "  int aux%d() { %s a = new %s(); a.setLink(a); return a.fi; }"
                i nm nm ]
          else []
        in
        match c.c_parent with
        | None ->
          class_lines :=
            !class_lines
            @ [ Printf.sprintf "class %s {" nm;
                "  int fi;";
                "  String fs;";
                Printf.sprintf "  %s link;" nm;
                Printf.sprintf
                  "  %s() { this.fi = %d; this.fs = \"t%d\"; this.link = this; }"
                  nm (i + 1) i;
                Printf.sprintf "  String tag() { return \"%s\"; }" nm;
                (if m.alt_get.(i) then
                   Printf.sprintf
                     "  int get() { %s h = new %s(); h.bump(this.fi); return h.fi; }"
                     nm nm
                 else "  int get() { return this.fi; }");
                "  void bump(int n) { this.fi = this.fi + n; }";
                Printf.sprintf "  void setLink(%s o) { this.link = o; }" nm;
                Printf.sprintf "  %s getLink() { return this.link; }" nm ]
            @ aux_lines
            @ [ "}" ]
        | Some p ->
          class_lines :=
            !class_lines
            @ [ Printf.sprintf "class %s extends %s {" nm p;
                Printf.sprintf
                  "  %s() { super(); this.fi = %d; this.fs = \"t%d\"; }" nm
                  (i + 2) i;
                Printf.sprintf "  String tag() { return \"%s\"; }" nm;
                (if m.alt_get.(i) then
                   Printf.sprintf
                     "  int get() { %s h = new %s(); h.bump(this.fi * %d); return h.fi; }"
                     nm nm (i + 2)
                 else Printf.sprintf "  int get() { return this.fi * %d; }" (i + 2)) ]
            @ (if m.ovr.(i) then
                 [ Printf.sprintf
                     "  void bump(int n) { %s o = new %s(); o.fi = n; this.link = o; }"
                     nm nm ]
               else [])
            @ aux_lines
            @ [ "}" ]
      end)
    m.classes;
  (* Prelude subset: only containers the body mentions. *)
  let containers =
    (if contains ~sub:"Vector" body_txt then [ `Vector ] else [])
    @ (if contains ~sub:"HashMap" body_txt then [ `HashMap ] else [])
  in
  let prelude = Slice_workloads.Runtime_lib.prelude_of containers in
  let header_lines = split_lines prelude @ !class_lines in
  let all =
    header_lines
    @ [ "void main(String[] args) {"; "  int acc = 0;"; "  String sacc = \"\";" ]
    @ body_lines
    @ [ "  print(itoa(acc));"; "  print(sacc);"; "}" ]
  in
  let total = List.length all in
  { src = String.concat "\n" all ^ "\n";
    seed_lines = [ total - 2; total - 1 ];
    stmt_count = !stmts }

(* ------------------------------------------------------------------ *)
(* Scaled mega-workloads (ROADMAP item 3)                              *)
(* ------------------------------------------------------------------ *)

(* [generate_scaled] targets the 10^5-10^6-statement regime the paper's
   miniature suite never reaches.  Unlike [gen]/[render] (a step model
   sized for shrinkable fuzz repros), the scaled generator emits source
   directly, in repeating ~4-line blocks grouped into top-level part
   functions (`int partK(int acc, Vector vec, HashMap map)`) that main
   threads an accumulator through.  Structure:

   - deep call chains: every family root carries w0..w{D} with wi
     calling w{i+1} and subclasses overriding mid-chain hops, so one
     `o.w0(..)` dispatches through D+1 frames;
   - wide class families: family count scales with the target size,
     each a root plus two overriding subclasses;
   - container-heavy heaps: a bounded pool of Vectors/HashMaps created
     in main and threaded round-robin into parts.  The pool bound keeps
     the object-sensitive context space finite; the round-robin ties
     each container index to ONE class family so the in-block downcast
     on `vec.get(0)` is safe by construction.

   Programs are well-formed and terminating by construction: no
   recursion, the only loops are `for (i < 3)`, every arithmetic
   operand stays non-negative (no division, guarded modulus operands),
   and parseInt only ever sees itoa output.

   Statement counts are calibrated, not guessed: the requested [stmts]
   is in front-end statement ids ([Program.stmt_count]), so the
   generator loads a small pilot through [Frontend] to measure the
   per-part lowering cost and solves for the part count.  That keeps
   the +/-5%% accuracy contract independent of lowering changes. *)

type scaled = {
  sc_src : string;
  sc_stmt_count : int;  (* measured [Program.stmt_count] of [sc_src] *)
  sc_classes : int;     (* generated classes (prelude excluded) *)
  sc_methods : int;     (* generated methods, parts and main included *)
  sc_parts : int;
  sc_seed_line : int;   (* 1-based line of the trailing print(itoa(acc)) *)
}

let scaled_keys = [| "ka"; "kb"; "kc"; "kd" |]
let scaled_chain_depth = 8

let emit_scaled_src ~seed ~families ~pool ~parts ~blocks_per_part :
    string * int =
  let rng = Fuzz_rng.make seed in
  let buf = Buffer.create (1 lsl 16) in
  let lines = ref 0 in
  let add s =
    Buffer.add_string buf s;
    String.iter (fun c -> if c = '\n' then incr lines) s
  in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n';
        incr lines)
      fmt
  in
  add (Slice_workloads.Runtime_lib.prelude_of [ `Vector; `HashMap ]);
  (* class families *)
  for f = 0 to families - 1 do
    line "class R%d {" f;
    line "  int fi;";
    line "  String fs;";
    line "  R%d link;" f;
    line "  R%d() { this.fi = %d; this.fs = \"r%d\"; this.link = this; }" f
      (f + 1) f;
    line "  String tag() { return \"R%d\"; }" f;
    line "  int get() { return this.fi; }";
    line "  void bump(int n) { this.fi = this.fi + n; }";
    line "  void setLink(R%d o) { this.link = o; }" f;
    line "  R%d getLink() { return this.link; }" f;
    for i = 0 to scaled_chain_depth - 1 do
      line "  int w%d(int n) { return this.w%d(n + %d); }" i (i + 1)
        ((i mod 3) + 1)
    done;
    line "  int w%d(int n) { this.fi = this.fi + n; return this.fi; }"
      scaled_chain_depth;
    line "}";
    line "class S%d_0 extends R%d {" f f;
    line "  S%d_0() { super(); this.fi = %d; this.fs = \"s%d0\"; }" f (f + 2) f;
    line "  String tag() { return \"S%d_0\"; }" f;
    line "  int get() { return this.fi * 2; }";
    line "  int w4(int n) { return this.w5(n + 2); }";
    line "}";
    line "class S%d_1 extends R%d {" f f;
    line "  S%d_1() { super(); this.fi = %d; this.fs = \"s%d1\"; }" f (f + 3) f;
    line "  String tag() { return \"S%d_1\"; }" f;
    line "  int w6(int n) { return this.w7(n + 5); }";
    line "}"
  done;
  (* part functions *)
  let block_kinds =
    [ (3, `Alloc); (3, `Vec); (2, `Map); (2, `Field); (2, `Str); (1, `Loop) ]
  in
  for j = 0 to parts - 1 do
    let f = j mod pool mod families in
    line "int part%d(int acc, Vector vec, HashMap map) {" j;
    line "  int a = acc;";
    line "  R%d cur = new R%d();" f f;
    line "  R%d prev = new R%d();" f f;
    for k = 0 to blocks_per_part - 1 do
      match Fuzz_rng.weighted rng block_kinds with
      | `Alloc ->
        let c =
          match Fuzz_rng.int rng 3 with
          | 0 -> Printf.sprintf "R%d" f
          | 1 -> Printf.sprintf "S%d_0" f
          | _ -> Printf.sprintf "S%d_1" f
        in
        line "  R%d o%d = new %s();" f k c;
        line "  cur.setLink(o%d);" k;
        line "  a = a + o%d.w0(a %% 9 + 1);" k;
        line "  prev = cur;";
        line "  cur = o%d;" k
      | `Vec ->
        line "  vec.add(cur);";
        line
          "  if (vec.size() > 0) { R%d g%d = (R%d) vec.get(0); a = a + g%d.get(); }"
          f k f k
      | `Map ->
        let key = scaled_keys.(Fuzz_rng.int rng (Array.length scaled_keys)) in
        line "  map.put(\"%s\", itoa(a %% 97));" key;
        line
          "  if (map.containsKey(\"%s\")) { String s%d = (String) map.get(\"%s\"); a = a + s%d.length(); }"
          key k key k
      | `Field ->
        line "  cur.fi = a %% 1001;";
        line "  int t%d = prev.get() %% 17;" k;
        line "  cur.bump(t%d);" k;
        line "  R%d l%d = cur.getLink();" f k;
        line "  a = a + l%d.fi;" k
      | `Str ->
        line "  String s%d = itoa(a %% 100);" k;
        line "  a = a + s%d.length();" k;
        line "  a = a + parseInt(s%d);" k
      | `Loop ->
        line "  for (int i%d = 0; i%d < 3; i%d++) { a = a + i%d; cur.bump(i%d); }"
          k k k k k
    done;
    line "  return a;";
    line "}"
  done;
  (* main: container pool + accumulator threading *)
  line "void main(String[] args) {";
  line "  int acc = 1;";
  for i = 0 to pool - 1 do
    line "  Vector c%d = new Vector();" i;
    line "  HashMap h%d = new HashMap();" i
  done;
  for j = 0 to parts - 1 do
    let pi = j mod pool in
    line "  acc = part%d(acc, c%d, h%d);" j pi pi
  done;
  let seed_line = !lines + 1 in
  line "  print(itoa(acc));";
  line "}";
  (Buffer.contents buf, seed_line)

let generate_scaled ~(seed : int) ~(stmts : int) : scaled =
  if stmts < 2_000 then
    invalid_arg "Gen_tj.generate_scaled: stmts must be >= 2000";
  let families = max 3 (min 12 (3 + (stmts / 100_000))) in
  let pool = max families (min 48 (4 + (stmts / 25_000))) in
  (* Part size sets the calibration granularity: one part is the
     smallest unit the count can move by, so small requests get small
     parts (a 50-block part is ~8% of a 5k-statement program — outside
     the +-5% contract by construction). *)
  let blocks_per_part = max 5 (min 50 (stmts / 400)) in
  let emit parts =
    emit_scaled_src ~seed ~families ~pool ~parts ~blocks_per_part
  in
  let measure src =
    Slice_ir.Program.stmt_count
      (Slice_front.Frontend.load_exn ~file:"scaled.tj" src)
  in
  (* Calibrate: fixed overhead (prelude + classes + main) from a
     zero-part pilot, per-part slope from a multi-part pilot sharing the
     same RNG prefix.  12 parts = 600 blocks, enough samples that the
     mean block cost is within ~2% of the long-run mean. *)
  let overhead = measure (fst (emit 0)) in
  let pilot_parts = 12 in
  let pilot_cost = measure (fst (emit pilot_parts)) in
  let per_part =
    float_of_int (pilot_cost - overhead) /. float_of_int pilot_parts
  in
  let parts0 =
    max 1
      (int_of_float
         (Float.round (float_of_int (stmts - overhead) /. per_part)))
  in
  (* The pilot slope is a long-run mean; the random block mix makes
     individual parts vary, so the linear estimate can miss by a few
     percent.  Measure each candidate, re-derive the slope from the
     measurement itself, and correct the part count (the RNG stream is
     per-part sequential, so a shorter or longer emission shares its
     prefix) keeping the best candidate seen.  Large requests converge
     on the first emission, so extra loads are only ever paid where
     loads are cheap. *)
  let rec refine parts attempts best =
    let src, seed_line = emit parts in
    let actual = measure src in
    let miss = abs (actual - stmts) in
    let best =
      match best with
      | Some (_, _, best_actual, _) when abs (best_actual - stmts) <= miss ->
        best
      | _ -> Some (src, seed_line, actual, parts)
    in
    if float_of_int miss /. float_of_int stmts <= 0.02 || attempts <= 0 then
      Option.get best
    else
      let slope = float_of_int (actual - overhead) /. float_of_int parts in
      let delta =
        int_of_float (Float.round (float_of_int (stmts - actual) /. slope))
      in
      let delta = if delta = 0 then compare stmts actual else delta in
      let parts' = max 1 (parts + delta) in
      if parts' = parts then Option.get best
      else refine parts' (attempts - 1) best
  in
  let src, seed_line, actual, parts = refine parts0 4 None in
  { sc_src = src;
    sc_stmt_count = actual;
    sc_classes = 3 * families;
    sc_methods = (22 * families) + parts + 1;
    sc_parts = parts;
    sc_seed_line = seed_line }

(* ------------------------------------------------------------------ *)
(* Edits (incremental re-analysis fuzzing)                             *)
(* ------------------------------------------------------------------ *)

(* One random edit to a model, for fuzzing [Engine.update] against
   from-scratch loads.  The kinds map onto the incremental tiers they
   tend to exercise (noop / patched / resolved-incremental / rebuilt):
   - [Tweak]: change one literal/operator in place — line structure is
     preserved, so the delta classifies as a body edit, and pointer-free
     tweaks keep constraint summaries (the Patched path);
   - [Replace]: swap a step for a fresh one of the same result type — a
     body edit of [main] whose summary may move (Resolved-incremental,
     or Patched when it does not); when the rendered line count shifts
     the delta is structural (Rebuilt);
   - [Delete] / [Insert]: remove or re-add a whole step — main's line
     structure changes, the full Rebuilt fallback;
   - [Swap_body]: toggle a class's summary-moving [get()] body variant
     (see [model.alt_get]) — a summary-moving edit of a method other
     than [main] (Resolved-incremental);
   - [Add_aux] / [Remove_aux]: toggle an uncalled, uniquely named
     [aux<i>()] method on a class — dispatch-neutral whole-method
     edits, which the delta classifies [Structural] (Rebuilt);
   - [Add_override] / [Remove_override]: toggle a [bump] override on a
     subclass — dispatch-moving whole-method edits, Rebuilt as well.
   Edited models stay well-formed by construction: replacements keep
   the result type, deletions fall back to typed defaults at render
   time, fresh operands only name EARLIER live steps (the [v{j}]
   declaration-order invariant), and flag edits only target classes the
   current rendering actually emits (flags on unrendered classes would
   be source-invisible noops). *)
type edit_kind =
  | Tweak
  | Replace
  | Delete
  | Insert
  | Swap_body
  | Add_aux
  | Remove_aux
  | Add_override
  | Remove_override

let edit_kind_to_string = function
  | Tweak -> "tweak"
  | Replace -> "replace"
  | Delete -> "delete"
  | Insert -> "insert"
  | Swap_body -> "swap-body"
  | Add_aux -> "add-aux"
  | Remove_aux -> "remove-aux"
  | Add_override -> "add-override"
  | Remove_override -> "remove-override"

let all_edit_kinds =
  [ Tweak; Replace; Delete; Insert; Swap_body; Add_aux; Remove_aux;
    Add_override; Remove_override ]

let edit_kind_of_string (s : string) : edit_kind option =
  List.find_opt (fun k -> edit_kind_to_string k = s) all_edit_kinds

let edit ?(kinds : edit_kind list option) ~(rng : Fuzz_rng.t) (m : model) :
    model * edit_kind =
  let n = Array.length m.steps in
  let idxs = List.init n Fun.id in
  let live = List.filter (fun k -> m.steps.(k) <> None) idxs in
  let holes = List.filter (fun k -> m.steps.(k) = None) idxs in
  let ty_of j = match m.steps.(j) with None -> None | Some s -> result_ty s in
  let with_step k s =
    let steps = Array.copy m.steps in
    steps.(k) <- s;
    { m with steps }
  in
  let p ty k =
    match List.filter (fun j -> j < k && ty_of j = Some ty) live with
    | [] -> D
    | xs -> if Fuzz_rng.int rng 100 < 80 then V (Fuzz_rng.pick rng xs) else D
  in
  let fam_members f =
    let out = ref [] in
    Array.iteri (fun i c -> if c.c_family = f then out := i :: !out) m.classes;
    List.rev !out
  in
  let fresh_int k =
    match
      Fuzz_rng.weighted rng [ (3, `Const); (3, `Bin); (2, `Mod); (1, `Len) ]
    with
    | `Const -> SIntConst (1 + Fuzz_rng.int rng 50)
    | `Bin -> SIntBin (Fuzz_rng.pick rng [ "+"; "-"; "*" ], p TInt k, p TInt k)
    | `Mod -> SIntMod (p TInt k, 1 + Fuzz_rng.int rng 6)
    | `Len -> SStrLen (p TStr k)
  in
  let fresh_str k =
    match Fuzz_rng.weighted rng [ (3, `Const); (2, `Cat); (2, `Itoa) ] with
    | `Const -> SStrConst str_consts.(Fuzz_rng.int rng (Array.length str_consts))
    | `Cat -> SStrCat (p TStr k, p TStr k)
    | `Itoa -> SItoa (p TInt k)
  in
  let fresh_effect k =
    match Fuzz_rng.weighted rng [ (3, `Acc); (2, `Sacc); (1, `Print) ] with
    | `Acc -> SAccAdd (p TInt k)
    | `Sacc -> SSaccCat (p TStr k)
    | `Print -> SPrintInt (p TInt k)
  in
  (* literal tweaks: steps whose rendering differs in exactly one token *)
  let tweakable =
    List.filter
      (fun k ->
        match m.steps.(k) with
        | Some (SIntConst _ | SStrConst _ | SIntBin _ | SIntMod _) -> true
        | _ -> false)
      live
  in
  (* Flag-edit candidates: only classes the current rendering emits. *)
  let rsrc = (render m).src in
  let rendered_classes =
    List.filter
      (fun i -> contains ~sub:("class " ^ m.classes.(i).c_name ^ " ") rsrc)
      (List.init (Array.length m.classes) Fun.id)
  in
  let subclasses =
    List.filter (fun i -> m.classes.(i).c_parent <> None) rendered_classes
  in
  let aux_off = List.filter (fun i -> not m.aux.(i)) rendered_classes in
  let aux_on = List.filter (fun i -> m.aux.(i)) rendered_classes in
  let ovr_off = List.filter (fun i -> not m.ovr.(i)) subclasses in
  let ovr_on = List.filter (fun i -> m.ovr.(i)) subclasses in
  let with_flag sel i v =
    let alt_get = Array.copy m.alt_get
    and aux = Array.copy m.aux
    and ovr = Array.copy m.ovr in
    (match sel with
    | `Get -> alt_get.(i) <- v
    | `Aux -> aux.(i) <- v
    | `Ovr -> ovr.(i) <- v);
    { m with alt_get; aux; ovr }
  in
  let allowed k = match kinds with None -> true | Some ks -> List.mem k ks in
  let choices =
    (if tweakable <> [] then [ (4, Tweak) ] else [])
    @ (if live <> [] then [ (3, Replace); (2, Delete) ] else [])
    @ (if holes <> [] then [ (2, Insert) ] else [])
    @ (if rendered_classes <> [] then [ (3, Swap_body) ] else [])
    @ (if aux_off <> [] then [ (2, Add_aux) ] else [])
    @ (if aux_on <> [] then [ (2, Remove_aux) ] else [])
    @ (if ovr_off <> [] then [ (2, Add_override) ] else [])
    @ if ovr_on <> [] then [ (2, Remove_override) ] else []
  in
  let choices = List.filter (fun (_, k) -> allowed k) choices in
  if choices = [] then (m, Tweak)
  else
    match Fuzz_rng.weighted rng choices with
    | Tweak ->
      let k = Fuzz_rng.pick rng tweakable in
      (* offset picks guarantee the new literal differs from the old *)
      let s' =
        match m.steps.(k) with
        | Some (SIntConst c) ->
          SIntConst (1 + ((c + Fuzz_rng.int rng 49) mod 50))
        | Some (SStrConst s) ->
          let cur = ref 0 in
          Array.iteri (fun j v -> if v = s then cur := j) str_consts;
          let len = Array.length str_consts in
          SStrConst str_consts.((!cur + 1 + Fuzz_rng.int rng (len - 1)) mod len)
        | Some (SIntBin (op, a, b)) ->
          SIntBin
            (Fuzz_rng.pick rng (List.filter (( <> ) op) [ "+"; "-"; "*" ]), a, b)
        | Some (SIntMod (a, d)) ->
          SIntMod (a, 1 + ((d + Fuzz_rng.int rng 5) mod 6))
        | _ -> assert false
      in
      (with_step k (Some s'), Tweak)
    | Replace ->
      let k = Fuzz_rng.pick rng live in
      let s' =
        match ty_of k with
        | Some TInt -> fresh_int k
        | Some TStr -> fresh_str k
        | Some (TObj f) -> SNew (f, Fuzz_rng.pick rng (fam_members f))
        | Some TVec -> SNewVec
        | Some TMap -> SNewMap
        | Some TArr -> SNewArr (2 + Fuzz_rng.int rng 5)
        | None -> fresh_effect k
      in
      (with_step k (Some s'), Replace)
    | Delete ->
      let k = Fuzz_rng.pick rng live in
      (with_step k None, Delete)
    | Insert ->
      let k = Fuzz_rng.pick rng holes in
      let s' =
        match Fuzz_rng.int rng 3 with
        | 0 -> fresh_int k
        | 1 -> fresh_str k
        | _ -> fresh_effect k
      in
      (with_step k (Some s'), Insert)
    | Swap_body ->
      let i = Fuzz_rng.pick rng rendered_classes in
      (with_flag `Get i (not m.alt_get.(i)), Swap_body)
    | Add_aux ->
      let i = Fuzz_rng.pick rng aux_off in
      (with_flag `Aux i true, Add_aux)
    | Remove_aux ->
      let i = Fuzz_rng.pick rng aux_on in
      (with_flag `Aux i false, Remove_aux)
    | Add_override ->
      let i = Fuzz_rng.pick rng ovr_off in
      (with_flag `Ovr i true, Add_override)
    | Remove_override ->
      let i = Fuzz_rng.pick rng ovr_on in
      (with_flag `Ovr i false, Remove_override)

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

(* Greedy structure-preserving shrinker: try deleting whole steps (last
   to first — later steps tend to consume earlier ones), then individual
   micro-statements inside branches/loops (keeping the then-branch and
   loop body non-empty so the rendering stays unambiguous), repeating to
   a bounded fixpoint.  [still_failing] must return true iff the
   candidate still exhibits the ORIGINAL failure. *)
let shrink (m : model) ~(still_failing : model -> bool) : model =
  let cur = ref { m with steps = Array.copy m.steps } in
  let try_candidate cand = if still_failing cand then (cur := cand; true) else false in
  let changed = ref true and passes = ref 0 in
  while !changed && !passes < 6 do
    changed := false;
    incr passes;
    for k = Array.length (!cur).steps - 1 downto 0 do
      if (!cur).steps.(k) <> None then begin
        let steps = Array.copy (!cur).steps in
        steps.(k) <- None;
        if try_candidate { !cur with steps } then changed := true
      end
    done;
    (* micro-level shrinks *)
    for k = 0 to Array.length (!cur).steps - 1 do
      let drop_nth xs i = List.filteri (fun j _ -> j <> i) xs in
      match (!cur).steps.(k) with
      | Some (SIf (c, th, el)) ->
        (* drop else micros, then then-micros (keep >= 1) *)
        let th = ref th and el = ref el in
        let attempt mk =
          let steps = Array.copy (!cur).steps in
          steps.(k) <- Some mk;
          try_candidate { !cur with steps }
        in
        let i = ref 0 in
        while !i < List.length !el do
          if attempt (SIf (c, !th, drop_nth !el !i)) then begin
            el := drop_nth !el !i;
            changed := true
          end
          else incr i
        done;
        let i = ref 0 in
        while List.length !th > 1 && !i < List.length !th do
          if attempt (SIf (c, drop_nth !th !i, !el)) then begin
            th := drop_nth !th !i;
            changed := true
          end
          else incr i
        done
      | Some (SLoop (b, bd)) ->
        let bd = ref bd in
        let attempt mk =
          let steps = Array.copy (!cur).steps in
          steps.(k) <- Some mk;
          try_candidate { !cur with steps }
        in
        let i = ref 0 in
        while List.length !bd > 1 && !i < List.length !bd do
          if attempt (SLoop (b, drop_nth !bd !i)) then begin
            bd := drop_nth !bd !i;
            changed := true
          end
          else incr i
        done
      | _ -> ()
    done
  done;
  !cur
