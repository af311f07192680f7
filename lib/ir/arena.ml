(* Flat int-indexed arena view of the record IR.  See arena.mli for the
   design contract; the representation notes here:

   - every column is a growable array, of [int]s but for the two record
     pointer columns; uses, call arguments, terminator uses and governors
     are CSR spans over the row order, iterated without allocating;
   - one lowering loop, [lower_method], appends a method's rows and
     points the method's own lo/hi spans at them: [build] runs it for
     every bodied method, [relower] for the methods an edit replaced.  A
     re-lowered method's old rows die (ids unindexed, records dropped);
     once dead rows outnumber live ones, [relower] lowers the whole
     program again into emptied columns;
   - strings are interned once into [syms];
   - rows follow the block array, so [Instr.iter_instrs]/[iter_terms]
     order, and uses [Instr.classified_uses] order: the order the SDG's
     passes emit edges in.  Methods are lowered whole, one after another,
     so a block's instruction rows run from its terminator row's [t_ilo]
     to the next terminator row's (the column's end for the last). *)

type op =
  | Op_other
  | Op_store
  | Op_load
  | Op_array_store
  | Op_array_load
  | Op_new_array
  | Op_array_length
  | Op_static_store
  | Op_static_load
  | Op_call
  | Op_new

let op_tag = function
  | Op_other -> 0
  | Op_store -> 1
  | Op_load -> 2
  | Op_array_store -> 3
  | Op_array_load -> 4
  | Op_new_array -> 5
  | Op_array_length -> 6
  | Op_static_store -> 7
  | Op_static_load -> 8
  | Op_call -> 9
  | Op_new -> 10

let op_of_tag = function
  | 0 -> Op_other
  | 1 -> Op_store
  | 2 -> Op_load
  | 3 -> Op_array_store
  | 4 -> Op_array_load
  | 5 -> Op_new_array
  | 6 -> Op_array_length
  | 7 -> Op_static_store
  | 8 -> Op_static_load
  | 9 -> Op_call
  | 10 -> Op_new
  | t -> invalid_arg (Printf.sprintf "Arena.op_of_tag: %d" t)

(* Growable column.  A whole-program lowering sizes the per-row columns
   up front, doubles the others when full and trims them to their length;
   from then on a column grows by an eighth, so the re-lowers of an edit
   add slack in proportion to the column, not a second copy of it, and
   still copy each row a bounded number of times.  [fill] pads the
   slots [set] skips. *)
module Col = struct
  type 'a t = {
    mutable a : 'a array;
    mutable len : int;
    mutable trimmed : bool;
    fill : 'a;
  }

  let create fill = { a = [||]; len = 0; trimmed = false; fill }

  (* room for slot [i] *)
  let reserve c i =
    if i >= Array.length c.a then begin
      let extra = if c.trimmed then c.len / 8 else c.len in
      let bigger = Array.make (max (i + 1) (c.len + extra + 16)) c.fill in
      Array.blit c.a 0 bigger 0 c.len;
      c.a <- bigger
    end

  let push c v =
    reserve c c.len;
    Array.unsafe_set c.a c.len v;
    c.len <- c.len + 1

  (* write slot [i], the column grown to it if need be *)
  let set c i v =
    reserve c i;
    if i >= c.len then begin
      Array.fill c.a c.len (i + 1 - c.len) c.fill;
      c.len <- i + 1
    end;
    c.a.(i) <- v

  (* annotated, so the read is an unboxed int array access *)
  let get (c : int t) i = c.a.(i)

  let clear c =
    c.a <- [||];
    c.len <- 0;
    c.trimmed <- false

  let trim c =
    if Array.length c.a > c.len then c.a <- Array.sub c.a 0 c.len;
    c.trimmed <- true

  (* 8 bytes per slot, reserved or not, plus the array header *)
  let bytes c = 8 * (Array.length c.a + 1)
end

type t = {
  sym_ids : (string, int) Hashtbl.t;
  mutable syms : string array;   (* interned id -> string *)
  m_index : (Instr.method_qname, int) Hashtbl.t;  (* live methods only *)
  mutable dead_rows : int;       (* instr + term rows no live span covers *)
  (* methods: one entry per method id; spans are [lo, hi) row ranges *)
  m_nvars : int Col.t;
  m_ilo : int Col.t;
  m_ihi : int Col.t;
  m_tlo : int Col.t;
  m_thi : int Col.t;
  m_plo : int Col.t;
  m_phi : int Col.t;
  m_param_var : int Col.t;
  (* instructions *)
  i_stmt : int Col.t;
  i_def : int Col.t;             (* -1 = no def *)
  i_op : int Col.t;              (* op_tag *)
  i_base : int Col.t;            (* pointer var of heap ops, receiver of
                                    a constructor call, else -1 *)
  i_sym : int Col.t;             (* interned id, else -1 *)
  i_sym2 : int Col.t;
  u_off : int Col.t;             (* instr rows + 1 *)
  u_var : int Col.t;
  u_cls : int Col.t;             (* 0 value, 1 base, 2 index *)
  c_off : int Col.t;             (* instr rows + 1: call args *)
  c_arg : int Col.t;
  i_rec : Instr.instr Col.t;     (* the row's record; [no_instr] once dead *)
  (* terminators, one per block in block order *)
  t_stmt : int Col.t;
  t_ret : int Col.t;             (* 1 = Return (Some _) *)
  t_ilo : int Col.t;             (* first instruction row of the block *)
  tu_off : int Col.t;            (* term rows + 1 *)
  tu_var : int Col.t;
  g_off : int Col.t;             (* term rows + 1: governors *)
  g_row : int Col.t;             (* terminator rows of governing blocks *)
  t_rec : Instr.term Col.t;      (* the row's record; [no_term] once dead *)
  (* statement id -> [ix lsl 1] for instruction row [ix], [(tx lsl 1)
     lor 1] for terminator row [tx], -1 for an id no live row has *)
  s_row : int Col.t;
}

(* What a dead row's record pointer holds instead of its record. *)
let no_instr = { Instr.i_id = -1; i_kind = Instr.Nop; i_loc = Loc.none }
let no_term = { Instr.t_id = -1; t_kind = Instr.Return None; t_loc = Loc.none }

let use_cls_tag = function
  | Instr.Use_value -> 0
  | Instr.Use_base -> 1
  | Instr.Use_index -> 2

let method_cols (ar : t) =
  [ ar.m_nvars; ar.m_ilo; ar.m_ihi; ar.m_tlo; ar.m_thi; ar.m_plo; ar.m_phi;
    ar.m_param_var ]

let row_cols (ar : t) =
  [ ar.i_stmt; ar.i_def; ar.i_op; ar.i_base; ar.i_sym; ar.i_sym2; ar.u_off;
    ar.u_var; ar.u_cls; ar.c_off; ar.c_arg; ar.t_stmt; ar.t_ret; ar.t_ilo;
    ar.tu_off; ar.tu_var; ar.g_off; ar.g_row; ar.s_row ]

let intern (ar : t) (s : string) : int =
  match Hashtbl.find_opt ar.sym_ids s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length ar.sym_ids in
    if i = Array.length ar.syms then begin
      let bigger = Array.make ((2 * i) + 16) "" in
      Array.blit ar.syms 0 bigger 0 i;
      ar.syms <- bigger
    end;
    ar.syms.(i) <- s;
    Hashtbl.replace ar.sym_ids s i;
    i

(* Retire method [m]'s rows: their ids leave the statement index and
   their record pointers are dropped. *)
let retire_rows (ar : t) m =
  for ix = Col.get ar.m_ilo m to Col.get ar.m_ihi m - 1 do
    Col.set ar.s_row (Col.get ar.i_stmt ix) (-1);
    Col.set ar.i_rec ix no_instr
  done;
  for tx = Col.get ar.m_tlo m to Col.get ar.m_thi m - 1 do
    Col.set ar.s_row (Col.get ar.t_stmt tx) (-1);
    Col.set ar.t_rec tx no_term
  done;
  ar.dead_rows <-
    ar.dead_rows + Col.get ar.m_ihi m - Col.get ar.m_ilo m
    + Col.get ar.m_thi m - Col.get ar.m_tlo m

let lower_instr (ar : t) (i : Instr.instr) : unit =
  Col.set ar.s_row i.Instr.i_id (ar.i_stmt.Col.len lsl 1);
  Col.push ar.i_stmt i.Instr.i_id;
  Col.push ar.i_rec i;
  Col.push ar.i_def (match Instr.def_of_instr i with Some v -> v | None -> -1);
  let op, base, s1, s2 =
    match i.Instr.i_kind with
    | Instr.Store (x, f, _) -> (Op_store, x, intern ar f, -1)
    | Instr.Load (_, y, f) -> (Op_load, y, intern ar f, -1)
    | Instr.Array_store (a, _, _) -> (Op_array_store, a, -1, -1)
    | Instr.Array_load (_, a, _) -> (Op_array_load, a, -1, -1)
    | Instr.New_array (x, _, _) -> (Op_new_array, x, -1, -1)
    | Instr.Array_length (_, a) -> (Op_array_length, a, -1, -1)
    | Instr.Static_store (c, f, _) ->
      (Op_static_store, -1, intern ar c, intern ar f)
    | Instr.Static_load (_, c, f) ->
      (Op_static_load, -1, intern ar c, intern ar f)
    | Instr.Call { kind = Instr.Special _; args = recv :: _; _ } ->
      (Op_call, recv, -1, -1)
    | Instr.Call _ -> (Op_call, -1, -1, -1)
    | Instr.New _ -> (Op_new, -1, -1, -1)
    | Instr.Const _ | Instr.Move _ | Instr.Binop _ | Instr.Unop _
    | Instr.Cast _ | Instr.Instance_of _ | Instr.Phi _ | Instr.Nop ->
      (Op_other, -1, -1, -1)
  in
  Col.push ar.i_op (op_tag op);
  Col.push ar.i_base base;
  Col.push ar.i_sym s1;
  Col.push ar.i_sym2 s2;
  List.iter
    (fun (v, cls) ->
      Col.push ar.u_var v;
      Col.push ar.u_cls (use_cls_tag cls))
    (Instr.classified_uses i);
  Col.push ar.u_off ar.u_var.Col.len;
  (match i.Instr.i_kind with
  | Instr.Call { args; _ } -> List.iter (Col.push ar.c_arg) args
  | _ -> ());
  Col.push ar.c_off ar.c_arg.Col.len

(* [ilo] is the first instruction row of the terminator's block. *)
let lower_term (ar : t) ~(ilo : int) (t : Instr.term) : unit =
  Col.set ar.s_row t.Instr.t_id ((ar.t_stmt.Col.len lsl 1) lor 1);
  Col.push ar.t_stmt t.Instr.t_id;
  Col.push ar.t_rec t;
  Col.push ar.t_ilo ilo;
  Col.push ar.t_ret
    (match t.Instr.t_kind with
    | Instr.Return (Some _) -> 1
    | Instr.Return None | Instr.Goto _ | Instr.If _ | Instr.Throw _ -> 0);
  List.iter (Col.push ar.tu_var) (Instr.uses_of_term t);
  Col.push ar.tu_off ar.tu_var.Col.len

(* Each block's governors: the blocks whose terminators decide whether
   it runs, its post-dominance frontier less the virtual exit.  None
   means the method's entry governs it. *)
let governor_blocks (m : Instr.meth) : int list array =
  let cfg = Cfg.build m in
  let pdf =
    Dominance.dominance_frontiers
      (Dominance.compute (Dominance.backward_graph cfg))
  in
  let nblocks = Cfg.num_blocks cfg in
  Array.init nblocks (fun bl -> List.filter (fun b -> b < nblocks) pdf.(bl))

(* The one lowering loop: append [m]'s rows and point its spans at them.
   A method the arena already holds keeps its id; its old rows die. *)
let lower_method (ar : t) (m : Instr.meth) : unit =
  let mq = m.Instr.m_qname in
  let id =
    match Hashtbl.find_opt ar.m_index mq with
    | Some id ->
      retire_rows ar id;
      id
    | None ->
      let id = ar.m_nvars.Col.len in
      Hashtbl.replace ar.m_index mq id;
      id
  in
  let plo = ar.m_param_var.Col.len in
  List.iter (Col.push ar.m_param_var) m.Instr.m_params;
  let ilo = ar.i_stmt.Col.len and tlo = ar.t_stmt.Col.len in
  Array.iter
    (fun b ->
      let ilo = ar.i_stmt.Col.len in
      List.iter (lower_instr ar) b.Instr.b_instrs;
      lower_term ar ~ilo b.Instr.b_term)
    (Instr.blocks_exn m);
  Array.iter
    (fun gbs ->
      List.iter (fun b -> Col.push ar.g_row (tlo + b)) gbs;
      Col.push ar.g_off ar.g_row.Col.len)
    (governor_blocks m);
  Col.set ar.m_nvars id (Array.length m.Instr.m_vars);
  Col.set ar.m_ilo id ilo;
  Col.set ar.m_ihi id ar.i_stmt.Col.len;
  Col.set ar.m_tlo id tlo;
  Col.set ar.m_thi id ar.t_stmt.Col.len;
  Col.set ar.m_plo id plo;
  Col.set ar.m_phi id ar.m_param_var.Col.len

(* Lower every bodied method of [p] into emptied columns (the CSR offset
   columns restart at their leading 0, the statement index at the
   program's id count; interned strings are kept), then trim the
   columns to their length. *)
let lower_all (ar : t) (p : Program.t) : unit =
  List.iter Col.clear (method_cols ar @ row_cols ar);
  Col.clear ar.i_rec;
  Col.clear ar.t_rec;
  (* the per-row columns sized once for the program's rows, not doubled
     up to them and trimmed *)
  let ni = ref 0 and nt = ref 0 in
  Program.iter_methods p (fun m ->
      if Instr.has_body m then
        Array.iter (fun b -> ni := !ni + List.length b.Instr.b_instrs; incr nt)
          (Instr.blocks_exn m));
  let size n = List.iter (fun c -> Col.reserve c (n - 1)) in
  size !ni [ ar.i_stmt; ar.i_def; ar.i_op; ar.i_base; ar.i_sym; ar.i_sym2 ];
  size (!ni + 1) [ ar.u_off; ar.c_off ];
  size !nt [ ar.t_stmt; ar.t_ret; ar.t_ilo ];
  size (!nt + 1) [ ar.tu_off; ar.g_off ];
  Col.reserve ar.i_rec (!ni - 1);
  Col.reserve ar.t_rec (!nt - 1);
  List.iter (fun c -> Col.push c 0) [ ar.u_off; ar.c_off; ar.tu_off; ar.g_off ];
  if Program.stmt_count p > 0 then Col.set ar.s_row (Program.stmt_count p - 1) (-1);
  Hashtbl.reset ar.m_index;
  ar.dead_rows <- 0;
  Program.iter_methods p (fun m -> if Instr.has_body m then lower_method ar m);
  List.iter Col.trim (method_cols ar @ row_cols ar);
  Col.trim ar.i_rec;
  Col.trim ar.t_rec

let build (p : Program.t) : t =
  let col () = Col.create 0 in
  let ar =
    { sym_ids = Hashtbl.create 256; syms = [||]; m_index = Hashtbl.create 64;
      dead_rows = 0; m_nvars = col (); m_ilo = col (); m_ihi = col ();
      m_tlo = col (); m_thi = col (); m_plo = col (); m_phi = col ();
      m_param_var = col (); i_stmt = col (); i_def = col (); i_op = col ();
      i_base = col (); i_sym = col (); i_sym2 = col (); u_off = col ();
      u_var = col (); u_cls = col (); c_off = col (); c_arg = col ();
      i_rec = Col.create no_instr; t_stmt = col (); t_ret = col ();
      t_ilo = col (); tu_off = col (); tu_var = col (); g_off = col ();
      g_row = col (); t_rec = Col.create no_term; s_row = Col.create (-1) }
  in
  lower_all ar p;
  ar

let relower (ar : t) (p : Program.t) (mqs : Instr.method_qname list) : unit =
  List.iter (fun mq -> lower_method ar (Program.find_method_exn p mq)) mqs;
  if 2 * ar.dead_rows > ar.i_stmt.Col.len + ar.t_stmt.Col.len then
    lower_all ar p

(* --- accessors --- *)

let method_id (t : t) mq = Hashtbl.find_opt t.m_index mq
let num_vars (t : t) m = Col.get t.m_nvars m
let num_params (t : t) m = Col.get t.m_phi m - Col.get t.m_plo m
let param_var (t : t) m i = Col.get t.m_param_var (Col.get t.m_plo m + i)

let num_stmts (t : t) m =
  Col.get t.m_ihi m - Col.get t.m_ilo m + Col.get t.m_thi m - Col.get t.m_tlo m

let instr_span (t : t) m = (Col.get t.m_ilo m, Col.get t.m_ihi m)
let instr_stmt (t : t) ix = Col.get t.i_stmt ix
let instr_def (t : t) ix = Col.get t.i_def ix
let instr_op (t : t) ix = op_of_tag (Col.get t.i_op ix)
let instr_base (t : t) ix = Col.get t.i_base ix
let instr_sym (t : t) ix = t.syms.(Col.get t.i_sym ix)
let instr_sym2 (t : t) ix = t.syms.(Col.get t.i_sym2 ix)

let uses_iter (t : t) ix (f : int -> int -> unit) : unit =
  let var = t.u_var.Col.a and cls = t.u_cls.Col.a in
  for u = Col.get t.u_off ix to Col.get t.u_off (ix + 1) - 1 do
    f (Array.unsafe_get var u) (Array.unsafe_get cls u)
  done

let args_iter (t : t) ix (f : int -> unit) : unit =
  let arg = t.c_arg.Col.a in
  for c = Col.get t.c_off ix to Col.get t.c_off (ix + 1) - 1 do
    f (Array.unsafe_get arg c)
  done

let term_span (t : t) m = (Col.get t.m_tlo m, Col.get t.m_thi m)
let term_stmt (t : t) tx = Col.get t.t_stmt tx
let term_is_value_return (t : t) tx = Col.get t.t_ret tx = 1

let term_uses_iter (t : t) tx (f : int -> unit) : unit =
  let var = t.tu_var.Col.a in
  for u = Col.get t.tu_off tx to Col.get t.tu_off (tx + 1) - 1 do
    f (Array.unsafe_get var u)
  done

let block_instrs (t : t) tx =
  ( Col.get t.t_ilo tx,
    if tx + 1 < t.t_stmt.Col.len then Col.get t.t_ilo (tx + 1)
    else t.i_stmt.Col.len )

let governors_iter (t : t) tx (f : int -> unit) : unit =
  let row = t.g_row.Col.a in
  for g = Col.get t.g_off tx to Col.get t.g_off (tx + 1) - 1 do
    f (Array.unsafe_get row g)
  done

(* The packed row of statement [s], -1 for none. *)
let stmt_row (t : t) (s : Instr.stmt_id) : int =
  if s >= 0 && s < t.s_row.Col.len then Col.get t.s_row s else -1

let stmt_site (t : t) (s : Instr.stmt_id) : Program.site option =
  let r = stmt_row t s in
  if r < 0 then None
  else if r land 1 = 0 then Some (Program.Site_instr t.i_rec.Col.a.(r lsr 1))
  else Some (Program.Site_term t.t_rec.Col.a.(r lsr 1))

(* Arithmetic byte accounting: 8 bytes per int or pointer slot,
   reserved or not, plus one header word per array; strings at
   header + length rounded up to words.  Deterministic by construction —
   the same program and the same sequence of re-lowers give the same
   figure in every process, which is what lets stats carry it across
   incremental updates. *)
let bytes (t : t) : int =
  let sym_bytes =
    Hashtbl.fold
      (fun s _ acc -> acc + 8 + (8 * ((String.length s + 8) / 8)))
      t.sym_ids
      (8 * (Array.length t.syms + 1))
  in
  List.fold_left (fun acc c -> acc + Col.bytes c)
    (sym_bytes + Col.bytes t.i_rec + Col.bytes t.t_rec)
    (method_cols t @ row_cols t)

(* --- view equivalence --- *)

let check_views (p : Program.t) (t : t) : (unit, string) result =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let result = ref (Ok ()) in
  let check b fmt =
    Printf.ksprintf (fun s -> if not b && !result = Ok () then result := Error s) fmt
  in
  let mcount = ref 0 and live_rows = ref 0 in
  Program.iter_methods p (fun m ->
      if Instr.has_body m && !result = Ok () then begin
        let mq = m.Instr.m_qname in
        match method_id t mq with
        | None ->
          result := fail "method %s missing" (Instr.method_qname_to_string mq)
        | Some am ->
          incr mcount;
          check
            (num_vars t am = Array.length m.Instr.m_vars)
            "%s: nvars" (Instr.method_qname_to_string mq);
          check
            (num_params t am = List.length m.Instr.m_params)
            "%s: nparams" (Instr.method_qname_to_string mq);
          List.iteri
            (fun i v -> check (param_var t am i = v) "%s: param %d"
                (Instr.method_qname_to_string mq) i)
            m.Instr.m_params;
          let lo, hi = instr_span t am in
          let ix = ref lo in
          Instr.iter_instrs m (fun _ i ->
              let k = !ix in
              incr ix;
              if k >= hi then check false "%s: instr span overflow"
                  (Instr.method_qname_to_string mq)
              else begin
                check (instr_stmt t k = i.Instr.i_id) "stmt %d: id" i.Instr.i_id;
                check (stmt_row t i.Instr.i_id = k lsl 1 && t.i_rec.Col.a.(k) == i)
                  "stmt %d: index" i.Instr.i_id;
                check
                  (instr_def t k
                   = (match Instr.def_of_instr i with Some v -> v | None -> -1))
                  "stmt %d: def" i.Instr.i_id;
                (* classified uses, in order *)
                let expected =
                  List.map (fun (v, c) -> (v, use_cls_tag c))
                    (Instr.classified_uses i)
                in
                let got = ref [] in
                uses_iter t k (fun v c -> got := (v, c) :: !got);
                check (List.rev !got = expected) "stmt %d: uses" i.Instr.i_id;
                (* heap descriptor *)
                (match i.Instr.i_kind with
                | Instr.Store (x, f, _) ->
                  check
                    (instr_op t k = Op_store && instr_base t k = x
                     && instr_sym t k = f)
                    "stmt %d: store desc" i.Instr.i_id
                | Instr.Load (_, y, f) ->
                  check
                    (instr_op t k = Op_load && instr_base t k = y
                     && instr_sym t k = f)
                    "stmt %d: load desc" i.Instr.i_id
                | Instr.Array_store (a, _, _) ->
                  check (instr_op t k = Op_array_store && instr_base t k = a)
                    "stmt %d: astore desc" i.Instr.i_id
                | Instr.Array_load (_, a, _) ->
                  check (instr_op t k = Op_array_load && instr_base t k = a)
                    "stmt %d: aload desc" i.Instr.i_id
                | Instr.New_array (x, _, _) ->
                  check (instr_op t k = Op_new_array && instr_base t k = x)
                    "stmt %d: newarr desc" i.Instr.i_id
                | Instr.Array_length (_, a) ->
                  check (instr_op t k = Op_array_length && instr_base t k = a)
                    "stmt %d: arraylen desc" i.Instr.i_id
                | Instr.Static_store (c, f, _) ->
                  check
                    (instr_op t k = Op_static_store && instr_sym t k = c
                     && instr_sym2 t k = f)
                    "stmt %d: sstore desc" i.Instr.i_id
                | Instr.Static_load (_, c, f) ->
                  check
                    (instr_op t k = Op_static_load && instr_sym t k = c
                     && instr_sym2 t k = f)
                    "stmt %d: sload desc" i.Instr.i_id
                | Instr.Call { args; kind; _ } ->
                  let got = ref [] in
                  args_iter t k (fun a -> got := a :: !got);
                  check
                    (instr_op t k = Op_call && List.rev !got = args)
                    "stmt %d: call args" i.Instr.i_id;
                  check
                    (instr_base t k
                     = (match (kind, args) with
                       | Instr.Special _, recv :: _ -> recv
                       | _ -> -1))
                    "stmt %d: constructor receiver" i.Instr.i_id
                | Instr.New _ ->
                  check (instr_op t k = Op_new) "stmt %d: new" i.Instr.i_id
                | Instr.Const _ | Instr.Move _ | Instr.Binop _ | Instr.Unop _
                | Instr.Cast _ | Instr.Instance_of _ | Instr.Phi _ | Instr.Nop ->
                  check (instr_op t k = Op_other) "stmt %d: op"
                    i.Instr.i_id)
              end);
          check (!ix = hi) "%s: instr span short"
            (Instr.method_qname_to_string mq);
          let tlo, thi = term_span t am in
          let tx = ref tlo in
          Instr.iter_terms m (fun _ tm ->
              let k = !tx in
              incr tx;
              if k >= thi then check false "%s: term span overflow"
                  (Instr.method_qname_to_string mq)
              else begin
                check (term_stmt t k = tm.Instr.t_id) "term %d: id"
                  tm.Instr.t_id;
                check
                  (stmt_row t tm.Instr.t_id = (k lsl 1) lor 1
                   && t.t_rec.Col.a.(k) == tm)
                  "term %d: index" tm.Instr.t_id;
                check
                  (term_is_value_return t k
                   = (match tm.Instr.t_kind with
                     | Instr.Return (Some _) -> true
                     | _ -> false))
                  "term %d: ret flag" tm.Instr.t_id;
                let got = ref [] in
                term_uses_iter t k (fun v -> got := v :: !got);
                check (List.rev !got = Instr.uses_of_term tm) "term %d: uses"
                  tm.Instr.t_id
              end);
          check (!tx = thi) "%s: term span short"
            (Instr.method_qname_to_string mq);
          live_rows := !live_rows + (hi - lo) + (thi - tlo);
          (* block structure and governors, against a fresh
             post-dominance computation *)
          if !result = Ok () then begin
            let gb = governor_blocks m and ix = ref lo in
            Array.iteri
              (fun bl b ->
                let start = !ix in
                ix := !ix + List.length b.Instr.b_instrs;
                check
                  (block_instrs t (tlo + bl) = (start, !ix))
                  "term %d: block rows" b.Instr.b_term.Instr.t_id;
                let got = ref [] in
                governors_iter t (tlo + bl) (fun g -> got := g :: !got);
                check
                  (List.rev !got = List.map (fun g -> tlo + g) gb.(bl))
                  "term %d: governors" b.Instr.b_term.Instr.t_id)
              (Instr.blocks_exn m)
          end
      end);
  (* the index holds exactly the live rows' ids *)
  let indexed = ref 0 in
  for s = 0 to t.s_row.Col.len - 1 do
    if stmt_row t s >= 0 then incr indexed
  done;
  check (!indexed = !live_rows) "statement index: %d ids for %d live rows"
    !indexed !live_rows;
  (* every live span was checked above; a live span for a method the
     program no longer has would go unvisited *)
  (match !result with
  | Ok () when !mcount <> Hashtbl.length t.m_index ->
    fail "method count: %d record vs %d arena" !mcount
      (Hashtbl.length t.m_index)
  | r -> r)
