(* Concrete interpreter for TJ programs in SSA form.

   Two roles in this reproduction:
   - validating the evaluation workloads: each injected-bug program must
     actually fail at the expected statement (the SIR suites were *run* to
     expose failures; we do the same);
   - producing dynamic dependence traces ([Dyntrace]) for dynamic thin
     slicing.

   TJ has no catch, so any runtime failure (or user [throw]) aborts the run
   and is reported with the failing statement — which debugging tasks then
   use as the slicing seed. *)

open Slice_ir

type value =
  | Vint of int
  | Vbool of bool
  | Vnull
  | Vstr of string
  | Vobj of obj
  | Varr of arr

and obj = {
  o_id : int;
  o_class : Types.class_name;
  o_fields : (Types.field_name, value) Hashtbl.t;
  (* remaining input lines, for InputStream objects *)
  mutable o_stream : string list option;
}

and arr = { a_id : int; a_elem : Types.ty; a_cells : value array }

type failure_kind =
  | Null_pointer
  | Class_cast of Types.class_name * Types.ty    (* actual class, target *)
  | Index_out_of_bounds of int * int             (* index, length *)
  | Division_by_zero
  | Negative_array_size of int
  | String_index_out_of_bounds
  | Read_past_eof
  | Parse_int_error of string
  | User_throw of Types.class_name
  | Step_limit_exceeded
  | Stack_overflow_limit
  | Trace_limit_exceeded of int
  | Missing_return
  | Assertion of string                          (* internal errors *)

type failure = {
  f_kind : failure_kind;
  f_stmt : Instr.stmt_id;
  f_loc : Loc.t;
  f_method : Instr.method_qname;
}

let failure_kind_to_string = function
  | Null_pointer -> "NullPointerException"
  | Class_cast (c, t) ->
    Printf.sprintf "ClassCastException: %s cannot be cast to %s" c
      (Types.ty_to_string t)
  | Index_out_of_bounds (i, n) ->
    Printf.sprintf "ArrayIndexOutOfBoundsException: index %d, length %d" i n
  | Division_by_zero -> "ArithmeticException: / by zero"
  | Negative_array_size n -> Printf.sprintf "NegativeArraySizeException: %d" n
  | String_index_out_of_bounds -> "StringIndexOutOfBoundsException"
  | Read_past_eof -> "IOException: read past end of stream"
  | Parse_int_error s -> Printf.sprintf "NumberFormatException: %S" s
  | User_throw c -> Printf.sprintf "uncaught exception %s" c
  | Step_limit_exceeded -> "interpreter step limit exceeded"
  | Stack_overflow_limit -> "interpreter call-depth limit exceeded"
  | Trace_limit_exceeded n ->
    Printf.sprintf "dynamic trace event limit exceeded after %d events" n
  | Missing_return -> "method fell off the end without returning a value"
  | Assertion s -> Printf.sprintf "internal interpreter error: %s" s

let pp_failure ppf (f : failure) =
  Format.fprintf ppf "%a: %s (in %a, stmt %d)" Loc.pp f.f_loc
    (failure_kind_to_string f.f_kind)
    Instr.pp_method_qname f.f_method f.f_stmt

type config = {
  args : string list;                       (* main's String[] argument *)
  streams : (string * string list) list;    (* stream name -> lines *)
  max_steps : int;
  max_depth : int;
  trace : Dyntrace.t option;
}

let default_config =
  { args = []; streams = []; max_steps = 2_000_000; max_depth = 2_000; trace = None }

type outcome = {
  output : string list;                     (* lines printed, in order *)
  result : (unit, failure) Result.t;
  steps : int;
}

exception Fail of failure

(* Interpreter state. *)
type state = {
  p : Program.t;
  config : config;
  mutable next_obj : int;
  mutable steps : int;
  mutable rng : int;
  out : Buffer.t;
  mutable out_lines : string list;          (* reversed *)
  (* statics: (class, field) -> value *)
  statics : (Types.class_name * Types.field_name, value) Hashtbl.t;
  (* dynamic dependence bookkeeping (only used when tracing) *)
  heap_def : (int * Types.field_name, int) Hashtbl.t;   (* obj id, field -> event *)
  arr_def : (int * int, int) Hashtbl.t;                 (* arr id, index -> event *)
  static_def : (Types.class_name * Types.field_name, int) Hashtbl.t;
  arr_len_def : (int, int) Hashtbl.t;                   (* arr id -> event of new[] *)
}

(* A call frame: register file plus, when tracing, the defining event of
   each register. *)
type frame = {
  meth : Instr.meth;
  regs : value array;
  reg_ev : int array;                       (* -1 = no event *)
}

let runtime_class_name (v : value) : Types.class_name option =
  match v with
  | Vobj o -> Some o.o_class
  | Vstr _ -> Some Types.string_class
  | Vint _ | Vbool _ | Vnull | Varr _ -> None

let rec default_value (st : state) (ty : Types.ty) : value =
  ignore st;
  match ty with
  | Types.Tint -> Vint 0
  | Types.Tbool -> Vbool false
  | Types.Tclass _ | Types.Tarray _ | Types.Tnull -> Vnull
  | Types.Tvoid -> Vnull

and all_fields (st : state) (c : Types.class_name) : (Types.field_name * Types.ty) list
    =
  match Program.find_class st.p c with
  | None -> []
  | Some ci ->
    let inherited =
      match ci.Program.c_super with Some s -> all_fields st s | None -> []
    in
    inherited @ ci.Program.c_fields

let new_object (st : state) (c : Types.class_name) : obj =
  let o =
    { o_id = st.next_obj;
      o_class = c;
      o_fields = Hashtbl.create 8;
      o_stream = None }
  in
  st.next_obj <- st.next_obj + 1;
  List.iter
    (fun (f, ty) -> Hashtbl.replace o.o_fields f (default_value st ty))
    (all_fields st c);
  o

let new_array (st : state) (elem : Types.ty) (n : int) : arr =
  let a = { a_id = st.next_obj; a_elem = elem; a_cells = Array.make n (default_value st elem) } in
  st.next_obj <- st.next_obj + 1;
  a

let value_to_string (v : value) : string =
  match v with
  | Vint n -> string_of_int n
  | Vbool b -> string_of_bool b
  | Vnull -> "null"
  | Vstr s -> s
  | Vobj o -> Printf.sprintf "%s@%d" o.o_class o.o_id
  | Varr a -> Printf.sprintf "array@%d" a.a_id

(* Does the runtime value conform to the (reference) type? *)
let value_has_type (st : state) (v : value) (ty : Types.ty) : bool =
  match (v, ty) with
  | Vnull, _ -> true
  | Vstr _, Types.Tclass c ->
    Program.is_subclass st.p ~sub:Types.string_class ~sup:c
  | Vobj o, Types.Tclass c -> Program.is_subclass st.p ~sub:o.o_class ~sup:c
  | Varr _, Types.Tclass c -> String.equal c Types.object_class
  | Varr a, Types.Tarray elem -> (
    (* arrays are covariant; element type conformance is approximated by the
       allocation element type *)
    match (a.a_elem, elem) with
    | Types.Tclass sub, Types.Tclass sup -> Program.is_subclass st.p ~sub ~sup
    | x, y -> Types.equal_ty x y)
  | (Vint _ | Vbool _ | Vobj _ | Vstr _ | Varr _), _ -> false

let run (config : config) (p : Program.t) : outcome =
  let st =
    { p;
      config;
      next_obj = 1;
      steps = 0;
      rng = 123456789;
      out = Buffer.create 256;
      out_lines = [];
      statics = Hashtbl.create 16;
      heap_def = Hashtbl.create 256;
      arr_def = Hashtbl.create 256;
      static_def = Hashtbl.create 16;
      arr_len_def = Hashtbl.create 64 }
  in
  let fail ~stmt ~loc ~meth kind =
    raise (Fail { f_kind = kind; f_stmt = stmt; f_loc = loc; f_method = meth })
  in
  let tick ~stmt ~loc ~meth =
    st.steps <- st.steps + 1;
    if st.steps > config.max_steps then fail ~stmt ~loc ~meth Step_limit_exceeded
  in
  let tracing = config.trace <> None in
  let emit_event ~stmt ~val_deps ~base_deps : int =
    match config.trace with
    | None -> -1
    | Some tr -> Dyntrace.add tr ~stmt ~val_deps ~base_deps
  in
  let deps evs = List.filter (fun e -> e >= 0) evs in

  (* Execute method [m] with arguments [args] whose defining events are
     [arg_evs]; returns (value option, defining event of the return). *)
  let rec exec_method ~depth (m : Instr.meth) (args : value list)
      (arg_evs : int list) ~(call_stmt : Instr.stmt_id) ~(call_loc : Loc.t) :
      value option * int =
    let mq = m.Instr.m_qname in
    if depth > config.max_depth then
      fail ~stmt:call_stmt ~loc:call_loc ~meth:mq Stack_overflow_limit;
    match m.Instr.m_body with
    | Instr.Intrinsic intr ->
      exec_intrinsic intr m args arg_evs ~call_stmt ~call_loc
    | Instr.Abstract ->
      fail ~stmt:call_stmt ~loc:call_loc ~meth:mq
        (Assertion (Printf.sprintf "call to abstract method %s"
                      (Instr.method_qname_to_string mq)))
    | Instr.Body { blocks; entry } ->
      let nvars = Array.length m.Instr.m_vars in
      let frame =
        { meth = m;
          regs = Array.make nvars Vnull;
          reg_ev = Array.make nvars (-1) }
      in
      List.iteri
        (fun i v ->
          frame.regs.(v) <- List.nth args i;
          frame.reg_ev.(v) <- (try List.nth arg_evs i with _ -> -1))
        m.Instr.m_params;
      let get v = frame.regs.(v) in
      let gev v = frame.reg_ev.(v) in
      let set ?(ev = -1) v value =
        frame.regs.(v) <- value;
        frame.reg_ev.(v) <- ev
      in
      let as_int ~stmt ~loc v =
        match get v with
        | Vint n -> n
        | other ->
          fail ~stmt ~loc ~meth:mq
            (Assertion (Printf.sprintf "expected int, got %s" (value_to_string other)))
      in
      let as_bool ~stmt ~loc v =
        match get v with
        | Vbool b -> b
        | other ->
          fail ~stmt ~loc ~meth:mq
            (Assertion
               (Printf.sprintf "expected boolean, got %s" (value_to_string other)))
      in
      let as_obj ~stmt ~loc v =
        match get v with
        | Vobj o -> o
        | Vnull -> fail ~stmt ~loc ~meth:mq Null_pointer
        | other ->
          fail ~stmt ~loc ~meth:mq
            (Assertion (Printf.sprintf "expected object, got %s" (value_to_string other)))
      in
      let as_arr ~stmt ~loc v =
        match get v with
        | Varr a -> a
        | Vnull -> fail ~stmt ~loc ~meth:mq Null_pointer
        | other ->
          fail ~stmt ~loc ~meth:mq
            (Assertion (Printf.sprintf "expected array, got %s" (value_to_string other)))
      in
      let exec_instr (pred : Instr.label) (i : Instr.instr) : unit =
        let stmt = i.Instr.i_id and loc = i.Instr.i_loc in
        tick ~stmt ~loc ~meth:mq;
        match i.Instr.i_kind with
        | Instr.Const (x, c) ->
          let v =
            match c with
            | Types.Cint n -> Vint n
            | Types.Cbool b -> Vbool b
            | Types.Cstr s -> Vstr s
            | Types.Cnull -> Vnull
          in
          set x v ~ev:(emit_event ~stmt ~val_deps:[] ~base_deps:[])
        | Instr.Move (x, y) ->
          set x (get y) ~ev:(emit_event ~stmt ~val_deps:(deps [ gev y ]) ~base_deps:[])
        | Instr.Binop (x, op, y, z) ->
          let v =
            match op with
            | Types.Concat -> (
              (* as in Java, a null reference renders as "null" *)
              match (get y, get z) with
              | Vstr a, Vstr b -> Vstr (a ^ b)
              | Vstr a, Vnull -> Vstr (a ^ "null")
              | Vnull, Vstr b -> Vstr ("null" ^ b)
              | Vnull, Vnull -> Vstr "nullnull"
              | _ ->
                fail ~stmt ~loc ~meth:mq (Assertion "concat of non-strings"))
            | Types.Add -> Vint (as_int ~stmt ~loc y + as_int ~stmt ~loc z)
            | Types.Sub -> Vint (as_int ~stmt ~loc y - as_int ~stmt ~loc z)
            | Types.Mul -> Vint (as_int ~stmt ~loc y * as_int ~stmt ~loc z)
            | Types.Div ->
              let d = as_int ~stmt ~loc z in
              if d = 0 then fail ~stmt ~loc ~meth:mq Division_by_zero
              else Vint (as_int ~stmt ~loc y / d)
            | Types.Mod ->
              let d = as_int ~stmt ~loc z in
              if d = 0 then fail ~stmt ~loc ~meth:mq Division_by_zero
              else Vint (as_int ~stmt ~loc y mod d)
            | Types.Lt -> Vbool (as_int ~stmt ~loc y < as_int ~stmt ~loc z)
            | Types.Le -> Vbool (as_int ~stmt ~loc y <= as_int ~stmt ~loc z)
            | Types.Gt -> Vbool (as_int ~stmt ~loc y > as_int ~stmt ~loc z)
            | Types.Ge -> Vbool (as_int ~stmt ~loc y >= as_int ~stmt ~loc z)
            | Types.And -> Vbool (as_bool ~stmt ~loc y && as_bool ~stmt ~loc z)
            | Types.Or -> Vbool (as_bool ~stmt ~loc y || as_bool ~stmt ~loc z)
            | Types.Eq | Types.Ne ->
              let eq =
                match (get y, get z) with
                | Vint a, Vint b -> a = b
                | Vbool a, Vbool b -> a = b
                | Vnull, Vnull -> true
                | Vstr a, Vstr b -> a == b || String.equal a b
                | Vobj a, Vobj b -> a.o_id = b.o_id
                | Varr a, Varr b -> a.a_id = b.a_id
                | _, _ -> false
              in
              Vbool (if op = Types.Eq then eq else not eq)
          in
          set x v
            ~ev:(emit_event ~stmt ~val_deps:(deps [ gev y; gev z ]) ~base_deps:[])
        | Instr.Unop (x, op, y) ->
          let v =
            match op with
            | Types.Neg -> Vint (-as_int ~stmt ~loc y)
            | Types.Not -> Vbool (not (as_bool ~stmt ~loc y))
          in
          set x v ~ev:(emit_event ~stmt ~val_deps:(deps [ gev y ]) ~base_deps:[])
        | Instr.New (x, c) ->
          set x (Vobj (new_object st c)) ~ev:(emit_event ~stmt ~val_deps:[] ~base_deps:[])
        | Instr.New_array (x, elem, n) ->
          let len = as_int ~stmt ~loc n in
          if len < 0 then fail ~stmt ~loc ~meth:mq (Negative_array_size len);
          let a = new_array st elem len in
          let ev = emit_event ~stmt ~val_deps:(deps [ gev n ]) ~base_deps:[] in
          if tracing then Hashtbl.replace st.arr_len_def a.a_id ev;
          set x (Varr a) ~ev
        | Instr.Load (x, y, f) ->
          let o = as_obj ~stmt ~loc y in
          let v =
            match Hashtbl.find_opt o.o_fields f with
            | Some v -> v
            | None ->
              fail ~stmt ~loc ~meth:mq
                (Assertion (Printf.sprintf "object %s has no field %s" o.o_class f))
          in
          let heap_ev =
            if tracing then
              Option.value ~default:(-1) (Hashtbl.find_opt st.heap_def (o.o_id, f))
            else -1
          in
          set x v
            ~ev:
              (emit_event ~stmt ~val_deps:(deps [ heap_ev ])
                 ~base_deps:(deps [ gev y ]))
        | Instr.Store (x, f, y) ->
          let o = as_obj ~stmt ~loc x in
          Hashtbl.replace o.o_fields f (get y);
          let ev =
            emit_event ~stmt ~val_deps:(deps [ gev y ]) ~base_deps:(deps [ gev x ])
          in
          if tracing then Hashtbl.replace st.heap_def (o.o_id, f) ev
        | Instr.Array_load (x, y, idx) ->
          let a = as_arr ~stmt ~loc y in
          let i = as_int ~stmt ~loc idx in
          if i < 0 || i >= Array.length a.a_cells then
            fail ~stmt ~loc ~meth:mq (Index_out_of_bounds (i, Array.length a.a_cells));
          let heap_ev =
            if tracing then
              Option.value ~default:(-1) (Hashtbl.find_opt st.arr_def (a.a_id, i))
            else -1
          in
          set x a.a_cells.(i)
            ~ev:
              (emit_event ~stmt ~val_deps:(deps [ heap_ev ])
                 ~base_deps:(deps [ gev y; gev idx ]))
        | Instr.Array_store (y, idx, x) ->
          let a = as_arr ~stmt ~loc y in
          let i = as_int ~stmt ~loc idx in
          if i < 0 || i >= Array.length a.a_cells then
            fail ~stmt ~loc ~meth:mq (Index_out_of_bounds (i, Array.length a.a_cells));
          a.a_cells.(i) <- get x;
          let ev =
            emit_event ~stmt ~val_deps:(deps [ gev x ])
              ~base_deps:(deps [ gev y; gev idx ])
          in
          if tracing then Hashtbl.replace st.arr_def (a.a_id, i) ev
        | Instr.Array_length (x, y) ->
          let a = as_arr ~stmt ~loc y in
          let len_ev =
            if tracing then
              Option.value ~default:(-1) (Hashtbl.find_opt st.arr_len_def a.a_id)
            else -1
          in
          set x
            (Vint (Array.length a.a_cells))
            ~ev:
              (emit_event ~stmt ~val_deps:(deps [ len_ev ])
                 ~base_deps:(deps [ gev y ]))
        | Instr.Static_load (x, c, f) ->
          let v =
            match Hashtbl.find_opt st.statics (c, f) with
            | Some v -> v
            | None -> (
              match Program.lookup_static_field st.p c f with
              | Some (_, ty) -> default_value st ty
              | None ->
                fail ~stmt ~loc ~meth:mq
                  (Assertion (Printf.sprintf "no static field %s.%s" c f)))
          in
          let sev =
            if tracing then
              Option.value ~default:(-1) (Hashtbl.find_opt st.static_def (c, f))
            else -1
          in
          set x v ~ev:(emit_event ~stmt ~val_deps:(deps [ sev ]) ~base_deps:[])
        | Instr.Static_store (c, f, y) ->
          Hashtbl.replace st.statics (c, f) (get y);
          let ev = emit_event ~stmt ~val_deps:(deps [ gev y ]) ~base_deps:[] in
          if tracing then Hashtbl.replace st.static_def (c, f) ev
        | Instr.Cast (x, ty, y) ->
          let v = get y in
          if not (value_has_type st v ty) then begin
            let actual = Option.value ~default:"?" (runtime_class_name v) in
            fail ~stmt ~loc ~meth:mq (Class_cast (actual, ty))
          end;
          set x v ~ev:(emit_event ~stmt ~val_deps:(deps [ gev y ]) ~base_deps:[])
        | Instr.Instance_of (x, ty, y) ->
          let v = get y in
          let b = (match v with Vnull -> false | _ -> value_has_type st v ty) in
          set x (Vbool b) ~ev:(emit_event ~stmt ~val_deps:(deps [ gev y ]) ~base_deps:[])
        | Instr.Call { lhs; kind; args = arg_vars } ->
          let arg_vals = List.map get arg_vars in
          let arg_events = List.map gev arg_vars in
          let callee =
            match kind with
            | Instr.Static mq' | Instr.Special mq' -> Program.find_method_exn st.p mq'
            | Instr.Virtual name -> (
              match arg_vals with
              | recv :: _ -> (
                let cls =
                  match runtime_class_name recv with
                  | Some c -> c
                  | None -> (
                    match recv with
                    | Vnull -> fail ~stmt ~loc ~meth:mq Null_pointer
                    | _ ->
                      fail ~stmt ~loc ~meth:mq
                        (Assertion "virtual call on non-object"))
                in
                match Program.dispatch st.p cls name with
                | Some m' -> m'
                | None ->
                  fail ~stmt ~loc ~meth:mq
                    (Assertion (Printf.sprintf "no method %s on %s" name cls)))
              | [] -> fail ~stmt ~loc ~meth:mq (Assertion "virtual call without receiver"))
          in
          let ret, ret_ev =
            exec_method ~depth:(depth + 1) callee arg_vals arg_events
              ~call_stmt:stmt ~call_loc:loc
          in
          (match lhs with
          | Some x -> (
            match ret with
            | Some v ->
              (* the call statement itself joins the dynamic producer
                 chain, mirroring its place in the static thin slice *)
              let ev =
                emit_event ~stmt ~val_deps:(deps [ ret_ev ]) ~base_deps:[]
              in
              set x v ~ev
            | None ->
              fail ~stmt ~loc ~meth:mq
                (Assertion "non-void call returned no value"))
          | None -> ())
        | Instr.Phi (x, ins) -> (
          match List.assoc_opt pred ins with
          | Some y ->
            set x (get y)
              ~ev:(emit_event ~stmt ~val_deps:(deps [ gev y ]) ~base_deps:[])
          | None ->
            fail ~stmt ~loc ~meth:mq
              (Assertion (Printf.sprintf "phi has no operand for predecessor B%d" pred)))
        | Instr.Nop -> ()
      in
      (* Tail-recursive block execution; [pred] feeds phi selection. *)
      let rec run_block (label : Instr.label) (pred : Instr.label) :
          value option * int =
        let b = blocks.(label) in
        (* Phis evaluate simultaneously: read operands first. *)
        let phis, rest =
          List.partition
            (fun i -> match i.Instr.i_kind with Instr.Phi _ -> true | _ -> false)
            b.Instr.b_instrs
        in
        let phi_values =
          List.map
            (fun i ->
              match i.Instr.i_kind with
              | Instr.Phi (x, ins) -> (
                match List.assoc_opt pred ins with
                | Some y -> (i, x, get y, gev y)
                | None ->
                  fail ~stmt:i.Instr.i_id ~loc:i.Instr.i_loc ~meth:mq
                    (Assertion
                       (Printf.sprintf "phi has no operand for predecessor B%d" pred)))
              | _ -> assert false)
            phis
        in
        List.iter
          (fun (i, x, v, src_ev) ->
            tick ~stmt:i.Instr.i_id ~loc:i.Instr.i_loc ~meth:mq;
            set x v
              ~ev:
                (emit_event ~stmt:i.Instr.i_id ~val_deps:(deps [ src_ev ])
                   ~base_deps:[]))
          phi_values;
        List.iter (exec_instr pred) rest;
        let t = b.Instr.b_term in
        let stmt = t.Instr.t_id and loc = t.Instr.t_loc in
        tick ~stmt ~loc ~meth:mq;
        match t.Instr.t_kind with
        | Instr.Goto l -> run_block l label
        | Instr.If (v, l1, l2) ->
          ignore (emit_event ~stmt ~val_deps:(deps [ gev v ]) ~base_deps:[]);
          if as_bool ~stmt ~loc v then run_block l1 label else run_block l2 label
        | Instr.Return None -> (None, -1)
        | Instr.Return (Some v) ->
          let ev = emit_event ~stmt ~val_deps:(deps [ gev v ]) ~base_deps:[] in
          (Some (get v), ev)
        | Instr.Throw v ->
          let cls =
            match get v with
            | Vobj o -> o.o_class
            | Vnull -> fail ~stmt ~loc ~meth:mq Null_pointer
            | _ -> fail ~stmt ~loc ~meth:mq (Assertion "throw of non-object")
          in
          fail ~stmt ~loc ~meth:mq (User_throw cls)
      in
      let result = run_block entry (-1) in
      (match (result, m.Instr.m_ret_ty) with
      | (None, _), rt when not (Types.equal_ty rt Types.Tvoid) ->
        (* all-paths-return was checked syntactically; loops with breaks can
           still evade it *)
        fail ~stmt:call_stmt ~loc:call_loc ~meth:mq Missing_return
      | _ -> ());
      result

  and exec_intrinsic (intr : Instr.intrinsic) (m : Instr.meth)
      (args : value list) (arg_evs : int list) ~(call_stmt : Instr.stmt_id)
      ~(call_loc : Loc.t) : value option * int =
    let mq = m.Instr.m_qname in
    let fail_ kind =
      raise
        (Fail { f_kind = kind; f_stmt = call_stmt; f_loc = call_loc; f_method = mq })
    in
    let ev ?(base = []) () =
      emit_event ~stmt:call_stmt ~val_deps:(deps arg_evs) ~base_deps:(deps base)
    in
    let str_arg n =
      match List.nth_opt args n with
      | Some (Vstr s) -> s
      | Some Vnull -> fail_ Null_pointer
      | _ -> fail_ (Assertion "expected string argument")
    in
    let int_arg n =
      match List.nth_opt args n with
      | Some (Vint i) -> i
      | _ -> fail_ (Assertion "expected int argument")
    in
    match intr with
    | Instr.Str_index_of ->
      let hay = str_arg 0 and needle = str_arg 1 in
      let hl = String.length hay and nl = String.length needle in
      let rec find i =
        if i + nl > hl then -1
        else if String.sub hay i nl = needle then i
        else find (i + 1)
      in
      (Some (Vint (find 0)), ev ())
    | Instr.Str_substring ->
      let s = str_arg 0 and i = int_arg 1 and j = int_arg 2 in
      if i < 0 || j > String.length s || i > j then fail_ String_index_out_of_bounds
      else (Some (Vstr (String.sub s i (j - i))), ev ())
    | Instr.Str_length -> (Some (Vint (String.length (str_arg 0))), ev ())
    | Instr.Str_equals -> (
      match List.nth_opt args 1 with
      | Some (Vstr b) -> (Some (Vbool (String.equal (str_arg 0) b)), ev ())
      | Some _ -> (Some (Vbool false), ev ())
      | None -> fail_ (Assertion "equals: missing argument"))
    | Instr.Str_char_at ->
      let s = str_arg 0 and i = int_arg 1 in
      if i < 0 || i >= String.length s then fail_ String_index_out_of_bounds
      else (Some (Vstr (String.make 1 s.[i])), ev ())
    | Instr.Str_char_code_at ->
      let s = str_arg 0 and i = int_arg 1 in
      if i < 0 || i >= String.length s then fail_ String_index_out_of_bounds
      else (Some (Vint (Char.code s.[i])), ev ())
    | Instr.Str_starts_with ->
      let s = str_arg 0 and pre = str_arg 1 in
      let ok =
        String.length pre <= String.length s
        && String.sub s 0 (String.length pre) = pre
      in
      (Some (Vbool ok), ev ())
    | Instr.Stream_init -> (
      match args with
      | [ Vobj o; Vstr name ] ->
        let lines =
          Option.value ~default:[] (List.assoc_opt name st.config.streams)
        in
        o.o_stream <- Some lines;
        ignore (ev ());
        (None, -1)
      | [ Vnull; _ ] -> fail_ Null_pointer
      | _ -> fail_ (Assertion "InputStream constructor expects a string"))
    | Instr.Stream_read_line -> (
      match args with
      | [ Vobj o ] -> (
        match o.o_stream with
        | Some (line :: rest) ->
          o.o_stream <- Some rest;
          (Some (Vstr line), ev ())
        | Some [] -> fail_ Read_past_eof
        | None -> fail_ (Assertion "readLine on uninitialized stream"))
      | [ Vnull ] -> fail_ Null_pointer
      | _ -> fail_ (Assertion "readLine: bad receiver"))
    | Instr.Stream_eof -> (
      match args with
      | [ Vobj o ] -> (
        match o.o_stream with
        | Some [] -> (Some (Vbool true), ev ())
        | Some _ -> (Some (Vbool false), ev ())
        | None -> fail_ (Assertion "eof on uninitialized stream"))
      | [ Vnull ] -> fail_ Null_pointer
      | _ -> fail_ (Assertion "eof: bad receiver"))
    | Instr.Top_print -> (
      match args with
      | [ v ] ->
        let line = value_to_string v in
        Buffer.add_string st.out line;
        Buffer.add_char st.out '\n';
        st.out_lines <- line :: st.out_lines;
        ignore (ev ());
        (None, -1)
      | _ -> fail_ (Assertion "print expects one argument"))
    | Instr.Top_parse_int -> (
      let s = str_arg 0 in
      match int_of_string_opt (String.trim s) with
      | Some n -> (Some (Vint n), ev ())
      | None -> fail_ (Parse_int_error s))
    | Instr.Top_itoa -> (Some (Vstr (string_of_int (int_arg 0))), ev ())
    | Instr.Top_random ->
      let n = int_arg 0 in
      if n <= 0 then fail_ (Assertion "random(n) requires n > 0");
      st.rng <- (st.rng * 1103515245 + 12345) land 0x3FFFFFFF;
      (Some (Vint (st.rng mod n)), ev ())
  in

  let entry = Program.entry_method p in
  let result =
    match Program.find_method p entry with
    | None ->
      Error
        { f_kind = Assertion "program has no main function";
          f_stmt = -1;
          f_loc = Loc.none;
          f_method = entry }
    | Some main -> (
      (* main takes either no parameters or one String[] parameter *)
      let args_value =
        let a = new_array st (Types.Tclass Types.string_class) (List.length config.args) in
        List.iteri (fun i s -> a.a_cells.(i) <- Vstr s) config.args;
        Varr a
      in
      let actuals =
        match main.Instr.m_params with
        | [] -> []
        | [ _ ] -> [ args_value ]
        | _ -> []
      in
      let arg_evs = List.map (fun _ -> -1) actuals in
      if List.length main.Instr.m_params > 1 then
        Error
          { f_kind = Assertion "main must take zero or one parameter";
            f_stmt = -1;
            f_loc = main.Instr.m_loc;
            f_method = entry }
      else
        try
          ignore
            (exec_method ~depth:0 main actuals arg_evs ~call_stmt:(-1)
               ~call_loc:Loc.none);
          Ok ()
        with
        | Fail f -> Error f
        | Dyntrace.Trace_overflow n ->
          (* The trace filled up mid-run.  Surface it like the other
             bounded-resource failures (step limit, call depth) instead
             of letting the raw exception escape: callers — the CLI
             included — must never see [Trace_overflow].  There is no
             single failing statement: the limit is a property of the
             whole run, so the stmt is -1 like the other pre-execution
             failures. *)
          Error
            { f_kind = Trace_limit_exceeded n;
              f_stmt = -1;
              f_loc = Loc.none;
              f_method = entry })
  in
  { output = List.rev st.out_lines; result; steps = st.steps }
