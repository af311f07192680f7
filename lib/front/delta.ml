(* Method-granular source deltas for incremental re-analysis.

   Two versions of a program are compared STRUCTURALLY: a brace- and
   string-aware scanner segments each source file into top-level
   constructs (class declarations, free functions) and class members,
   and a "skeleton" — the source with every method-body interior
   blanked, line counts preserved — decides the tier:

   - byte-equal sources                  -> [Same]
   - equal skeletons                     -> [Bodies]: every textual
     difference is inside some method body; only those methods need
     re-lowering
   - anything else (signature change, added/removed method or class,
     field/initializer edit, layout shift)   -> [Structural]

   Most saves change a few bytes inside one body.  Those are classified
   from the changed window alone ([window_delta]): when the window lies
   inside one method's interior and holds no byte the scanner reacts
   to, the scan of the new file would find the old segmentation with
   shifted offsets, so that is what it is given, and no byte of the
   file is scanned.  Everything else takes the full scan.

   A changed method is re-parsed through a synthetic "mini unit": the
   method's own lines cut from the new file (and, for class members, a
   one-line [class C {] wrapper before them and a [}] after), lexed from
   the method's first line so every token keeps its line and column and
   the re-lowered IR carries the same source locations a full rebuild
   would produce.  Re-parsing one method instead of the whole file is
   what keeps a 1-method update an order of magnitude under a cold
   load. *)

open Slice_ir

(* ------------------------------------------------------------------ *)
(* Brace scanning                                                      *)
(* ------------------------------------------------------------------ *)

type brace_ev = { ev_line : int; ev_off : int; ev_open : bool }

let c_bytes_scanned = Slice_obs.counter "delta.bytes_scanned"

(* Line (1-based) and byte offset of every '{' / '}' outside strings and
   comments. *)
let brace_events (src : string) : brace_ev list =
  let n = String.length src in
  Slice_obs.add c_bytes_scanned n;
  let evs = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let state = ref `Code in
  while !i < n do
    let c = src.[!i] in
    (match !state with
    | `Code -> (
      match c with
      | '{' -> evs := { ev_line = !line; ev_off = !i; ev_open = true } :: !evs
      | '}' -> evs := { ev_line = !line; ev_off = !i; ev_open = false } :: !evs
      | '"' -> state := `Str
      | '/' when !i + 1 < n && src.[!i + 1] = '/' -> state := `Line_comment
      | '/' when !i + 1 < n && src.[!i + 1] = '*' ->
        state := `Block_comment;
        incr i
      | _ -> ())
    | `Str -> (
      match c with
      | '\\' -> incr i
      | '"' -> state := `Code
      | '\n' -> state := `Code (* unterminated literal: resync *)
      | _ -> ())
    | `Line_comment -> if c = '\n' then state := `Code
    | `Block_comment ->
      if c = '*' && !i + 1 < n && src.[!i + 1] = '/' then begin
        state := `Code;
        incr i
      end);
    if !i < n && src.[!i] = '\n' then incr line;
    incr i
  done;
  List.rev !evs

exception Unbalanced

(* ------------------------------------------------------------------ *)
(* Construct segmentation                                              *)
(* ------------------------------------------------------------------ *)

type meth_seg = {
  ms_class : string option;  (** wrapper class, [None] for a free function *)
  ms_name : string;  (** textual name before the parameter list *)
  ms_start : int;  (** first header line (may include leading blanks) *)
  ms_open : int;  (** line of the body-opening brace *)
  ms_close : int;  (** line of the matching closing brace *)
  ms_open_off : int;  (** byte offset of the body-opening brace *)
  ms_close_off : int;  (** byte offset of the matching closing brace *)
  ms_cls_open : int;  (** enclosing class's open-brace line, 0 for free fns *)
  ms_cls_close : int;  (** enclosing class's close-brace line, 0 likewise *)
}

(* One balanced brace group: (open event, close event, interior events). *)
let rec take_group (evs : brace_ev list) :
    (brace_ev * brace_ev * brace_ev list) * brace_ev list =
  match evs with
  | ({ ev_open = true; _ } as op) :: rest ->
    let rec scan depth acc = function
      | [] -> raise Unbalanced
      | ({ ev_open = true; _ } as e) :: tl -> scan (depth + 1) (e :: acc) tl
      | ({ ev_open = false; _ } as cl) :: tl when depth = 0 ->
        ((op, cl, List.rev acc), tl)
      | ({ ev_open = false; _ } as e) :: tl -> scan (depth - 1) (e :: acc) tl
    in
    scan 0 [] rest
  | _ -> raise Unbalanced

and groups (evs : brace_ev list) : (brace_ev * brace_ev * brace_ev list) list =
  match evs with
  | [] -> []
  | _ ->
    let g, rest = take_group evs in
    g :: groups rest

let lines_of (src : string) : string array =
  Array.of_list (String.split_on_char '\n' src)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '$'

(* The identifier immediately before the LAST '(' of [text] — the method
   name of a member/function header. *)
let name_before_paren (text : string) : string option =
  match String.rindex_opt text '(' with
  | None -> None
  | Some p ->
    let e = ref (p - 1) in
    while !e >= 0 && (text.[!e] = ' ' || text.[!e] = '\t' || text.[!e] = '\n') do
      decr e
    done;
    let s = ref !e in
    while !s >= 0 && is_ident_char text.[!s] do
      decr s
    done;
    if !e < 0 || !s = !e then None
    else Some (String.sub text (!s + 1) (!e - !s))

(* Is [text] a class-declaration header?  Looks for the [class] keyword
   as a standalone word. *)
let is_class_header (text : string) : bool =
  let n = String.length text in
  let rec find i =
    if i + 5 > n then false
    else if
      String.sub text i 5 = "class"
      && (i = 0 || not (is_ident_char text.[i - 1]))
      && (i + 5 = n || not (is_ident_char text.[i + 5]))
    then true
    else find (i + 1)
  in
  find 0

let class_name_after_kw (text : string) : string option =
  let n = String.length text in
  let rec find i =
    if i + 5 > n then None
    else if
      String.sub text i 5 = "class"
      && (i = 0 || not (is_ident_char text.[i - 1]))
      && (i + 5 = n || not (is_ident_char text.[i + 5]))
    then begin
      let s = ref (i + 5) in
      while !s < n && (text.[!s] = ' ' || text.[!s] = '\t') do
        incr s
      done;
      let e = ref !s in
      while !e < n && is_ident_char text.[!e] do
        incr e
      done;
      if !e > !s then Some (String.sub text !s (!e - !s)) else None
    end
    else find (i + 1)
  in
  find 0

(* Segment one source file into its method spans.  Raises [Unbalanced]
   on anything the scanner cannot shape (caller maps that to
   [Structural]). *)
let segment_methods (src : string) : meth_seg list =
  let lines = lines_of src in
  let evs = brace_events src in
  (* Byte offset of each line's first character (1-based line numbers). *)
  let line_start =
    let n = Array.length lines in
    let starts = Array.make (n + 2) 0 in
    let off = ref 0 in
    Array.iteri
      (fun i l ->
        starts.(i + 1) <- !off;
        off := !off + String.length l + 1)
      lines;
    starts.(n + 1) <- !off;
    starts
  in
  (* Header text of a construct: from the start of line [lo] up to (not
     including) the body-opening brace — NOT the whole brace line, whose
     tail is body text (a one-line body's trailing calls would otherwise
     masquerade as the header's parameter list). *)
  let header_text lo (op : brace_ev) =
    let s = line_start.(min lo (Array.length line_start - 1)) in
    if s >= op.ev_off then "" else String.sub src s (op.ev_off - s)
  in
  let out = ref [] in
  let prev_close = ref 0 in
  List.iter
    (fun (op, cl, interior) ->
      let header = header_text (!prev_close + 1) op in
      if is_class_header header then begin
        let cls =
          match class_name_after_kw header with
          | Some c -> c
          | None -> raise Unbalanced
        in
        (* members: balanced groups of the interior event stream *)
        let member_prev = ref op.ev_line in
        List.iter
          (fun (mop, mcl, _) ->
            let mh = header_text (!member_prev + 1) mop in
            let name =
              match name_before_paren mh with
              | Some n -> n
              | None -> raise Unbalanced
            in
            out :=
              { ms_class = Some cls;
                ms_name = name;
                ms_start = !member_prev + 1;
                ms_open = mop.ev_line;
                ms_close = mcl.ev_line;
                ms_open_off = mop.ev_off;
                ms_close_off = mcl.ev_off;
                ms_cls_open = op.ev_line;
                ms_cls_close = cl.ev_line }
              :: !out;
            member_prev := mcl.ev_line)
          (groups interior);
        prev_close := cl.ev_line
      end
      else begin
        let name =
          match name_before_paren header with
          | Some n -> n
          | None -> raise Unbalanced
        in
        out :=
          { ms_class = None;
            ms_name = name;
            ms_start = !prev_close + 1;
            ms_open = op.ev_line;
            ms_close = cl.ev_line;
            ms_open_off = op.ev_off;
            ms_close_off = cl.ev_off;
            ms_cls_open = 0;
            ms_cls_close = 0 }
          :: !out;
        prev_close := cl.ev_line
      end)
    (groups evs);
  let segs = List.rev !out in
  (* Reject overlapping / same-line constructs: blanking then becomes
     ambiguous.  Also reject members sharing a line with their class's
     braces. *)
  let ok = ref true in
  let last = ref 0 in
  List.iter
    (fun s ->
      if s.ms_start <= !last then ok := false;
      if s.ms_open > s.ms_close then ok := false;
      (match s.ms_class with
      | Some _ ->
        if s.ms_start <= s.ms_cls_open || s.ms_close >= s.ms_cls_close then
          ok := false
      | None -> ());
      last := s.ms_close)
    segs;
  if not !ok then raise Unbalanced;
  segs

(* Segmentation memo, keyed by PHYSICAL string identity.  A handle's
   stored sources are the same immutable strings on every [diff] against
   it (and the serve cache keeps them resident), so in the steady
   update/watch cycle only the genuinely new source pays a scan.  Four
   slots, most recently used first, cover an old/new pair per file for a
   couple of live handles; a source diffed against on every save (the
   base an edit is reverted to) stays in.  [Unbalanced] scans are not
   cached (they re-raise on replay). *)
let seg_cache : (string * meth_seg list) option array = Array.make 4 None

(* Move the entries before slot [i] down one and put [e] first: [i] is a
   hit's own slot, or the last slot for a new entry. *)
let seg_promote i e =
  Array.blit seg_cache 0 seg_cache 1 i;
  seg_cache.(0) <- e

let seg_cached (src : string) : meth_seg list option =
  let rec probe i =
    if i >= Array.length seg_cache then None
    else
      match seg_cache.(i) with
      | Some (s, segs) as e when s == src ->
        seg_promote i e;
        Some segs
      | _ -> probe (i + 1)
  in
  probe 0

let seg_remember (src : string) (segs : meth_seg list) : unit =
  seg_promote (Array.length seg_cache - 1) (Some (src, segs))

let segment_methods_memo (src : string) : meth_seg list =
  match seg_cached src with
  | Some segs -> segs
  | None ->
    let segs = segment_methods src in
    seg_remember src segs;
    segs

(* ------------------------------------------------------------------ *)
(* Skeletons                                                           *)
(* ------------------------------------------------------------------ *)

(* The file with every method-body INTERIOR (the bytes strictly between
   the opening and closing braces) dropped, keeping only the interior's
   newlines.  Character-exact, so one-line bodies
   ([int get() { return this.f; }]) blank like multi-line ones, and
   length-normalized, so an interior edit that grows or shrinks the text
   cannot leak into the comparison.  Keeping the newlines preserves the
   file's line count AND pins each body's own line span — skeleton
   equality implies every textual difference sits inside some method
   body, no source location outside bodies moved, and every body still
   opens and closes on the same lines. *)
let skeleton_of_segs (src : string) (segs : meth_seg list) : string =
  let drop = Bytes.make (String.length src) '\000' in
  List.iter
    (fun s ->
      for i = s.ms_open_off + 1 to s.ms_close_off - 1 do
        if src.[i] <> '\n' then Bytes.set drop i '\001'
      done)
    segs;
  let buf = Buffer.create (String.length src) in
  String.iteri
    (fun i c -> if Bytes.get drop i = '\000' then Buffer.add_char buf c)
    src;
  Buffer.contents buf

let skeleton (src : string) : string = skeleton_of_segs src (segment_methods src)

(* [skeleton_of_segs a sa = skeleton_of_segs b sb] without building
   either string: each source is read as the byte stream its skeleton
   would hold, skipping the non-newline bytes of every body interior. *)
let skeletons_equal (a : string) (sa : meth_seg list) (b : string)
    (sb : meth_seg list) : bool =
  let interiors segs =
    let r =
      Array.of_list
        (List.map (fun s -> (s.ms_open_off + 1, s.ms_close_off)) segs)
    in
    Array.sort compare r;
    r
  in
  (* move [i] to the next byte the skeleton keeps; [k] is the first
     interior not yet passed *)
  let advance src r i k =
    let again = ref true in
    while !again do
      if !k < Array.length r && !i >= snd r.(!k) then incr k
      else if
        !k < Array.length r
        && !i >= fst r.(!k)
        && !i < String.length src
        && src.[!i] <> '\n'
      then incr i
      else again := false
    done
  in
  let ra = interiors sa and rb = interiors sb in
  let ia = ref 0 and ka = ref 0 and ib = ref 0 and kb = ref 0 in
  let result = ref None in
  while !result = None do
    advance a ra ia ka;
    advance b rb ib kb;
    let enda = !ia >= String.length a and endb = !ib >= String.length b in
    if enda || endb then result := Some (enda && endb)
    else if a.[!ia] <> b.[!ib] then result := Some false
    else begin
      incr ia;
      incr ib
    end
  done;
  !result = Some true

(* ------------------------------------------------------------------ *)
(* Diffs                                                               *)
(* ------------------------------------------------------------------ *)

type changed_method = {
  cm_file : string;
  cm_class : string option;
  cm_name : string;
  cm_mini : string;  (** synthetic one-method unit, line-accurate *)
  cm_line : int;  (** file line of [cm_mini]'s first byte *)
}

type t =
  | Same  (** byte-identical sources *)
  | Bodies of changed_method list
      (** only these method bodies changed; signatures and program
          structure are untouched *)
  | Structural  (** anything else: a full rebuild is required *)

(* Mini unit: the method's own lines, [ms_start] to [ms_close], as one
   substring found from its brace offsets; a class member gets a
   one-line [class C {] wrapper before them and a [}] line after, so
   constructors keep their class context.  Returned with the file line
   of its first byte, where the lexer starts: every token keeps the line
   and column it has in the file. *)
let mini_unit (src : string) (s : meth_seg) : string * int =
  (* the first byte of line [ms_start]: back from the opening brace
     across the header's line breaks *)
  let rec back i k =
    if i <= 0 then 0
    else if src.[i - 1] = '\n' then if k = 0 then i else back (i - 1) (k - 1)
    else back (i - 1) k
  in
  let lo = back s.ms_open_off (s.ms_open - s.ms_start) in
  let hi =
    match String.index_from_opt src s.ms_close_off '\n' with
    | Some i -> i
    | None -> String.length src
  in
  let text = String.sub src lo (hi - lo) in
  match s.ms_class with
  | None -> (text, s.ms_start)
  | Some c ->
    (String.concat "" [ "class "; c; " {\n"; text; "\n}" ], s.ms_start - 1)

let changed ~(file : string) (src : string) (s : meth_seg) : changed_method =
  let mini, line = mini_unit src s in
  { cm_file = file;
    cm_class = s.ms_class;
    cm_name = s.ms_name;
    cm_mini = mini;
    cm_line = line }

(* Body interiors compared byte-exactly, each through its own file's
   brace offsets (skeleton equality has already pinned those offsets to
   differ only inside bodies). *)
let interior_equal ~(old_src : string) ~(new_src : string) (so : meth_seg)
    (sn : meth_seg) : bool =
  let len = so.ms_close_off - so.ms_open_off - 1 in
  let a = so.ms_open_off + 1 and b = sn.ms_open_off + 1 in
  let rec same i = i >= len || (old_src.[a + i] = new_src.[b + i] && same (i + 1)) in
  len = sn.ms_close_off - sn.ms_open_off - 1 && same 0

type file_diff = [ `Same | `Bodies of changed_method list | `Structural ]

(* The full scan: segment both sources with [segment], compare their
   skeletons, then every body interior. *)
let scan_file ~(segment : string -> meth_seg list) ~(file : string)
    ~(old_src : string) ~(new_src : string) : file_diff =
  if String.equal old_src new_src then `Same
  else
    (* Segment each source exactly ONCE: the scan is the diff's dominant
       cost, and both the skeleton and the per-method comparison below
       read the same segment list. *)
    match (segment old_src, segment new_src) with
    | exception Unbalanced -> `Structural
    | segs_old, segs_new ->
      if
        (not (skeletons_equal old_src segs_old new_src segs_new))
        || List.length segs_old <> List.length segs_new
      then `Structural
      else begin
        let changed_ms = ref [] in
        let ok = ref true in
        List.iter2
          (fun so sn ->
            if
              so.ms_class <> sn.ms_class
              || not (String.equal so.ms_name sn.ms_name)
              || so.ms_open <> sn.ms_open
              || so.ms_close <> sn.ms_close
            then ok := false
            else if not (interior_equal ~old_src ~new_src so sn) then
              changed_ms := changed ~file new_src sn :: !changed_ms)
          segs_old segs_new;
        if not !ok then `Structural else `Bodies (List.rev !changed_ms)
      end

(* Length of the longest common prefix of [a] and [b], a word at a
   time. *)
let common_prefix (a : string) (b : string) : int =
  let n = min (String.length a) (String.length b) in
  let i = ref 0 in
  while
    !i + 8 <= n
    && Int64.equal (String.get_int64_ne a !i) (String.get_int64_ne b !i)
  do
    i := !i + 8
  done;
  while !i < n && a.[!i] = b.[!i] do
    incr i
  done;
  !i

(* Length of the longest common suffix of [a] and [b] that leaves their
   first [p] bytes alone, a word at a time. *)
let common_suffix (a : string) (b : string) (p : int) : int =
  let la = String.length a and lb = String.length b in
  let n = min la lb - p in
  let k = ref 0 in
  while
    !k + 8 <= n
    && Int64.equal
         (String.get_int64_ne a (la - !k - 8))
         (String.get_int64_ne b (lb - !k - 8))
  do
    k := !k + 8
  done;
  while !k < n && a.[la - !k - 1] = b.[lb - !k - 1] do
    incr k
  done;
  !k

(* A byte [brace_events] reacts to, and a byte after which it reads or
   skips the next one. *)
let scanner_byte = function
  | '{' | '}' | '"' | '/' | '*' | '\\' | '\n' -> true
  | _ -> false

let lookahead_byte c = c = '/' || c = '*' || c = '\\'

(* The edit as its changed window: [old_src] and [new_src] differ only in
   [p, |old| - s) and [p, |new| - s), their common prefix [p] and suffix
   [s] being maximal.  When the old window lies inside the interior of
   one method [m] of [segs_old] and neither window holds a byte the
   scanner reacts to, nor does the byte either side of the old window
   make it look across the boundary, the scanner walks both sources in
   the same states outside the windows and sees no brace, line break or
   state change inside them.  Scanning [new_src] would then give
   [segs_old] with every offset past the window moved by
   |new| - |old|, on the same lines and under the same headers, and the
   only interior that differs is [m]'s.  Returns that segmentation and
   [m]'s new segment, or [None] when the rule does not apply. *)
let window_delta ~(old_src : string) ~(new_src : string)
    (segs_old : meth_seg list) : (meth_seg list * meth_seg) option =
  let lo = String.length old_src and ln = String.length new_src in
  let p = common_prefix old_src new_src in
  let s = common_suffix old_src new_src p in
  let quiet src hi =
    let rec go i = i >= hi || ((not (scanner_byte src.[i])) && go (i + 1)) in
    go p
  in
  let plain i = i < 0 || i >= lo || not (lookahead_byte old_src.[i]) in
  if
    not
      (quiet old_src (lo - s)
      && quiet new_src (ln - s)
      && plain (p - 1)
      && plain (lo - s))
  then None
  else
    match
      List.find_opt
        (fun m -> m.ms_open_off < p && lo - s <= m.ms_close_off)
        segs_old
    with
    | None -> None
    | Some m ->
      let shift = ln - lo in
      let moved x = if x >= p then x + shift else x in
      let derive sg =
        if sg.ms_close_off < p then sg
        else
          { sg with
            ms_open_off = moved sg.ms_open_off;
            ms_close_off = moved sg.ms_close_off }
      in
      let segs_new = List.map derive segs_old in
      Some (segs_new, derive m)

(* The window rule first, against the old source's memoized
   segmentation; the full scan when it does not apply.  [scanned] is set
   when the scan decided. *)
let diff_file ~(scanned : bool ref) ~(file : string) ~(old_src : string)
    ~(new_src : string) : file_diff =
  let window =
    if String.equal old_src new_src then Some `Same
    else
      match segment_methods_memo old_src with
      | exception Unbalanced -> None
      | segs_old -> (
        match window_delta ~old_src ~new_src segs_old with
        | None -> None
        | Some (segs_new, m) ->
          if seg_cached new_src = None then seg_remember new_src segs_new;
          Some (`Bodies [ changed ~file new_src m ]))
  in
  match window with
  | Some d -> d
  | None ->
    scanned := true;
    scan_file ~segment:segment_methods_memo ~file ~old_src ~new_src

let diff_units
    (classify : file:string -> old_src:string -> new_src:string -> file_diff)
    ~(old_sources : (string * string) list)
    ~(new_sources : (string * string) list) : t =
  if
    List.length old_sources <> List.length new_sources
    || not
         (List.for_all2
            (fun (f, _) (f', _) -> String.equal f f')
            old_sources new_sources)
  then Structural
  else begin
    let acc = ref [] in
    let structural = ref false in
    let any = ref false in
    List.iter2
      (fun (file, old_src) (_, new_src) ->
        match classify ~file ~old_src ~new_src with
        | `Same -> ()
        | `Structural -> structural := true
        | `Bodies ch ->
          any := true;
          acc := !acc @ ch)
      old_sources new_sources;
    if !structural then Structural
    else if not !any then Same
    else if !acc = [] then
      (* skeleton-equal yet no per-method difference: the change sits
         outside any recognized body — be conservative *)
      Structural
    else Bodies !acc
  end

let diff ~(old_sources : (string * string) list)
    ~(new_sources : (string * string) list) : t =
  Slice_obs.span "delta.diff" (fun () ->
      let scanned = ref false in
      let d = diff_units (diff_file ~scanned) ~old_sources ~new_sources in
      Slice_obs.add_span_arg "path" (if !scanned then "scan" else "window");
      d)

let diff_scan ~(old_sources : (string * string) list)
    ~(new_sources : (string * string) list) : t =
  diff_units (scan_file ~segment:segment_methods) ~old_sources ~new_sources

(* ------------------------------------------------------------------ *)
(* Re-lowering                                                         *)
(* ------------------------------------------------------------------ *)

exception Delta_error of string

type resolved = {
  rv_mq : Instr.method_qname;
  rv_cls : Types.class_name;
  rv_md : Ast.method_decl;
}

(* Parse a mini unit down to its single method declaration. *)
let parse_mini ~(file : string) ~(line : int) (mini : string) :
    Types.class_name * Ast.method_decl =
  let cu = Parser.parse_string ~line ~file mini in
  match cu.Ast.cu_decls with
  | [ Ast.Dclass cd ] -> (
    match cd.Ast.cd_methods with
    | [ md ] -> (cd.Ast.cd_name, md)
    | _ -> raise (Delta_error "mini unit: expected exactly one method"))
  | [ Ast.Dfunc md ] -> (Types.toplevel_class, md)
  | _ -> raise (Delta_error "mini unit: expected exactly one declaration")

(* Parse a changed method's mini unit and identify the program method it
   denotes, WITHOUT mutating the program — the caller can snapshot the
   old body (e.g. its constraint summary) before re-lowering. *)
let resolve (p : Program.t) (cm : changed_method) : resolved =
  let cls, md = parse_mini ~file:cm.cm_file ~line:cm.cm_line cm.cm_mini in
  let mq = { Instr.mq_class = cls; mq_name = md.Ast.md_name } in
  (match Program.find_method p mq with
  | Some _ -> ()
  | None ->
    raise
      (Delta_error
         (Printf.sprintf "mini unit: unknown method %s"
            (Instr.method_qname_to_string mq))));
  { rv_mq = mq; rv_cls = cls; rv_md = md }

(* Re-lower a resolved changed method into the existing program: fresh
   IR body and variable table in the SAME method shell (so the class
   table, points-to method index, and callers stay pointed at it), new
   globally-unique statement ids, SSA re-run.  The entry method's
   [$clinit] prepend is replayed exactly as a full [Lower.run] would. *)
let relower_resolved (p : Program.t) (r : resolved) : unit =
  let mq = r.rv_mq and cls = r.rv_cls and md = r.rv_md in
  Lower.lower_method p ~cls md;
  (* Replay the $clinit prepend for the entry method (Lower.run does
     this after lowering main). *)
  (if Instr.equal_method_qname mq (Program.entry_method p) then
     let clinit_mq =
       { Instr.mq_class = Types.toplevel_class; mq_name = "$clinit" }
     in
     match Program.find_method p clinit_mq with
     | Some clinit when Instr.has_body clinit ->
       let main = Program.find_method_exn p mq in
       let blocks = Instr.blocks_exn main in
       let entry = blocks.(Instr.entry_label main) in
       let call =
         { Instr.i_id = Program.fresh_stmt_id p;
           i_kind =
             Instr.Call { lhs = None; kind = Instr.Static clinit_mq; args = [] };
           i_loc = Loc.none }
       in
       entry.Instr.b_instrs <- call :: entry.Instr.b_instrs
     | Some _ | None -> ());
  let m = Program.find_method_exn p mq in
  Ssa.convert p m
