(* Telemetry: trace spans + metric registry + sinks.

   One process registry holds every counter, gauge and histogram cell
   and the span forest.  Metric handles ARE their cells, interned by name
   in the registry's tables, so a bump is a plain [incr] — cheap enough
   to leave in the slicer's inner loop — and [reset] zeroes cells in
   place, so handles bound at module initialisation stay live. *)

(* ------------------------------------------------------------------ *)
(* Enable / disable                                                    *)
(* ------------------------------------------------------------------ *)

let enabled_flag = ref true

let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* ------------------------------------------------------------------ *)
(* Span trees (shape shared by registries and snapshots)               *)
(* ------------------------------------------------------------------ *)

type span_tree = {
  sp_name : string;
  sp_start : float;
  sp_wall : float;
  sp_minor_words : float;
  sp_major_words : float;
  sp_args : (string * string) list;
  sp_children : span_tree list;
}

(* Open spans carry mutable fields; finished trees are immutable.
   [os_args] collects annotations: the ones passed at open time plus any
   appended by [add_span_arg] while the span is running (reversed). *)
type open_span = {
  os_name : string;
  os_start : float;                       (* seconds since [epoch] *)
  os_minor0 : float;
  os_major0 : float;
  mutable os_args : (string * string) list;
  mutable os_done : span_tree list;       (* finished children, reversed *)
}

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

(* Histograms keep, beyond count/sum/min/max, a fixed array of
   log-scaled bucket counts so any sink can estimate percentiles without
   storing samples.  Geometry (shared by every histogram, so buckets are
   mergeable element-wise across scopes): bucket 0 catches
   v <= 2^hist_min_exp (including 0 and negatives); bucket i (1-based)
   catches values up to 2^(hist_min_exp + i/hist_sub) — [hist_sub]
   sub-buckets per octave, so any estimate is within a factor of
   2^(1/hist_sub) ~ 19% of the exact quantile; the last bucket is an
   overflow catch-all.  The range 2^-30 .. 2^30 covers nanosecond walls
   up to giga-counts. *)
let hist_min_exp = -30
let hist_max_exp = 30
let hist_sub = 4
let hist_buckets = ((hist_max_exp - hist_min_exp) * hist_sub) + 2

let bucket_of_value (v : float) : int =
  if not (v > ldexp 1.0 hist_min_exp) then 0
  else
    let i = 1 + int_of_float (Float.floor ((Float.log2 v -. float_of_int hist_min_exp) *. float_of_int hist_sub)) in
    if i >= hist_buckets - 1 then hist_buckets - 1 else i

(* Representative value of a bucket: its upper bound (0 for the underflow
   bucket; the overflow bucket reports its lower bound — the geometry has
   no upper bound there). *)
let bucket_value (i : int) : float =
  if i <= 0 then 0.
  else
    let i = min i (hist_buckets - 1) in
    Float.exp2 (float_of_int hist_min_exp +. (float_of_int i /. float_of_int hist_sub))

(* Estimated q-quantile (q in [0,1]) of a bucket-count array: the
   representative value of the first bucket at which the cumulative count
   reaches ceil(q * count) (at least 1).  Deterministic, and exact up to
   the bucket width.  0 when the histogram is empty. *)
let percentile ~(count : int) ~(buckets : int array) (q : float) : float =
  if count <= 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = max 1 (int_of_float (Float.ceil (q *. float_of_int count))) in
    let cum = ref 0 and found = ref (hist_buckets - 1) in
    (try
       Array.iteri
         (fun i c ->
           cum := !cum + c;
           if !cum >= target then begin
             found := i;
             raise Exit
           end)
         buckets
     with Exit -> ());
    bucket_value !found
  end

type hist_cell = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array;   (* hist_buckets log-scaled bucket counts *)
}

type registry = {
  reg_counters : (string, int ref) Hashtbl.t;
  reg_gauges : (string, float ref) Hashtbl.t;
  reg_hists : (string, hist_cell) Hashtbl.t;
  (* completed top-level spans (reversed) and the open-span stack
     (innermost first) *)
  mutable reg_roots : span_tree list;
  mutable reg_stack : open_span list;
}

let registry : registry =
  { reg_counters = Hashtbl.create 64;
    reg_gauges = Hashtbl.create 16;
    reg_hists = Hashtbl.create 16;
    reg_roots = [];
    reg_stack = [] }

(* ------------------------------------------------------------------ *)
(* Metric handles                                                      *)
(* ------------------------------------------------------------------ *)

(* A handle is its registry cell, interned by name, so [counter "x" ==
   counter "x"]. *)
type counter = int ref
type gauge = float ref
type histogram = hist_cell

let intern (tbl : (string, 'c) Hashtbl.t) (make : unit -> 'c) (name : string)
    : 'c =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
    let c = make () in
    Hashtbl.replace tbl name c;
    c

let counter : string -> counter = intern registry.reg_counters (fun () -> ref 0)

let bump (c : counter) = incr c

(* The raw cell: for hot loops.  Stable for the process's lifetime —
   [scoped] and [reset] zero and restore through the same ref. *)
let counter_cell (c : counter) : int ref = c

let add (c : counter) n = c := !c + n

let counter_value name =
  match Hashtbl.find_opt registry.reg_counters name with
  | Some c -> !c
  | None -> 0

let gauge : string -> gauge = intern registry.reg_gauges (fun () -> ref 0.)

let max_gauge (g : gauge) v = if v > !g then g := v

let gauge_value name =
  match Hashtbl.find_opt registry.reg_gauges name with
  | Some g -> !g
  | None -> 0.

let histogram : string -> histogram =
  intern registry.reg_hists (fun () ->
      { h_count = 0; h_sum = 0.; h_min = 0.; h_max = 0.;
        h_buckets = Array.make hist_buckets 0 })

let observe (h : histogram) (v : float) : unit =
  if h.h_count = 0 then begin
    h.h_min <- v;
    h.h_max <- v
  end
  else begin
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v
  end;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  let b = bucket_of_value v in
  h.h_buckets.(b) <- h.h_buckets.(b) + 1

let histogram_stats (h : histogram) = (h.h_count, h.h_sum, h.h_min, h.h_max)

let histogram_percentile (h : histogram) (q : float) : float =
  percentile ~count:h.h_count ~buckets:h.h_buckets q

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let epoch = Unix.gettimeofday ()
let now () = Unix.gettimeofday () -. epoch

(* Words allocated on the major heap so far, promotions included. *)
let major_words () =
  let _, _, major = Gc.counters () in
  major

(* [Gc.counters]' minor count moves only at minor collections, so it
   misses whatever the current minor heap holds; [Gc.minor_words] is
   exact. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let close_span (os : open_span) : unit =
  let tree =
    { sp_name = os.os_name;
      sp_start = os.os_start;
      sp_wall = now () -. os.os_start;
      sp_minor_words = Gc.minor_words () -. os.os_minor0;
      sp_major_words = major_words () -. os.os_major0;
      sp_args = List.rev os.os_args;
      sp_children = List.rev os.os_done }
  in
  (match registry.reg_stack with
  | s :: rest when s == os -> registry.reg_stack <- rest
  | _ ->
    (* unbalanced (an exception skipped an inner close): pop through *)
    registry.reg_stack <- List.filter (fun s -> s != os) registry.reg_stack);
  match registry.reg_stack with
  | parent :: _ -> parent.os_done <- tree :: parent.os_done
  | [] -> registry.reg_roots <- tree :: registry.reg_roots

let span ?(args : (string * string) list = []) (name : string)
    (f : unit -> 'a) : 'a =
  if not !enabled_flag then f ()
  else begin
    let os =
      { os_name = name;
        os_start = now ();
        os_minor0 = Gc.minor_words ();
        os_major0 = major_words ();
        os_args = List.rev args;
        os_done = [] }
    in
    registry.reg_stack <- os :: registry.reg_stack;
    Fun.protect ~finally:(fun () -> close_span os) f
  end

(* Annotate the innermost OPEN span with a fact
   discovered while it runs (e.g. the slice size, known only after the
   walk).  No-op when spans are disabled or none is open — safe to call
   unconditionally from library code. *)
let add_span_arg (key : string) (value : string) : unit =
  if !enabled_flag then
    match registry.reg_stack with
    | os :: _ -> os.os_args <- (key, value) :: os.os_args
    | [] -> ()

(* ------------------------------------------------------------------ *)
(* Snapshot                                                            *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_hists : (string * (int * float * float * float)) list;
  snap_hist_buckets : (string * int array) list;
  snap_spans : span_tree list;
}

let sorted_bindings tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot () : snapshot =
  { snap_counters = sorted_bindings registry.reg_counters (fun c -> !c);
    snap_gauges = sorted_bindings registry.reg_gauges (fun g -> !g);
    snap_hists = sorted_bindings registry.reg_hists histogram_stats;
    snap_hist_buckets =
      sorted_bindings registry.reg_hists (fun h -> Array.copy h.h_buckets);
    snap_spans = List.rev registry.reg_roots }

let snapshot_percentile (s : snapshot) (name : string) (q : float) : float =
  match
    (List.assoc_opt name s.snap_hists, List.assoc_opt name s.snap_hist_buckets)
  with
  | Some (count, _, _, _), Some buckets -> percentile ~count ~buckets q
  | _ -> 0.

let zero_hist (h : hist_cell) : unit =
  h.h_count <- 0;
  h.h_sum <- 0.;
  h.h_min <- 0.;
  h.h_max <- 0.;
  Array.fill h.h_buckets 0 hist_buckets 0

let reset () : unit =
  Hashtbl.iter (fun _ c -> c := 0) registry.reg_counters;
  Hashtbl.iter (fun _ g -> g := 0.) registry.reg_gauges;
  Hashtbl.iter (fun _ h -> zero_hist h) registry.reg_hists;
  registry.reg_roots <- [];
  registry.reg_stack <- []

(* Span rotation for processes that never exit.  Completed span trees
   accumulate in [reg_roots] without bound — a long-lived daemon that
   snapshots per query must drop what it has already shipped, or the
   registry becomes an unbounded leak.  Counters/gauges/histograms are
   left alone (they are cheap, fixed-size, and cumulative by design),
   and so are OPEN spans: dropping an ancestor still on [reg_stack]
   would corrupt the close path. *)
let reset_spans () : unit = registry.reg_roots <- []

(* Merge one hist-stats tuple and its bucket counts into a cell (the
   histogram half of [scoped]'s restore). *)
let merge_hist_into ~(buckets : int array) (h : hist_cell)
    (count, sum, mn, mx) : unit =
  if count > 0 then begin
    if h.h_count = 0 then begin
      h.h_min <- mn;
      h.h_max <- mx
    end
    else begin
      if mn < h.h_min then h.h_min <- mn;
      if mx > h.h_max then h.h_max <- mx
    end;
    h.h_count <- h.h_count + count;
    h.h_sum <- h.h_sum +. sum;
    for i = 0 to hist_buckets - 1 do
      h.h_buckets.(i) <- h.h_buckets.(i) + buckets.(i)
    done
  end

(* Scoped measurement: isolate exactly what [f] records.

   Successive measurements accumulate: counters keep growing, peak
   gauges never come back down.  [scoped f] saves the registry, zeroes
   it, runs [f], snapshots what [f]
   alone recorded, and then MERGES the saved state back (counters summed,
   peak gauges maxed, histograms combined, spans appended), so that
   cumulative telemetry is preserved while the returned snapshot is a
   per-task delta.  This is the fix for BENCH entries reporting
   cumulative numbers across tasks.  In-place on the registry's cells, so
   metric handles stay valid throughout. *)
let scoped (f : unit -> 'a) : 'a * snapshot =
  let saved_counters =
    Hashtbl.fold (fun _ c acc -> (c, !c) :: acc) registry.reg_counters []
  in
  let saved_gauges =
    Hashtbl.fold (fun _ g acc -> (g, !g) :: acc) registry.reg_gauges []
  in
  let saved_hists =
    Hashtbl.fold
      (fun _ h acc -> (h, histogram_stats h, Array.copy h.h_buckets) :: acc)
      registry.reg_hists []
  in
  List.iter (fun (c, _) -> c := 0) saved_counters;
  List.iter (fun (g, _) -> g := 0.) saved_gauges;
  List.iter (fun (h, _, _) -> zero_hist h) saved_hists;
  let saved_roots = registry.reg_roots and saved_stack = registry.reg_stack in
  registry.reg_roots <- [];
  registry.reg_stack <- [];
  let restore () =
    List.iter (fun (c, v) -> c := !c + v) saved_counters;
    List.iter (fun (g, v) -> if v > !g then g := v) saved_gauges;
    List.iter
      (fun (h, stats, buckets) -> merge_hist_into ~buckets h stats)
      saved_hists;
    let inner_roots = registry.reg_roots in
    registry.reg_stack <- saved_stack;
    (match saved_stack with
    | parent :: _ ->
      (* [scoped] ran inside an open span: its spans become children *)
      parent.os_done <- inner_roots @ parent.os_done;
      registry.reg_roots <- saved_roots
    | [] -> registry.reg_roots <- inner_roots @ saved_roots)
  in
  match f () with
  | r ->
    let snap = snapshot () in
    restore ();
    (r, snap)
  | exception e ->
    restore ();
    raise e

let span_totals (s : snapshot) : (string * float) list =
  let acc : (string, float ref) Hashtbl.t = Hashtbl.create 32 in
  let rec visit sp =
    (match Hashtbl.find_opt acc sp.sp_name with
    | Some r -> r := !r +. sp.sp_wall
    | None -> Hashtbl.replace acc sp.sp_name (ref sp.sp_wall));
    List.iter visit sp.sp_children
  in
  List.iter visit s.snap_spans;
  sorted_bindings acc (fun r -> !r)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape_string (s : string) : string =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let float_to_string (f : float) : string =
    match Float.classify_float f with
    | Float.FP_nan | Float.FP_infinite -> "null"   (* JSON has no nan/inf *)
    | _ ->
      let s = Printf.sprintf "%.17g" f in
      (* prefer the short form when it round-trips *)
      let short = Printf.sprintf "%.12g" f in
      if float_of_string short = f then short else s

  (* The decimal digits of [n >= 0], most significant first, written
     straight into [buf]: the bytes of [string_of_int n] without the
     intermediate string. *)
  let rec add_digits buf n =
    if n >= 10 then add_digits buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

  (* A negative [i] is written from [-(i / 10)] and [-(i mod 10)], which
     never negate [min_int]. *)
  let add_int buf (i : int) : unit =
    if i >= 0 then add_digits buf i
    else begin
      Buffer.add_char buf '-';
      if i <= -10 then add_digits buf (-(i / 10));
      Buffer.add_char buf (Char.unsafe_chr (48 - (i mod 10)))
    end

  let rec write buf (j : t) : unit =
    match j with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> add_int buf i
    | Float f -> Buffer.add_string buf (float_to_string f)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
    | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        l;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf "\":";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string (j : t) : string =
    let buf = Buffer.create 1024 in
    write buf j;
    Buffer.contents buf

  (* --- parser: recursive descent over a string ----------------------- *)

  exception Parse_fail of string

  type parser_state = { text : string; mutable pos : int }

  let fail st msg =
    raise (Parse_fail (Printf.sprintf "%s at offset %d" msg st.pos))

  let peek st =
    if st.pos < String.length st.text then Some st.text.[st.pos] else None

  let skip_ws st =
    while
      st.pos < String.length st.text
      && (match st.text.[st.pos] with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false)
    do
      st.pos <- st.pos + 1
    done

  let expect st c =
    match peek st with
    | Some c' when c' = c -> st.pos <- st.pos + 1
    | _ -> fail st (Printf.sprintf "expected %c" c)

  let literal st word value =
    let n = String.length word in
    if
      st.pos + n <= String.length st.text
      && String.sub st.text st.pos n = word
    then begin
      st.pos <- st.pos + n;
      value
    end
    else fail st (Printf.sprintf "expected %s" word)

  let parse_string_body st =
    expect st '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek st with
      | None -> fail st "unterminated string"
      | Some '"' -> st.pos <- st.pos + 1
      | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | Some '"' -> Buffer.add_char buf '"'; st.pos <- st.pos + 1; go ()
        | Some '\\' -> Buffer.add_char buf '\\'; st.pos <- st.pos + 1; go ()
        | Some '/' -> Buffer.add_char buf '/'; st.pos <- st.pos + 1; go ()
        | Some 'n' -> Buffer.add_char buf '\n'; st.pos <- st.pos + 1; go ()
        | Some 't' -> Buffer.add_char buf '\t'; st.pos <- st.pos + 1; go ()
        | Some 'r' -> Buffer.add_char buf '\r'; st.pos <- st.pos + 1; go ()
        | Some 'b' -> Buffer.add_char buf '\b'; st.pos <- st.pos + 1; go ()
        | Some 'f' -> Buffer.add_char buf '\012'; st.pos <- st.pos + 1; go ()
        | Some 'u' ->
          if st.pos + 5 > String.length st.text then fail st "bad \\u escape";
          let hex = String.sub st.text (st.pos + 1) 4 in
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> fail st "bad \\u escape"
          in
          (* encode as UTF-8 (basic-plane only; surrogates kept verbatim) *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end;
          st.pos <- st.pos + 5;
          go ()
        | _ -> fail st "bad escape")
      | Some c ->
        Buffer.add_char buf c;
        st.pos <- st.pos + 1;
        go ()
    in
    go ();
    Buffer.contents buf

  let parse_number st =
    let start = st.pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      st.pos < String.length st.text && is_num_char st.text.[st.pos]
    do
      st.pos <- st.pos + 1
    done;
    let s = String.sub st.text start (st.pos - start) in
    if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
    then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail st "bad number"
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail st "bad number")

  let rec parse_value st : t =
    skip_ws st;
    match peek st with
    | None -> fail st "unexpected end of input"
    | Some '"' -> Str (parse_string_body st)
    | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let members = ref [] in
        let rec member () =
          skip_ws st;
          let k = parse_string_body st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          members := (k, v) :: !members;
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; member ()
          | Some '}' -> st.pos <- st.pos + 1
          | _ -> fail st "expected , or }"
        in
        member ();
        Obj (List.rev !members)
      end
    | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let items = ref [] in
        let rec item () =
          let v = parse_value st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' -> st.pos <- st.pos + 1; item ()
          | Some ']' -> st.pos <- st.pos + 1
          | _ -> fail st "expected , or ]"
        in
        item ();
        List (List.rev !items)
      end
    | Some 't' -> literal st "true" (Bool true)
    | Some 'f' -> literal st "false" (Bool false)
    | Some 'n' -> literal st "null" Null
    | Some ('-' | '0' .. '9') -> parse_number st
    | Some c -> fail st (Printf.sprintf "unexpected character %c" c)

  let of_string (s : string) : (t, string) result =
    let st = { text = s; pos = 0 } in
    match parse_value st with
    | v ->
      skip_ws st;
      if st.pos = String.length s then Ok v
      else Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    | exception Parse_fail msg -> Error msg

  let member (key : string) (j : t) : t option =
    match j with Obj kvs -> List.assoc_opt key kvs | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

let rec span_to_json (sp : span_tree) : Json.t =
  Json.Obj
    ([ ("name", Json.Str sp.sp_name);
       ("start_s", Json.Float sp.sp_start);
       ("wall_s", Json.Float sp.sp_wall);
       ("minor_words", Json.Float sp.sp_minor_words);
       ("major_words", Json.Float sp.sp_major_words) ]
    @ (if sp.sp_args = [] then []
       else
         [ ( "args",
             Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) sp.sp_args) )
         ])
    @ [ ("children", Json.List (List.map span_to_json sp.sp_children)) ])

let snapshot_to_json (s : snapshot) : Json.t =
  Json.Obj
    [ ("counters",
       Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.snap_counters));
      ("gauges",
       Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.snap_gauges));
      ("histograms",
       Json.Obj
         (List.map
            (fun (k, (count, sum, mn, mx)) ->
              ( k,
                Json.Obj
                  [ ("count", Json.Int count);
                    ("sum", Json.Float sum);
                    ("min", Json.Float mn);
                    ("max", Json.Float mx) ] ))
            s.snap_hists));
      ("spans", Json.List (List.map span_to_json s.snap_spans));
      ("phase_wall_s",
       Json.Obj
         (List.map (fun (k, v) -> (k, Json.Float v)) (span_totals s))) ]

let report (s : snapshot) : string =
  let buf = Buffer.create 1024 in
  if s.snap_spans <> [] then begin
    Buffer.add_string buf "spans (wall ms / minor kwords / major kwords):\n";
    let rec pp indent sp =
      Buffer.add_string buf
        (Printf.sprintf "%s%-*s %9.3f ms %10.1f kw %10.1f kw\n" indent
           (max 1 (32 - String.length indent))
           sp.sp_name (sp.sp_wall *. 1000.)
           (sp.sp_minor_words /. 1000.)
           (sp.sp_major_words /. 1000.));
      List.iter (pp (indent ^ "  ")) sp.sp_children
    in
    List.iter (pp "  ") s.snap_spans
  end;
  if s.snap_counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (k, v) ->
        if v <> 0 then Buffer.add_string buf (Printf.sprintf "  %-40s %12d\n" k v))
      s.snap_counters
  end;
  if List.exists (fun (_, v) -> v <> 0.) s.snap_gauges then begin
    Buffer.add_string buf "gauges:\n";
    List.iter
      (fun (k, v) ->
        if v <> 0. then
          Buffer.add_string buf (Printf.sprintf "  %-40s %12.1f\n" k v))
      s.snap_gauges
  end;
  if List.exists (fun (_, (c, _, _, _)) -> c <> 0) s.snap_hists then begin
    Buffer.add_string buf
      "histograms (count/sum/min/max | ~p50/p90/p99):\n";
    List.iter
      (fun (k, (count, sum, mn, mx)) ->
        if count <> 0 then begin
          let p q = snapshot_percentile s k q in
          Buffer.add_string buf
            (Printf.sprintf
               "  %-40s %8d %10.1f %10.1f %10.1f | %10.1f %10.1f %10.1f\n" k
               count sum mn mx (p 0.50) (p 0.90) (p 0.99))
        end)
      s.snap_hists
  end;
  Buffer.contents buf

let chrome_trace (s : snapshot) : Json.t =
  let events = ref [] in
  let rec visit sp =
    events :=
      Json.Obj
        [ ("name", Json.Str sp.sp_name);
          ("ph", Json.Str "X");
          ("pid", Json.Int 1);
          ("tid", Json.Int 1);
          ("ts", Json.Float (sp.sp_start *. 1e6));
          ("dur", Json.Float (sp.sp_wall *. 1e6));
          ("args",
           Json.Obj
             (("minor_words", Json.Float sp.sp_minor_words)
             :: ("major_words", Json.Float sp.sp_major_words)
             :: List.map (fun (k, v) -> (k, Json.Str v)) sp.sp_args)) ]
      :: !events;
    List.iter visit sp.sp_children
  in
  List.iter visit s.snap_spans;
  Json.Obj
    [ ("traceEvents", Json.List (List.rev !events));
      ("displayTimeUnit", Json.Str "ms") ]
