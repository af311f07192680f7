(* Growable dense bitset over 63-bit words (OCaml native ints). *)

let bits_per_word = Sys.int_size (* 63 on 64-bit systems *)

type t = { mutable w : int array }

let create ?(capacity = 64) () =
  let words = max 0 ((capacity + bits_per_word - 1) / bits_per_word) in
  (* Array literals for the common small sizes: they compile to an inline
     minor-heap allocation instead of the [caml_make_vect] C call, which
     shows up in profiles when a solver interns thousands of nodes (three
     bitsets each). *)
  let w =
    match words with
    | 0 -> [||]
    | 1 -> [| 0 |]
    | 2 -> [| 0; 0 |]
    | _ -> Array.make words 0
  in
  { w }

let[@inline] word_of i = i / bits_per_word
let[@inline] bit_of i = i mod bits_per_word

let grow t words =
  let cur = Array.length t.w in
  if words > cur then begin
    let cap = ref (max 1 cur) in
    while !cap < words do
      cap := !cap * 2
    done;
    let nw = Array.make !cap 0 in
    Array.blit t.w 0 nw 0 cur;
    t.w <- nw
  end

let add t i =
  if i < 0 then invalid_arg "Bits.add: negative index";
  let wi = word_of i in
  grow t (wi + 1);
  let m = 1 lsl bit_of i in
  let v = Array.unsafe_get t.w wi in
  if v land m = 0 then begin
    Array.unsafe_set t.w wi (v lor m);
    true
  end
  else false

let mem t i =
  if i < 0 then false
  else
    let wi = word_of i in
    wi < Array.length t.w && Array.unsafe_get t.w wi land (1 lsl bit_of i) <> 0

let remove t i =
  if i >= 0 then begin
    let wi = word_of i in
    if wi < Array.length t.w then
      t.w.(wi) <- t.w.(wi) land lnot (1 lsl bit_of i)
  end

let union_into ~src ~dst =
  let sw = src.w in
  let n = Array.length sw in
  (* Find the highest nonzero source word so we don't grow dst for
     trailing zero capacity. *)
  let hi = ref (n - 1) in
  while !hi >= 0 && Array.unsafe_get sw !hi = 0 do
    decr hi
  done;
  if !hi < 0 then false
  else begin
    grow dst (!hi + 1);
    let dw = dst.w in
    let changed = ref false in
    for i = 0 to !hi do
      let s = Array.unsafe_get sw i in
      if s <> 0 then begin
        let d = Array.unsafe_get dw i in
        let d' = d lor s in
        if d' <> d then begin
          Array.unsafe_set dw i d';
          changed := true
        end
      end
    done;
    !changed
  end

let diff_into ~src ~dst =
  let sw = src.w and dw = dst.w in
  let n = min (Array.length sw) (Array.length dw) in
  for i = 0 to n - 1 do
    let s = Array.unsafe_get sw i in
    if s <> 0 then
      Array.unsafe_set dw i (Array.unsafe_get dw i land lnot s)
  done

(* Kernighan popcount: fine because fresh words are sparse in practice. *)
let[@inline] popcount x =
  let c = ref 0 in
  let v = ref x in
  while !v <> 0 do
    v := !v land (!v - 1);
    incr c
  done;
  !c

let propagate ~src ~pts ~delta =
  let sw = src.w in
  let n = Array.length sw in
  let hi = ref (n - 1) in
  while !hi >= 0 && Array.unsafe_get sw !hi = 0 do
    decr hi
  done;
  if !hi < 0 then 0
  else begin
    grow pts (!hi + 1);
    grow delta (!hi + 1);
    let pw = pts.w and dw = delta.w in
    let count = ref 0 in
    for i = 0 to !hi do
      let s = Array.unsafe_get sw i in
      if s <> 0 then begin
        let p = Array.unsafe_get pw i in
        let fresh = s land lnot p in
        if fresh <> 0 then begin
          Array.unsafe_set pw i (p lor fresh);
          Array.unsafe_set dw i (Array.unsafe_get dw i lor fresh);
          count := !count + popcount fresh
        end
      end
    done;
    !count
  end

let iter f t =
  (* Snapshot: the callback may grow/mutate t. *)
  let w = t.w in
  let n = Array.length w in
  for i = 0 to n - 1 do
    let v0 = Array.unsafe_get w i in
    if v0 <> 0 then begin
      let base = i * bits_per_word in
      (* Scan with LOGICAL shifts: bit 62 of a word is the sign bit of
         the 63-bit OCaml int, so arithmetic comparisons on isolated
         bits would misclassify it. *)
      let v = ref v0 in
      let b = ref 0 in
      while !v <> 0 do
        if !v land 1 = 1 then f (base + !b);
        v := !v lsr 1;
        incr b
      done
    end
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let cardinal t =
  let c = ref 0 in
  Array.iter (fun v -> c := !c + popcount v) t.w;
  !c

let words t = Array.length t.w

let is_empty t = Array.for_all (fun v -> v = 0) t.w

let clear t = Array.fill t.w 0 (Array.length t.w) 0

let trim t =
  let w = t.w in
  let hi = ref (Array.length w - 1) in
  while !hi > 0 && Array.unsafe_get w !hi = 0 do
    decr hi
  done;
  if !hi + 1 < Array.length w then t.w <- Array.sub w 0 (!hi + 1)

let equal a b =
  let aw = a.w and bw = b.w in
  let na = Array.length aw and nb = Array.length bw in
  let n = min na nb in
  let ok = ref true in
  for i = 0 to n - 1 do
    if Array.unsafe_get aw i <> Array.unsafe_get bw i then ok := false
  done;
  if !ok then begin
    for i = n to na - 1 do
      if Array.unsafe_get aw i <> 0 then ok := false
    done;
    for i = n to nb - 1 do
      if Array.unsafe_get bw i <> 0 then ok := false
    done
  end;
  !ok

let copy t = { w = Array.copy t.w }

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])
