(* Open-addressing int hash set: linear probing, backward-shift deletion,
   load factor at most 1/2.  Empty slots hold -1. *)

type t = { mutable keys : int array; mutable size : int }

let min_slots = 16

let rec pow2_above n k = if k >= n then k else pow2_above n (2 * k)

let create ?(capacity = 8) () =
  { keys = Array.make (pow2_above (2 * capacity) min_slots) (-1); size = 0 }

(* Multiplicative mix; the high bits of the product feed the mask. *)
let[@inline] home keys k =
  let h = k * 0x4F1BBCDCBFA53E0B in
  (h lxor (h lsr 29)) land (Array.length keys - 1)

let insert_fresh keys k =
  let mask = Array.length keys - 1 in
  let i = ref (home keys k) in
  while Array.unsafe_get keys !i >= 0 do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set keys !i k

let resize t slots =
  let old = t.keys in
  let keys = Array.make slots (-1) in
  Array.iter (fun k -> if k >= 0 then insert_fresh keys k) old;
  t.keys <- keys

let add t k =
  if k < 0 then invalid_arg "Iset.add: negative key";
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let i = ref (home keys k) in
  while
    let v = Array.unsafe_get keys !i in
    v >= 0 && v <> k
  do
    i := (!i + 1) land mask
  done;
  if Array.unsafe_get keys !i = k then false
  else begin
    Array.unsafe_set keys !i k;
    t.size <- t.size + 1;
    if 2 * t.size > Array.length keys then resize t (2 * Array.length keys);
    true
  end

let mem t k =
  k >= 0
  &&
  let keys = t.keys in
  let mask = Array.length keys - 1 in
  let rec probe i =
    let v = Array.unsafe_get keys i in
    v = k || (v >= 0 && probe ((i + 1) land mask))
  in
  probe (home keys k)

let remove t k =
  if k >= 0 then begin
    let keys = t.keys in
    let mask = Array.length keys - 1 in
    let i = ref (home keys k) in
    while
      let v = Array.unsafe_get keys !i in
      v >= 0 && v <> k
    do
      i := (!i + 1) land mask
    done;
    if keys.(!i) = k then begin
      t.size <- t.size - 1;
      (* Backward shift: pull each later key of the probe run into the
         hole unless its home lies cyclically in (hole, slot]. *)
      let hole = ref !i and j = ref !i in
      let continue = ref true in
      while !continue do
        j := (!j + 1) land mask;
        let v = keys.(!j) in
        if v < 0 then continue := false
        else begin
          let h = home keys v in
          let stays =
            if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
          in
          if not stays then begin
            keys.(!hole) <- v;
            hole := !j
          end
        end
      done;
      keys.(!hole) <- -1
    end
  end

let reset t =
  t.keys <- Array.make min_slots (-1);
  t.size <- 0

let cardinal t = t.size

let words t = Array.length t.keys
