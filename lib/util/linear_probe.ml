(* The open-addressing core shared by [Iset] and [Imap]: one flat int
   array of slots, [w] words per slot (the key first, then [w - 1] words
   of payload), linear probing, backward-shift deletion (no tombstones).
   An empty slot's key is -1, so keys are non-negative.  The slot count
   is a power of two. *)

type t = { mutable slots : int array; mutable size : int }

(* A table's shape: its words per slot, and the most quarters of its
   slots that may be full. *)
type layout = { w : int; quarters : int }

(* [Iset] stays at most half full, so probe runs stay short on the
   solver's copy-edge dedup, probed on every edge added.  [Imap] stays
   at most three quarters full: its slots are twice as wide, and the SDG
   index is sized once to the whole graph. *)
let set = { w = 1; quarters = 2 }
let map = { w = 2; quarters = 3 }

let min_slots = 16

let rec pow2_above n k = if k >= n then k else pow2_above n (2 * k)

let[@inline] over (t : t) (l : layout) : bool =
  4 * l.w * t.size > l.quarters * Array.length t.slots

(* A table that holds [capacity] keys without growing. *)
let create (l : layout) (capacity : int) : t =
  let slots =
    pow2_above (((4 * capacity) + l.quarters - 1) / l.quarters) min_slots
  in
  { slots = Array.make (l.w * slots) (-1); size = 0 }

(* Multiplicative mix; the high bits of the product feed the mask.  The
   result is the first word of the key's home slot. *)
let[@inline] home (slots : int array) (w : int) (k : int) : int =
  let h = k * 0x4F1BBCDCBFA53E0B in
  w * ((h lxor (h lsr 29)) land ((Array.length slots / w) - 1))

(* The first word of [k]'s slot, or of the empty slot ending its probe
   run. *)
let[@inline] find (slots : int array) (w : int) (k : int) : int =
  let mask = Array.length slots - 1 in
  let i = ref (home slots w k) in
  while
    let v = Array.unsafe_get slots !i in
    v >= 0 && v <> k
  do
    i := (!i + w) land mask
  done;
  !i

let resize (t : t) (w : int) (nslots : int) : unit =
  let old = t.slots in
  let slots = Array.make (w * nslots) (-1) in
  let i = ref 0 in
  while !i < Array.length old do
    if old.(!i) >= 0 then Array.blit old !i slots (find slots w old.(!i)) w;
    i := !i + w
  done;
  t.slots <- slots

(* Count a key just written into an empty slot (its payload too), and
   double the table once it is [over] full. *)
let added (t : t) (l : layout) : unit =
  t.size <- t.size + 1;
  if over t l then resize t l.w (2 * Array.length t.slots / l.w)

(* Empty slot [i] (holding a key) by backward shift: pull each later
   slot of the probe run into the hole unless its key's home lies
   cyclically in (hole, slot]. *)
let delete (t : t) (w : int) (i : int) : unit =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  t.size <- t.size - 1;
  let hole = ref i and j = ref i in
  let continue = ref true in
  while !continue do
    j := (!j + w) land mask;
    let v = slots.(!j) in
    if v < 0 then continue := false
    else begin
      let h = home slots w v in
      let stays =
        if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
      in
      if not stays then begin
        Array.blit slots !j slots !hole w;
        hole := !j
      end
    end
  done;
  slots.(!hole) <- -1

let reset (t : t) (w : int) : unit =
  t.slots <- Array.make (w * min_slots) (-1);
  t.size <- 0
