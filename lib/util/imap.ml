(* Open-addressing int -> int map: two words per [Linear_probe] slot,
   the key then its value. *)

module P = Linear_probe

type t = P.t

let create ?(capacity = 8) () = P.create P.map capacity

let find t k =
  if k < 0 then -1
  else
    let i = P.find t.P.slots 2 k in
    if t.P.slots.(i) = k then t.P.slots.(i + 1) else -1

let replace t k v =
  if k < 0 || v < 0 then invalid_arg "Imap.replace: negative key or value";
  let slots = t.P.slots in
  let i = P.find slots 2 k in
  slots.(i + 1) <- v;
  if slots.(i) <> k then begin
    slots.(i) <- k;
    P.added t P.map
  end

let remove t k =
  if k >= 0 then begin
    let i = P.find t.P.slots 2 k in
    if t.P.slots.(i) = k then P.delete t 2 i
  end

let iter f t =
  let slots = t.P.slots in
  let i = ref 0 in
  while !i < Array.length slots do
    if slots.(!i) >= 0 then f slots.(!i) slots.(!i + 1);
    i := !i + 2
  done

let reset t = P.reset t 2

let length t = t.P.size

let words t = Array.length t.P.slots

(* Two fields in one non-negative key: 30 bits above 32. *)
let pack hi lo =
  if hi lsr 30 <> 0 || lo lsr 32 <> 0 then
    invalid_arg "Imap.pack: field out of range";
  (hi lsl 32) lor lo

let[@inline] pack_hi k = k lsr 32

let[@inline] pack_lo k = k land 0xFFFF_FFFF
