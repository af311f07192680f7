(* Open-addressing int hash set: one word per [Linear_probe] slot. *)

module P = Linear_probe

type t = P.t

let create ?(capacity = 8) () = P.create P.set capacity

let add t k =
  if k < 0 then invalid_arg "Iset.add: negative key";
  let i = P.find t.P.slots 1 k in
  t.P.slots.(i) <> k
  && begin
    t.P.slots.(i) <- k;
    P.added t P.set;
    true
  end

let mem t k = k >= 0 && t.P.slots.(P.find t.P.slots 1 k) = k

let remove t k =
  if k >= 0 then begin
    let i = P.find t.P.slots 1 k in
    if t.P.slots.(i) = k then P.delete t 1 i
  end

let reset t = P.reset t 1

let cardinal t = t.P.size

let words t = Array.length t.P.slots
