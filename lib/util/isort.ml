(* Stable LSD radix sort of non-negative ints (see isort.mli).

   8-bit digits of [v - min]: one read pass fills every digit's
   histogram, then each digit whose histogram is not a single full
   bucket scatters the prefix between [a] and [tmp].  Digits are taken
   least significant first and each scatter is stable, so equal values
   keep their order and the result is ascending.  An odd number of
   scatters leaves the result in [tmp], copied back at the end. *)

let digit_bits = 8
let radix = 1 lsl digit_bits
let digit_mask = radix - 1

(* Resident histograms, one row of [radix] counts per digit of a
   non-negative int; every row is all-zero between sorts. *)
let counts =
  Array.make (((Sys.int_size + digit_bits - 1) / digit_bits) * radix) 0

let sort ~(tmp : int array) (a : int array) (len : int) : unit =
  if len < 0 || len > Array.length a || len > Array.length tmp then
    invalid_arg "Isort.sort: length exceeds an array";
  if len > 1 then begin
    let lo = ref max_int and hi = ref 0 in
    for i = 0 to len - 1 do
      let v = Array.unsafe_get a i in
      if v < 0 then invalid_arg "Isort.sort: negative value";
      if v < !lo then lo := v;
      if v > !hi then hi := v
    done;
    let lo = !lo in
    let digits =
      let rec go r d = if r = 0 then d else go (r lsr digit_bits) (d + 1) in
      go (!hi - lo) 0
    in
    for i = 0 to len - 1 do
      let v = Array.unsafe_get a i - lo in
      for d = 0 to digits - 1 do
        let c =
          (d lsl digit_bits) lor ((v lsr (d * digit_bits)) land digit_mask)
        in
        Array.unsafe_set counts c (Array.unsafe_get counts c + 1)
      done
    done;
    let src = ref a and dst = ref tmp in
    for d = 0 to digits - 1 do
      let base = d lsl digit_bits and shift = d * digit_bits in
      let first = ((Array.unsafe_get !src 0 - lo) lsr shift) land digit_mask in
      (* a digit every value shares moves nothing *)
      if Array.unsafe_get counts (base + first) <> len then begin
        let sum = ref 0 in
        for b = base to base + digit_mask do
          let c = Array.unsafe_get counts b in
          Array.unsafe_set counts b !sum;
          sum := !sum + c
        done;
        let s = !src and t = !dst in
        for i = 0 to len - 1 do
          let v = Array.unsafe_get s i in
          let b = base + (((v - lo) lsr shift) land digit_mask) in
          let p = Array.unsafe_get counts b in
          Array.unsafe_set t p v;
          Array.unsafe_set counts b (p + 1)
        done;
        src := t;
        dst := s
      end;
      Array.fill counts base radix 0
    done;
    if !src != a then Array.blit !src 0 a 0 len
  end
