(* Property tests for the shared dense bitset (lib/util/bits.ml), the
   data plane under the points-to solver and the SDG heap wiring.

   The oracle is [Set.Make (Int)]: a random sequence of operations is
   applied to both representations and every observation (mem, cardinal,
   elements, iter order, union/diff/propagate results) must agree.

   Word-edge indices get dedicated coverage: bit 62 of an OCaml native
   int is the SIGN bit of the 63-bit word, so any scan that isolates a
   bit and compares it arithmetically misclassifies indices = 62 (mod
   63).  That exact bug corrupted heap-alias grouping during development;
   the [word edges] tests below lock it down. *)

module Bits = Slice_util.Bits
module IntSet = Set.Make (Int)

(* ---- deterministic observations ---- *)

let elements_via_iter (b : Bits.t) : int list =
  let acc = ref [] in
  Bits.iter (fun i -> acc := i :: !acc) b;
  List.rev !acc

let check_agrees ~(what : string) (b : Bits.t) (s : IntSet.t) : unit =
  let want = IntSet.elements s in
  Alcotest.(check (list int)) (what ^ ": elements") want (Bits.elements b);
  Alcotest.(check (list int))
    (what ^ ": iter ascending")
    want (elements_via_iter b);
  Alcotest.(check int) (what ^ ": cardinal") (IntSet.cardinal s) (Bits.cardinal b);
  Alcotest.(check bool)
    (what ^ ": is_empty")
    (IntSet.is_empty s) (Bits.is_empty b);
  (* Membership probes at, around and far beyond every element. *)
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: mem %d" what i)
        (IntSet.mem i s) (Bits.mem b i))
    (List.concat_map (fun i -> [ i - 1; i; i + 1 ]) want);
  Alcotest.(check bool) (what ^ ": mem far") false (Bits.mem b 100_000);
  Alcotest.(check bool) (what ^ ": mem -1") false (Bits.mem b (-1))

(* ---- the word-edge indices: around bit 62/63 of words 0 and 1 ---- *)

let word_edge_indices =
  let w = Bits.bits_per_word in
  [ 0; 1; w - 2; w - 1; w; w + 1; (2 * w) - 1; 2 * w; (2 * w) + 1 ]

let test_word_edges () =
  (* Each index alone: add, observe, remove. *)
  List.iter
    (fun i ->
      let b = Bits.create ~capacity:1 () in
      Alcotest.(check bool) "fresh add" true (Bits.add b i);
      Alcotest.(check bool) "re-add" false (Bits.add b i);
      check_agrees ~what:(Printf.sprintf "singleton %d" i) b (IntSet.singleton i);
      Bits.remove b i;
      check_agrees ~what:(Printf.sprintf "removed %d" i) b IntSet.empty)
    word_edge_indices;
  (* All edges at once — the sign bit must survive iteration. *)
  let b = Bits.create () in
  List.iter (fun i -> ignore (Bits.add b i)) word_edge_indices;
  check_agrees ~what:"all word edges" b (IntSet.of_list word_edge_indices)

let test_sign_bit_round_trip () =
  (* Index 62 on a 63-bit word sets the native-int sign bit.  It must
     come back out of [iter] as 62, not 0 — the development-time bug. *)
  let i = Bits.bits_per_word - 1 in
  let b = Bits.create () in
  ignore (Bits.add b i);
  Alcotest.(check (list int)) "sign bit via iter" [ i ] (elements_via_iter b);
  Alcotest.(check int) "sign bit cardinal" 1 (Bits.cardinal b);
  (* And together with bit 0 of the same word. *)
  ignore (Bits.add b 0);
  Alcotest.(check (list int)) "0 + sign bit" [ 0; i ] (Bits.elements b)

(* ---- random operation sequences vs the Set oracle ---- *)

type op = Add of int | Remove of int | Clear | Trim

let gen_index : int QCheck2.Gen.t =
  let w = Bits.bits_per_word in
  QCheck2.Gen.(
    oneof
      [ 0 -- 200;                                   (* dense small *)
        oneofl word_edge_indices;                   (* word boundaries *)
        map (fun k -> (k * w) + (w - 1)) (0 -- 5);  (* sign bits *)
        300 -- 2000 ]                               (* forces growth *))

let gen_op : op QCheck2.Gen.t =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun i -> Add i) gen_index);
        (2, map (fun i -> Remove i) gen_index);
        (1, return Clear);
        (1, return Trim) ])

let apply_ops ?(capacity = 4) ops =
  let b = Bits.create ~capacity () in
  let s = ref IntSet.empty in
  List.iter
    (fun op ->
      match op with
      | Add i ->
        let fresh = Bits.add b i in
        Alcotest.(check bool)
          (Printf.sprintf "add %d freshness" i)
          (not (IntSet.mem i !s))
          fresh;
        s := IntSet.add i !s
      | Remove i ->
        Bits.remove b i;
        s := IntSet.remove i !s
      | Clear ->
        Bits.clear b;
        s := IntSet.empty
      | Trim ->
        let before = Bits.words b in
        Bits.trim b;
        Alcotest.(check int) "trim keeps words up to the last element"
          (match IntSet.max_elt_opt !s with
          | Some i -> (i / Bits.bits_per_word) + 1
          | None -> min 1 before)
          (Bits.words b))
    ops;
  (b, !s)

let prop_ops_match_oracle =
  QCheck2.Test.make ~count:200 ~name:"random op sequences match Set oracle"
    QCheck2.Gen.(list_size (0 -- 120) gen_op)
    (fun ops ->
      let b, s = apply_ops ops in
      check_agrees ~what:"after ops" b s;
      let b0, s0 = apply_ops ~capacity:0 ops in
      check_agrees ~what:"from a word-free set" b0 s0;
      true)

(* ---- the open-addressing int set, vs the Set oracle ---- *)

module Iset = Slice_util.Iset

type iop = Iadd of int | Iremove of int | Ireset

(* Keys in a narrow band collide in the probe sequences, so removals
   exercise the backward shift; packed pairs are the solver's keys. *)
let gen_key : int QCheck2.Gen.t =
  QCheck2.Gen.(
    oneof
      [ 0 -- 40;
        map2 (fun s d -> (s lsl 31) lor d) (0 -- 30) (0 -- 30);
        0 -- 1_000_000 ])

let gen_iop : iop QCheck2.Gen.t =
  QCheck2.Gen.(
    frequency
      [ (6, map (fun k -> Iadd k) gen_key);
        (4, map (fun k -> Iremove k) gen_key);
        (1, return Ireset) ])

let prop_iset_matches_oracle =
  QCheck2.Test.make ~count:300 ~name:"iset op sequences match Set oracle"
    QCheck2.Gen.(list_size (0 -- 200) gen_iop)
    (fun ops ->
      let t = Iset.create ~capacity:2 () in
      let s = ref IntSet.empty in
      List.iter
        (function
          | Iadd k ->
            Alcotest.(check bool)
              (Printf.sprintf "add %d freshness" k)
              (not (IntSet.mem k !s))
              (Iset.add t k);
            s := IntSet.add k !s
          | Iremove k ->
            Iset.remove t k;
            s := IntSet.remove k !s
          | Ireset ->
            Iset.reset t;
            s := IntSet.empty)
        ops;
      Alcotest.(check int) "cardinal" (IntSet.cardinal !s) (Iset.cardinal t);
      IntSet.iter
        (fun k ->
          Alcotest.(check bool) (Printf.sprintf "mem %d" k) true (Iset.mem t k))
        !s;
      List.iter
        (function
          | Iadd k | Iremove k ->
            Alcotest.(check bool)
              (Printf.sprintf "mem %d agrees" k)
              (IntSet.mem k !s) (Iset.mem t k)
          | Ireset -> ())
        ops;
      Alcotest.(check bool) "at most half full" true
        (2 * Iset.cardinal t <= Iset.words t);
      true)

module Imap = Slice_util.Imap
module IntMap = Map.Make (Int)

type mop = Madd of int * int | Mremove of int | Mreset

(* Values are drawn small so replacing a key's value is common; keys
   reuse [gen_key]'s colliding band, so removals shift probe runs. *)
let gen_mop : mop QCheck2.Gen.t =
  QCheck2.Gen.(
    frequency
      [ (6, map2 (fun k v -> Madd (k, v)) gen_key (0 -- 5));
        (4, map (fun k -> Mremove k) gen_key);
        (1, return Mreset) ])

let prop_imap_matches_oracle =
  QCheck2.Test.make ~count:300 ~name:"imap op sequences match Map oracle"
    QCheck2.Gen.(list_size (0 -- 200) gen_mop)
    (fun ops ->
      let t = Imap.create ~capacity:2 () in
      let m = ref IntMap.empty in
      let find_oracle k =
        Option.value (IntMap.find_opt k !m) ~default:(-1)
      in
      List.iter
        (function
          | Madd (k, v) ->
            Imap.replace t k v;
            m := IntMap.add k v !m
          | Mremove k ->
            Imap.remove t k;
            m := IntMap.remove k !m;
            Alcotest.(check int) (Printf.sprintf "removed %d" k) (-1)
              (Imap.find t k)
          | Mreset ->
            Imap.reset t;
            m := IntMap.empty)
        ops;
      Alcotest.(check int) "length" (IntMap.cardinal !m) (Imap.length t);
      List.iter
        (function
          | Madd (k, _) | Mremove k ->
            Alcotest.(check int) (Printf.sprintf "find %d" k) (find_oracle k)
              (Imap.find t k)
          | Mreset -> ())
        ops;
      let seen = ref IntMap.empty in
      Imap.iter (fun k v -> seen := IntMap.add k v !seen) t;
      Alcotest.(check bool) "iter lists exactly the bindings" true
        (IntMap.equal Int.equal !seen !m);
      Alcotest.(check bool) "at most three quarters full" true
        (8 * Imap.length t <= 3 * Imap.words t);
      true)

let prop_union_diff_match_oracle =
  QCheck2.Test.make ~count:200 ~name:"union_into/diff_into match Set oracle"
    QCheck2.Gen.(
      pair (list_size (0 -- 60) gen_op) (list_size (0 -- 60) gen_op))
    (fun (ops_a, ops_b) ->
      let a, sa = apply_ops ops_a in
      let b, sb = apply_ops ops_b in
      (* union_into: dst grows to the union; changed iff src \ dst <> {} *)
      let dst = Bits.copy b in
      let changed = Bits.union_into ~src:a ~dst in
      Alcotest.(check bool)
        "union changed flag"
        (not (IntSet.subset sa sb))
        changed;
      check_agrees ~what:"union" dst (IntSet.union sa sb);
      (* src is untouched *)
      check_agrees ~what:"union src intact" a sa;
      (* diff_into: dst := dst \ src *)
      let dst2 = Bits.copy b in
      Bits.diff_into ~src:a ~dst:dst2;
      check_agrees ~what:"diff" dst2 (IntSet.diff sb sa);
      (* equal agrees with the oracle across differing capacities *)
      Alcotest.(check bool)
        "equal vs oracle"
        (IntSet.equal sa sb)
        (Bits.equal a b);
      true)

let prop_propagate_matches_oracle =
  QCheck2.Test.make ~count:200
    ~name:"propagate: fresh = src\\pts, ORed into pts and delta"
    QCheck2.Gen.(
      triple
        (list_size (0 -- 50) gen_op)
        (list_size (0 -- 50) gen_op)
        (list_size (0 -- 50) gen_op))
    (fun (ops_src, ops_pts, ops_delta) ->
      let src, s_src = apply_ops ops_src in
      let pts, s_pts = apply_ops ops_pts in
      let delta, s_delta = apply_ops ops_delta in
      let fresh = IntSet.diff s_src s_pts in
      let n = Bits.propagate ~src ~pts ~delta in
      Alcotest.(check int) "propagate count" (IntSet.cardinal fresh) n;
      check_agrees ~what:"propagate pts" pts (IntSet.union s_pts s_src);
      check_agrees ~what:"propagate delta" delta (IntSet.union s_delta fresh);
      check_agrees ~what:"propagate src intact" src s_src;
      true)

let prop_copy_is_independent =
  QCheck2.Test.make ~count:100 ~name:"copy is deep"
    QCheck2.Gen.(list_size (0 -- 60) gen_op)
    (fun ops ->
      let b, s = apply_ops ops in
      let c = Bits.copy b in
      ignore (Bits.add c 4242);
      Bits.remove c (match IntSet.min_elt_opt s with Some i -> i | None -> 0);
      check_agrees ~what:"original after copy mutation" b s;
      true)

let test_iter_snapshot_safe () =
  (* The callback may grow the set; iter must only see the snapshot. *)
  let b = Bits.create ~capacity:1 () in
  ignore (Bits.add b 0);
  ignore (Bits.add b 62);
  let seen = ref [] in
  Bits.iter
    (fun i ->
      ignore (Bits.add b (i + 1000));
      seen := i :: !seen)
    b;
  Alcotest.(check (list int)) "snapshot iter" [ 0; 62 ] (List.rev !seen);
  Alcotest.(check bool) "growth landed" true (Bits.mem b 1062)

(* ---- Isort: the int-sort kernel ---- *)

module Isort = Slice_util.Isort

(* [Isort.sort] of a prefix of [a] against [Array.stable_sort compare]
   of the same prefix: the tail must stay as it was. *)
let check_isort ctx (a : int array) (len : int) =
  let want = Array.copy a in
  let prefix = Array.sub want 0 len in
  Array.stable_sort compare prefix;
  Array.blit prefix 0 want 0 len;
  let got = Array.copy a in
  Isort.sort ~tmp:(Array.make len 0) got len;
  if got <> want then
    Alcotest.failf "%s: Isort.sort differs from Array.stable_sort" ctx

let test_isort_matches_stable_sort () =
  let rng = Random.State.make [| 31 |] in
  (* up to 61 random bits: bit 62 is the sign bit *)
  let wide () =
    (Random.State.bits rng lsl 31) lor Random.State.bits rng
  in
  check_isort "length 0" [||] 0;
  check_isort "length 1" [| 7 |] 1;
  check_isort "length 1, max_int" [| max_int |] 1;
  check_isort "0 and max_int" [| max_int; 0; max_int; 0 |] 4;
  List.iter
    (fun n ->
      let ctx what = Printf.sprintf "%s, length %d" what n in
      check_isort (ctx "duplicates")
        (Array.init n (fun _ -> Random.State.int rng (max 1 (n / 4))))
        n;
      check_isort (ctx "near max_int")
        (Array.init n (fun _ -> max_int - Random.State.int rng 1000))
        n;
      check_isort (ctx "every digit")
        (Array.init n (fun i -> if i mod 7 = 0 then max_int else wide ()))
        n;
      check_isort (ctx "one value") (Array.make n 42) n;
      check_isort (ctx "prefix")
        (Array.init n (fun _ -> Random.State.int rng 100_000))
        (n / 2))
    [ 2; 3; 17; 255; 256; 257; 1000; 5000 ];
  (* keyed stability, as the SDG's row commit uses it: keys packed above
     ascending indices sort like a stable sort of the indices by key *)
  let n = 3000 in
  let keys = Array.init n (fun _ -> Random.State.int rng 50) in
  let packed = Array.init n (fun i -> (keys.(i) lsl 12) lor i) in
  Isort.sort ~tmp:(Array.make n 0) packed n;
  let want = Array.init n Fun.id in
  Array.stable_sort (fun a b -> compare keys.(a) keys.(b)) want;
  Alcotest.(check (array int)) "keyed sort is stable" want
    (Array.map (fun v -> v land 4095) packed);
  Alcotest.check_raises "negative values are refused"
    (Invalid_argument "Isort.sort: negative value") (fun () ->
      Isort.sort ~tmp:(Array.make 2 0) [| 1; -1 |] 2)

let suite =
  [ Alcotest.test_case "word edges 62/63/64/125/126/127" `Quick test_word_edges;
    Alcotest.test_case "sign bit round trip" `Quick test_sign_bit_round_trip;
    Alcotest.test_case "iter snapshot safe" `Quick test_iter_snapshot_safe;
    QCheck_alcotest.to_alcotest prop_ops_match_oracle;
    QCheck_alcotest.to_alcotest prop_iset_matches_oracle;
    QCheck_alcotest.to_alcotest prop_imap_matches_oracle;
    QCheck_alcotest.to_alcotest prop_union_diff_match_oracle;
    QCheck_alcotest.to_alcotest prop_propagate_matches_oracle;
    QCheck_alcotest.to_alcotest prop_copy_is_independent;
    Alcotest.test_case "isort equals Array.stable_sort" `Quick
      test_isort_matches_stable_sort ]
