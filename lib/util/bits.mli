(** Growable dense bitsets over non-negative ints.

    Backed by a flat [int array] of 63-bit words (OCaml native ints).
    All operations grow the backing store on demand; a fresh set is a
    single small allocation.  The module is the shared data plane for
    the Andersen solver's points-to sets, the SDG heap-wiring dedup
    rows, and the slicer's queued-flag scratch.

    Membership queries on indices beyond the current capacity return
    [false] without allocating; mutating operations grow. *)

type t

val bits_per_word : int
(** 63 on 64-bit OCaml: [Sys.int_size]. *)

val create : ?capacity:int -> unit -> t
(** Fresh empty set; [capacity] is a hint in bits (default small).
    [~capacity:0] holds no words until its first [add]. *)

val add : t -> int -> bool
(** [add t i] sets bit [i]; returns [true] iff it was newly set.
    Grows as needed.  [i] must be [>= 0]. *)

val mem : t -> int -> bool
(** Membership; out-of-capacity indices are absent. *)

val remove : t -> int -> unit
(** Clears bit [i] (no-op when absent). *)

val union_into : src:t -> dst:t -> bool
(** [union_into ~src ~dst] ORs [src] into [dst]; returns [true] iff
    [dst] changed.  Grows [dst] as needed; [src] is untouched. *)

val diff_into : src:t -> dst:t -> unit
(** [diff_into ~src ~dst] removes every element of [src] from [dst]. *)

val propagate : src:t -> pts:t -> delta:t -> int
(** The solver's hot primitive.  Computes [fresh = src \ pts], ORs
    [fresh] into both [pts] and [delta], and returns [popcount fresh]
    (0 when [src] added nothing new).  Equivalent to
    [diff / union_into / union_into / cardinal] fused into one pass
    with no intermediate allocation. *)

val iter : (int -> unit) -> t -> unit
(** Iterate set bits in increasing order.  Takes a snapshot of the
    backing array first, so the callback may mutate [t] (bits added
    during iteration are not visited). *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val cardinal : t -> int
(** Population count (O(words)). *)

val words : t -> int
(** Number of backing words currently allocated (capacity, not
    cardinality) — the set's heap footprint is [8 * words] bytes plus a
    small constant.  For memory gauges. *)

val is_empty : t -> bool

val clear : t -> unit
(** Remove all elements; keeps the backing store (no shrink). *)

val trim : t -> unit
(** Shrink the backing store to the last non-zero word (at most one
    word for an empty set); the elements are unchanged. *)

val equal : t -> t -> bool
(** Set equality irrespective of capacities. *)

val copy : t -> t

val elements : t -> int list
(** Sorted element list (for tests / dumps). *)
