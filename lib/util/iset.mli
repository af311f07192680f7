(** Open-addressing hash set of non-negative ints.

    One flat [int array] with linear probing and backward-shift
    deletion (no tombstones), kept at most half full, so its footprint
    is [8 * words] bytes plus a small constant and grows with the
    number of elements, not with their range.  The points-to solver
    deduplicates its copy edges in one such set of packed
    (source, destination) pairs. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty set; [capacity] is a hint in elements (default small). *)

val add : t -> int -> bool
(** [add t k] inserts [k]; returns [true] iff it was absent.  [k] must
    be [>= 0]. *)

val mem : t -> int -> bool

val remove : t -> int -> unit
(** Removes [k] (no-op when absent). *)

val reset : t -> unit
(** Empties the set and releases its table down to the minimum size. *)

val cardinal : t -> int

val words : t -> int
(** Slots of the backing table (capacity, not cardinality). *)
