(** Open-addressing hash map from non-negative ints to non-negative
    ints.

    The same table as {!Iset} with a value beside each key: one flat
    [int array] of (key, value) slot pairs, linear probing and
    backward-shift deletion (no tombstones), kept at most three quarters
    full.  A
    lookup or an update of a present key allocates nothing.  The SDG
    maps packed node descriptors to node ids in one, and the points-to
    solver its packed node, call-site and context keys. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty map; [capacity] is a hint in bindings (default small). *)

val find : t -> int -> int
(** The value bound to a key, [-1] when it has none. *)

val replace : t -> int -> int -> unit
(** [replace t k v] binds [k] to [v], replacing any earlier binding.
    Raises [Invalid_argument] when [k] or [v] is negative. *)

val remove : t -> int -> unit
(** Removes [k]'s binding (no-op when absent). *)

val iter : (int -> int -> unit) -> t -> unit
(** Every binding, in table order; [f] must not add or remove keys. *)

val reset : t -> unit
(** Empties the map and releases its table down to the minimum size. *)

val length : t -> int

val words : t -> int
(** Words of the backing table: two per slot (capacity, not length). *)

(** {2 Packed keys} *)

val pack : int -> int -> int
(** [pack hi lo] is one non-negative key holding both fields: [lo] in
    the low 32 bits, [hi] in the 30 above.  Raises [Invalid_argument]
    unless [0 <= hi < 2^30] and [0 <= lo < 2^32].  The keys packed from
    a program's statement ids, method contexts, objects and interned
    names stay inside these ranges: each of those indexes an array the
    analysis holds in memory. *)

val pack_hi : int -> int
val pack_lo : int -> int
(** The fields of a packed key. *)
