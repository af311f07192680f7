(** Stable LSD radix sort of non-negative ints.

    The one int-sort kernel of the product path: the slicer's result
    emission and line projection, and the SDG's heap-pair, touched-row
    and commit orderings all sort through it.  A sort reads its prefix
    once to find the value range and every digit's histogram, then
    scatters once per 8-bit digit of [max - min], skipping a digit that
    every value shares, so it costs O(len x digits) with no comparison
    and no closure call.  A caller that needs a keyed, stable order
    packs the key above an ascending index and sorts the packed ints.

    The histograms are one resident array of the module, so the kernel
    is not re-entrant; nothing it sorts calls back into it. *)

val sort : tmp:int array -> int array -> int -> unit
(** [sort ~tmp a len] sorts [a.(0) .. a.(len - 1)] ascending in place.
    [tmp] is scratch of at least [len] slots; its contents are
    overwritten.  Raises [Invalid_argument] on a negative value or a
    [tmp] shorter than [len]. *)
