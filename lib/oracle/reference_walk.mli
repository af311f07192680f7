(** The seed slice walk, kept as the oracle for the CSR walk
    ({!Slice_core.Slicer}): Hashtbl visited/budget table, stdlib [Queue]
    with duplicate re-enqueues, polymorphic-compare sort, all over the
    {!Slice_core.Sdg.deps}/{!Slice_core.Sdg.uses} list views.  Bumps no
    telemetry.  Used by the parity property tests, the fuzz battery and
    the bench's per-mode parity bits. *)

open Slice_core

val slice : Sdg.t -> seeds:Sdg.node list -> Slicer.mode -> Sdg.node list
val forward_slice : Sdg.t -> seeds:Sdg.node list -> Slicer.mode -> Sdg.node list

val slice_lines :
  Sdg.t -> seeds:Sdg.node list -> Slicer.mode -> Slice_ir.Loc.t list
