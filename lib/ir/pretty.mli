(** Human-readable one-line rendering of IR statements.  Used by the CLI
    and the SDG to display slices. *)

(** One-line rendering of statement [site] of method [m], with source
    location — how slices are reported to the user. *)
val site_to_string : Instr.meth -> Program.site -> string
