(** Method-granular source deltas: classify an edit between two versions
    of a program and re-lower only the changed method bodies.

    The classifier is structural and deliberately conservative: a
    brace/string/comment-aware scanner segments each file into classes,
    members and free functions, and compares "skeletons" (the source
    with method-body interiors blanked, line counts preserved).  Equal
    skeletons prove every difference is inside some method body AND
    that all source locations outside bodies are unchanged — the
    precondition for patching analyses in place.

    Everything else degrades to [Structural], where the engine reloads
    from the new sources: signature, class and field edits, reordered
    methods, and whole methods added or removed.  A save that adds or
    drops a method is rare next to body edits, and its reload is exact
    by construction.

    An edit whose changed window lies inside one method body and holds
    no brace, quote, comment, escape or line-break byte is classified
    from the window alone: the new file's segmentation is the old one's
    with shifted offsets, and no byte of the file is scanned. *)

open Slice_ir

type changed_method = {
  cm_file : string;
  cm_class : string option;  (** [None] for a free function *)
  cm_name : string;  (** textual name (constructors: the class name) *)
  cm_mini : string;
      (** synthetic compilation unit holding ONLY this method's lines
          (members inside a one-line class wrapper) *)
  cm_line : int;
      (** file line of [cm_mini]'s first byte: lexed from there, every
          token is at its original line/column *)
}

type t =
  | Same  (** byte-identical sources *)
  | Bodies of changed_method list
      (** only these method bodies changed *)
  | Structural  (** full rebuild required *)

(** Classify the edit between two [(file, src)] unit lists.  Unit lists
    that differ in length, file names or order are [Structural].  Runs in
    a [delta.diff] span whose [path] argument is [window] when no file
    needed the full scan and [scan] otherwise; the counter
    [delta.bytes_scanned] counts the bytes the brace scanner reads. *)
val diff :
  old_sources:(string * string) list ->
  new_sources:(string * string) list ->
  t

(** {!diff} by the full scan of every changed file, with no window rule
    and no memoized segmentation.  Exposed for tests: [diff] must agree
    with it. *)
val diff_scan :
  old_sources:(string * string) list ->
  new_sources:(string * string) list ->
  t

(** The source with method-body interiors blanked (line counts kept).
    Exposed for tests.  Raises on unbalanced input. *)
val skeleton : string -> string

exception Delta_error of string

(** A parsed changed method, identified but not yet applied. *)
type resolved = {
  rv_mq : Instr.method_qname;
  rv_cls : Types.class_name;
  rv_md : Ast.method_decl;
}

(** Parse a changed method's mini unit and locate the program method it
    denotes WITHOUT mutating the program — callers snapshot the old
    body's constraint summary before committing to {!relower_resolved}.
    Raises {!Delta_error} / parser errors on malformed input. *)
val resolve : Program.t -> changed_method -> resolved

(** Re-lower a resolved method into the existing program in place: the
    method shell keeps its identity, the body and variable table are
    rebuilt with fresh statement ids, SSA is re-run, and the entry
    method's [$clinit] prepend is replayed. *)
val relower_resolved : Program.t -> resolved -> unit
