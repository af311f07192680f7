(** Pipeline telemetry: hierarchical trace spans, one process
    counter/gauge/histogram registry, and sinks (pretty text report,
    hand-rolled JSON, Chrome [trace_event] export).

    Design constraints:
    - a counter handle is its cell, so a bump is an [incr] — safe to
      leave in hot loops;
    - the default sink is a no-op: nothing is emitted unless a driver
      explicitly asks for a report / JSON / trace;
    - span collection is opt-out-able via {!set_enabled} so scripted use
      pays nothing beyond the counter bumps. *)

(* ------------------------------------------------------------------ *)
(* Enable / disable                                                    *)
(* ------------------------------------------------------------------ *)

(** Whether spans (and their wall-clock / allocation accounting) are being
    recorded.  Counters always count.  Default: enabled. *)
val enabled : unit -> bool

val set_enabled : bool -> unit

(** Reset every counter/gauge/histogram to zero and drop the recorded
    spans.  Registered metric handles stay
    valid (values are zeroed in place, and handles are interned by name),
    so module-level [counter] bindings survive a reset. *)
val reset : unit -> unit

(** Drop the COMPLETED span trees, keeping all metric values and any
    spans still open.  Long-lived processes (the serve daemon) call this
    after shipping a per-query snapshot: completed spans otherwise
    accumulate in the registry without bound, an unbounded leak in a
    process that never exits. *)
val reset_spans : unit -> unit

(* ------------------------------------------------------------------ *)
(* Counters, gauges, histograms                                        *)
(* ------------------------------------------------------------------ *)

(** A metric handle: the registry's cell for a name, interned
    ([counter "x" == counter "x"]). *)
type counter

(** Intern (or find) the counter registered under [name]. *)
val counter : string -> counter

val bump : counter -> unit
val add : counter -> int -> unit

(** The raw cell for [c], for hot loops: resolve once, then [incr] the
    ref directly.  The cell is stable for the life of the process (both
    {!scoped} and {!snapshot} read through the same ref). *)
val counter_cell : counter -> int ref

(** Current value of a registered counter, 0 if never registered. *)
val counter_value : string -> int

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

(** Record [v] only if it exceeds the gauge's current value (peaks). *)
val max_gauge : gauge -> float -> unit

val gauge_value : string -> float

type histogram

val histogram : string -> histogram
val observe : histogram -> float -> unit

(** (count, sum, min, max); min/max are 0 when the histogram is
    empty. *)
val histogram_stats : histogram -> int * float * float * float

(** {2 Percentile estimation}

    Every histogram additionally keeps a fixed array of log-scaled
    bucket counts ({!hist_buckets} buckets: one underflow bucket for
    values [<= 2^-30] including 0 and negatives, then [hist_sub = 4]
    sub-buckets per octave up to [2^30], then one overflow bucket).
    Quantile estimates are the representative (upper-bound) value of the
    first bucket where the cumulative count reaches the target rank, so
    they are exact to within a factor of [2^(1/4) ~ 19%].  Buckets share
    one global geometry, so they merge element-wise across {!scoped}
    restores. *)

val hist_buckets : int

(** Bucket index a value lands in (total order; exposed for tests). *)
val bucket_of_value : float -> int

(** Representative value reported for a bucket (exposed for tests). *)
val bucket_value : int -> float

(** [percentile ~count ~buckets q] estimates the q-quantile (q clamped
    to [0,1]) of [count] observations distributed over [buckets]; 0 when
    empty. *)
val percentile : count:int -> buckets:int array -> float -> float

(** q-quantile estimate of [h]'s buckets. *)
val histogram_percentile : histogram -> float -> float

(* ------------------------------------------------------------------ *)
(* Trace spans                                                         *)
(* ------------------------------------------------------------------ *)

(** [span name f] runs [f ()] inside a span named [name], recording wall
    time and minor- and major-heap allocation.  Spans nest: a span opened while
    another is running becomes its child.  When disabled this is exactly
    [f ()].  Exception-safe: the span is closed even if [f] raises.
    [?args] attaches string key/value annotations to the span (e.g. the
    query's seed and mode), surfaced by the JSON and Chrome-trace
    sinks. *)
val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Append a key/value annotation to the innermost OPEN span (no-op when
    disabled or outside any span) — for facts only known mid-span, like
    the final slice size. *)
val add_span_arg : string -> string -> unit

(** Words allocated by this domain so far: minor ([Gc.minor_words],
    exact to the current allocation) plus major minus promoted (both
    from [Gc.counters]), so each block counts once wherever it was
    allocated.  Call [Gc.minor ()] before taking the first reading, or
    promotions of blocks allocated earlier are subtracted from the
    difference. *)
val allocated_words : unit -> float

type span_tree = {
  sp_name : string;
  sp_start : float;           (** seconds since process telemetry epoch *)
  sp_wall : float;            (** wall-clock duration, seconds *)
  sp_minor_words : float;     (** minor-heap words allocated inside *)
  sp_major_words : float;
      (** major-heap words allocated inside ([Gc.counters]): promotions
          plus blocks too large for the minor heap, which go there
          directly and never show in [sp_minor_words] *)
  sp_args : (string * string) list;  (** annotations, in addition order *)
  sp_children : span_tree list;
}

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  snap_counters : (string * int) list;                       (** sorted *)
  snap_gauges : (string * float) list;                       (** sorted *)
  snap_hists : (string * (int * float * float * float)) list;
  snap_hist_buckets : (string * int array) list;
      (** per-histogram log-bucket counts, same keys as [snap_hists] *)
  snap_spans : span_tree list;    (** completed top-level spans, in order *)
}

(** Capture the current state of the registry and its completed
    spans.  Every metric interned so far appears, at zero until
    bumped. *)
val snapshot : unit -> snapshot

(** q-quantile estimate for the named histogram of a snapshot; 0 when
    the histogram is absent or empty. *)
val snapshot_percentile : snapshot -> string -> float -> float

(** [scoped f] isolates what [f] records: the registry is saved and
    zeroed, [f] runs, and the returned snapshot covers
    exactly [f]'s own counters/gauges/histograms/spans.  The saved state
    is then merged back (counters summed, peak gauges maxed, histograms
    combined, spans appended — inside an open span they become its
    children), so cumulative telemetry is preserved.  This is how
    per-task BENCH entries stay isolated from each other.
    Exception-safe. *)
val scoped : (unit -> 'a) -> 'a * snapshot

(** Total wall time per span name, aggregated over the whole span forest
    (a span appearing several times contributes the sum).  Sorted by
    name.  This is the "per-phase wall times" table of BENCH_results. *)
val span_totals : snapshot -> (string * float) list

(* ------------------------------------------------------------------ *)
(* JSON (hand-rolled; no external dependency)                          *)
(* ------------------------------------------------------------------ *)

module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  (** Parse a JSON text.  Numbers without [.], [e] or [E] become [Int]. *)
  val of_string : string -> (t, string) result

  (** Object member lookup ([None] on missing key or non-object). *)
  val member : string -> t -> t option
end

(* ------------------------------------------------------------------ *)
(* Sinks                                                               *)
(* ------------------------------------------------------------------ *)

(** Structured encoding of a snapshot:
    [{"counters": {...}, "gauges": {...}, "histograms": {...},
      "spans": [{"name", "start_s", "wall_s", "minor_words", "major_words",
                 "children"}],
      "phase_wall_s": {...}}]. *)
val snapshot_to_json : snapshot -> Json.t

(** Human-readable report: indented span tree with timings and
    allocation, then counters / gauges / histograms. *)
val report : snapshot -> string

(** Chrome [trace_event] JSON (load in chrome://tracing or Perfetto):
    an object with a ["traceEvents"] array of complete ("ph":"X")
    events. *)
val chrome_trace : snapshot -> Json.t
