(** Per-stage tracing for the pass pipeline.

    A trace is a sink of timed spans: every pass records its wall-clock
    window and a list of integer stage counters.  Spans nest, tracked by
    an explicit depth.  Candidate compilation traces into private child
    sinks that the driver {!absorb}s after the fan-out, in candidate
    order, under ["candN/"] name prefixes.

    Trace contents are wall-clock measurements and therefore {e not} part
    of the pipeline's determinism guarantee; everything else in a result
    is. *)

(** GC activity within a span, captured only when the sink was created
    with [~gc:true]. *)
type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

type event = {
  name : string;
  depth : int;  (** nesting depth; 0 = top-level stage *)
  start_s : float;  (** absolute, [Unix.gettimeofday] *)
  stop_s : float;
  counters : (string * int) list;
  gc : gc_delta option;  (** only when the sink captures GC stats *)
}

type t

(** A fresh sink.  [~gc:true] snapshots GC stats around every span. *)
val create : ?gc:bool -> unit -> t

(** A fresh child sink with the parent's capture settings, for fan-outs
    that {!absorb} per-worker traces afterwards. *)
val fork : t -> t

(** Run [f] as a named span; [f] returns the value plus the counters to
    attach.  The span is recorded even when [f] raises. *)
val span_with : t -> string -> (unit -> 'a * (string * int) list) -> 'a

(** {!span_with} without counters. *)
val span : t -> string -> (unit -> 'a) -> 'a

(** Splice a child sink's spans under the caller's current nesting level,
    prefixing their names.  Call inside the span that covered the child's
    execution so depths line up. *)
val absorb : t -> prefix:string -> t -> unit

(** Events in chronological start order (parents before children). *)
val events : t -> event list

val duration : event -> float

(** Sum of top-level span durations: the traced share of total wall
    time. *)
val top_level_s : t -> float

(** One aggregated row per stage (["candN/"] prefixes stripped). *)
type agg_row = {
  agg_name : string;
  agg_calls : int;
  agg_wall_s : float;
  agg_gc : gc_delta option;  (** summed over calls, when captured *)
}

(** Per-stage totals, in first-occurrence order. *)
val aggregate : t -> agg_row list

(** Human-readable indented span tree, durations in milliseconds. *)
val pp : Format.formatter -> t -> unit

(** {1 JSON}

    Every trace artifact is built as an {!Epoc_obs.Json.t} from the
    encoders below, so a GC delta or a stage breakdown has one encoding
    wherever it appears. *)

(** Stage breakdown, row form: one [{"stage", "calls", "wall_s"}] object
    per {!aggregate} row, plus ["gc"] (the summed delta) only when the
    sink captured GC stats.  The [stages] array of [epoc report --json]
    and of the bench file. *)
val stages_json : t -> Epoc_obs.Json.t

(** Stage breakdown, name form: [{stage: wall_s, ...}] in {!aggregate}
    order.  The serve response's [stages] and the flight recorder's
    [stages_s]. *)
val stage_walls_json : t -> Epoc_obs.Json.t

(** Machine-readable form, indented: [top_level_s] and one event object
    per span ([name], [depth], [start_s] relative to the first span,
    [wall_s], [counters] in recorded order, and [gc] when captured).  An
    empty trace still emits the full shape with an explicit empty event
    list. *)
val to_json : t -> string

(** The span tree as Chrome trace-event JSON (chrome://tracing,
    Perfetto): driver spans on thread 0, each candidate on its own
    thread; counters and the GC delta's fields are the event args. *)
val to_chrome_json : t -> string
