(** The EPOC pipeline (paper Figure 3, right column) as a pass pipeline:
    graph-stage candidates, a config-derived pass list per candidate,
    best-schedule selection.

    Determinism contract: every parallel region is either pure or works
    on forked state absorbed in a fixed order, so results are
    bit-identical for any domain count.  The trace (wall clock) is the
    only non-deterministic part of a result. *)

open Epoc_circuit
open Epoc_pulse
module Metrics = Epoc_obs.Metrics

type stage_stats = {
  input_depth : int;
  zx_depth : int;  (** depth after graph optimization, before reordering *)
  zx_used_graph : bool;
  blocks : int;
  synthesized_blocks : int;
      (** blocks where search beat the direct form *)
  vug_count : int;
  cx_count : int;
  pulse_count : int;
  degraded_blocks : int;
      (** chosen-schedule computations that exhausted their retries and
          play gate pulses instead of an optimized pulse *)
  retries : int;  (** retry attempts burned by the chosen schedule *)
}

type result = {
  name : string;
  request_id : string;
      (** stable identity of this compile request (from the engine, or
          the caller's [?request_id]); the same id prefixes the run's
          logs and keys its flight-recorder entry *)
  latency : float;  (** ns *)
  esp : float;
  compile_time : float;  (** s *)
  schedule : Schedule.t;
  stats : stage_stats;
  library_stats : Library.stats;
  qoc_mode : Config.qoc_mode;
  trace : Trace.t;  (** per-stage wall-clock + counters *)
  metrics : Metrics.t;
      (** per-run registry: solver telemetry, stage counts *)
}

(** A compilation flow: a graph stage producing equivalent candidate
    representations (with trace counters), and a config-derived pass
    list each candidate runs through.  Concrete so the baselines build
    their own flows over the shared driver. *)
type flow = {
  graph :
    Pass.ctx -> Circuit.t -> (Circuit.t * bool) list * (string * int) list;
  passes : Config.t -> Pass.t list;
}

(** The EPOC flow: ZX graph optimization yielding up to two candidates,
    then the config-derived pass list (reorder, partition, synthesis,
    regroup, pulses, schedule). *)
val epoc_flow : flow

(** Compile a circuit through a flow, in a session: graph stage,
    candidate fan-out — each candidate against private trace/metrics
    shards (and, when there are several, a fork of the library), merged
    back in candidate order — and best-schedule selection.  This is the driver every entry point lands
    on; {!Engine.session} is the single carrier of shared and per-run
    state (config, pool, stores, library, trace, metrics, budget).

    When a pulse store is attached the run's new pulses are flushed to
    disk before returning; when a synthesis store is attached the run's
    fresh per-block syntheses (carried on the IR — candidate compilation
    never writes shared state) are recorded and flushed the same way,
    and warm reruns replay them instead of searching.

    Every run records a summary entry (and, past the engine's slow
    threshold, a full Chrome trace) into the engine's flight recorder,
    keyed by the result's [request_id]. *)
val compile_flow : Engine.session -> flow -> Circuit.t -> result

(** Compile a circuit through the full EPOC flow ({!compile_flow} over
    the EPOC flow). *)
val compile : Engine.session -> Circuit.t -> result
