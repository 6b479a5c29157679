(** The pass manager: a pipeline is a declarative list of named passes
    run in order over an {!Ir.t}, every pass wrapped in a {!Trace} span
    that records its wall-clock window and stage counters.

    A pass must obey the pipeline's determinism contract: identical
    output for any pool size (see lib/epoc/pipeline.ml). *)

open Epoc_parallel
open Epoc_pulse
module Metrics = Epoc_obs.Metrics

(** What a pass sees: the run's {!Engine.session} itself (its fields
    are documented there).  Shared state — the hardware memo and the
    engine registry — is reached through [ctx.engine]. *)
type ctx = Engine.session = {
  engine : Engine.t;
  config : Config.t;
  name : string;
  request_id : string;
  library : Library.t;
  pool : Pool.t;
  cache : Epoc_cache.Store.t option;
  synth : Epoc_cache.Synth_store.t option;
  trace : Trace.t;
  metrics : Metrics.t;
  budget : Epoc_budget.t;
  fault : Epoc_fault.spec option;
  explicit_library : Library.t option;
}

(** The ctx with private trace and metrics shards, for candidate
    fan-out: the caller absorbs both after the parallel region, in
    candidate order. *)
val fork : ctx -> ctx

module type PASS = sig
  val name : string
  val run : ctx -> Ir.t -> Ir.t

  val counters : ctx -> Ir.t -> (string * int) list
  (** Stage counters reported into the trace, computed on the pass
      output. *)
end

type t = (module PASS)

(** Build a pass from a name and a transform; [counters] defaults to
    none. *)
val make :
  ?counters:(ctx -> Ir.t -> (string * int) list) ->
  string ->
  (ctx -> Ir.t -> Ir.t) ->
  t

val name : t -> string

(** Run one pass inside a trace span. *)
val run_one : ctx -> t -> Ir.t -> Ir.t

val run_list : ctx -> t list -> Ir.t -> Ir.t
