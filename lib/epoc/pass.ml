(* The pass manager: a pipeline is a declarative list of named passes run
   in order over an [Ir.t], every pass wrapped in a [Trace] span that
   records its wall-clock window and stage counters.

   A pass sees the run's [Engine.session] as its [ctx]: the per-run
   values (config, library handle, trace sink, per-run metrics, budget,
   fault spec) next to the owning engine, through which it reaches the
   shared state (hardware memo, engine registry).  Passes must obey the
   pipeline's determinism contract: identical output for any pool size
   (see lib/epoc/pipeline.ml). *)

open Epoc_parallel
open Epoc_pulse
module Metrics = Epoc_obs.Metrics

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

(* The ctx with private trace and metrics shards, for candidate fan-out:
   the caller absorbs both after the parallel region, in candidate
   order. *)
let fork ctx =
  { ctx with trace = Trace.fork ctx.trace; metrics = Metrics.fork ctx.metrics }

module type PASS = sig
  val name : string

  val run : ctx -> Ir.t -> Ir.t

  val counters : ctx -> Ir.t -> (string * int) list
  (** Stage counters reported into the trace, computed on the pass output. *)
end

type t = (module PASS)

let make ?(counters = fun _ _ -> []) name run : t =
  (module struct
    let name = name
    let run = run
    let counters = counters
  end)

let name (p : t) =
  let (module P) = p in
  P.name

(* Run one pass inside a trace span. *)
let run_one ctx (p : t) ir =
  let (module P) = p in
  Trace.span_with ctx.trace P.name (fun () ->
      let ir = P.run ctx ir in
      (ir, P.counters ctx ir))

let run_list ctx (passes : t list) ir =
  List.fold_left (fun ir p -> run_one ctx p ir) ir passes
