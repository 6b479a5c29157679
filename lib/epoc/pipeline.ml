(* The EPOC pipeline (paper Figure 3, right column), as a pass pipeline:

     input circuit
       -> ZX graph optimization        (Epoc_zx.Zx.optimize, candidates)
       -> per candidate, the declarative pass list of [candidate_passes]:
            reorder | partition | synthesis | reorder-vug
            | regroup | pulses | schedule            (lib/epoc/stages.ml)
       -> best candidate schedule wins

   Soundness: every stage output is unitarily equivalent to its input (ZX
   verifies or falls back; synthesis verifies or falls back; partitioning
   preserves per-qubit gate order), so the generated pulse program
   implements the input circuit by construction.

   Parallelism: the expensive stages fan out over an [Epoc_parallel.Pool]
   — per-block synthesis, per-regrouping schedule construction, the
   numeric half of pulse generation, and the candidate
   representations.  Every parallel region is either pure (fixed RNG
   seeds, no shared mutable state) or works on a forked library that is
   absorbed in a fixed order, and all fan-outs preserve item order, so
   results are bit-identical for any domain count.

   Tracing: every pass runs inside a [Trace] span with stage counters;
   candidate compilation traces into per-candidate child sinks absorbed
   in candidate order under "candN/" prefixes.  The trace rides on the
   result and is the only non-deterministic part of it (wall-clock). *)

open Epoc_circuit
open Epoc_pulse
open Epoc_parallel
module Metrics = Epoc_obs.Metrics
module Store = Epoc_cache.Store
module Synth_store = Epoc_cache.Synth_store

type stage_stats = {
  input_depth : int;
  zx_depth : int; (* depth after graph optimization, before reordering *)
  zx_used_graph : bool;
  blocks : int;
  synthesized_blocks : int; (* blocks where search beat the direct form *)
  vug_count : int;
  cx_count : int;
  pulse_count : int;
  degraded_blocks : int; (* chosen-schedule computations degraded to gate pulses *)
  retries : int; (* retry attempts burned by the chosen schedule *)
}

type result = {
  name : string;
  request_id : string; (* stable identity of this compile request *)
  latency : float; (* ns *)
  esp : float;
  compile_time : float; (* s *)
  schedule : Schedule.t;
  stats : stage_stats;
  library_stats : Library.stats;
  qoc_mode : Config.qoc_mode;
  trace : Trace.t; (* per-stage wall-clock + counters *)
  metrics : Metrics.t; (* per-run registry: solver telemetry, stage counts *)
}

(* A compilation flow: a graph stage producing equivalent candidate
   representations (with trace counters), and a config-derived pass list
   each candidate runs through.  [run] instantiates it for EPOC; the
   baselines in baselines.ml reuse the same driver with their own pass
   lists. *)
type flow = {
  graph :
    Pass.ctx -> Circuit.t -> (Circuit.t * bool) list * (string * int) list;
  passes : Config.t -> Pass.t list;
}

(* The EPOC per-candidate pipeline, declaratively derived from the
   config: which passes run (reorder, regroup sweep vs trivial grouping)
   is decided here, how each runs is decided inside the pass. *)
let candidate_passes (config : Config.t) : Pass.t list =
  (if config.Config.commutation_reorder then [ Stages.reorder_gates ] else [])
  @ [ Stages.partition; Stages.synthesis ]
  @ (if config.Config.commutation_reorder then [ Stages.reorder_vugs ] else [])
  @ [
      (if config.Config.regroup then Stages.regroup_sweep
       else Stages.regroup_trivial);
      Stages.pulses;
      Stages.schedule;
    ]

(* Graph-based depth optimization: the stage yields up to two equivalent
   representations (ZX-extracted and peephole-optimized) — the
   "continuous optimization through equivalent representations" of the
   paper. *)
let epoc_graph (ctx : Pass.ctx) (circuit : Circuit.t) =
  if ctx.Pass.config.Config.use_zx then begin
    let graph = Epoc_zx.Zx.optimize circuit in
    let peephole =
      Epoc_zx.Zx.optimize ~strategy:Epoc_zx.Zx.Peephole_only circuit
    in
    let candidates =
      if graph.Epoc_zx.Zx.used = Epoc_zx.Zx.Graph then
        [ (graph.Epoc_zx.Zx.circuit, true); (peephole.Epoc_zx.Zx.circuit, false) ]
      else [ (peephole.Epoc_zx.Zx.circuit, false) ]
    in
    (candidates, ("candidates", List.length candidates) :: Epoc_zx.Zx.counters graph)
  end
  else ([ (circuit, false) ], [ ("candidates", 1) ])

let epoc_flow = { graph = epoc_graph; passes = candidate_passes }

let stats_of_ir (ir : Ir.t) =
  {
    input_depth = ir.Ir.input_depth;
    zx_depth = ir.Ir.opt_depth;
    zx_used_graph = ir.Ir.zx_used_graph;
    blocks = List.length ir.Ir.blocks;
    synthesized_blocks = Ir.synthesized_blocks ir;
    vug_count = Circuit.single_qubit_count ir.Ir.vug_circuit;
    cx_count = Circuit.count_gate "cx" ir.Ir.vug_circuit;
    pulse_count = Schedule.instruction_count (Ir.schedule_exn ir);
    degraded_blocks = ir.Ir.degraded_blocks;
    retries = ir.Ir.pulse_retries;
  }

(* Compile one candidate representation down to a schedule by running the
   flow's pass list over a fresh IR, tracing into [ctx]'s sink. *)
let compile_candidate (ctx : Pass.ctx) passes ir0 ((optimized : Circuit.t), zx_used_graph)
    =
  let ir = Ir.with_candidate ir0 optimized ~zx_used_graph in
  Pass.run_list ctx passes ir

(* Compile [circuit] through a flow, in the session [ctx]: graph stage,
   candidate fan-out — each candidate against private trace and metrics
   shards (and, when there are several, a fork of the library), merged
   back in candidate order — and best-schedule selection.

   This is the driver every entry point lands on.  Shared state (pool,
   persistent stores, hardware memo, engine registry) is read through
   the session; per-run state (config, library handle, trace, metrics,
   budget, fault spec) is the session's own. *)
let compile_flow (ctx : Pass.ctx) flow (circuit : Circuit.t) =
  let t0 = Unix.gettimeofday () in
  let { Pass.config; name; library; trace; metrics; _ } = ctx in
  let candidates =
    Trace.span_with trace "graph" (fun () -> flow.graph ctx circuit)
  in
  let passes = flow.passes config in
  let ir0 = Ir.of_circuit ~name circuit in
  let compiled =
    Trace.span_with trace "candidates" (fun () ->
        (* a lone candidate compiles against the session library on the
           calling domain; several get a library fork each, so candidate
           compilation is free of cross-candidate ordering *)
        let several = List.length candidates > 1 in
        let forked =
          List.map
            (fun cand ->
              let c = Pass.fork ctx in
              ( cand,
                if several then { c with library = Library.fork library }
                else c ))
            candidates
        in
        let irs =
          (if several then Pool.map ctx.Pass.pool else List.map)
            (fun (cand, c) -> compile_candidate c passes ir0 cand)
            forked
        in
        List.iteri
          (fun i (_, (c : Pass.ctx)) ->
            if several then Library.absorb library c.library;
            Trace.absorb trace ~prefix:(Fmt.str "cand%d/" i) c.trace;
            Metrics.absorb metrics c.metrics)
          forked;
        (irs, [ ("candidates", List.length irs) ]))
  in
  let schedule, stats =
    Trace.span trace "select" (fun () ->
        let schedule, best =
          Stages.best_by_latency
            (List.map (fun ir -> (Ir.schedule_exn ir, ir)) compiled)
        in
        (schedule, stats_of_ir best))
  in
  let esp =
    Trace.span trace "esp" (fun () ->
        Esp.of_schedule ~t_coherence:config.Config.t_coherence schedule)
  in
  let compile_time = Unix.gettimeofday () -. t0 in
  let latency = Schedule.latency schedule in
  (* run-level summary gauges, set by the coordinator after selection;
     these are model quantities (ns, probability), not wall clock, so
     they stay deterministic across domain counts *)
  Metrics.set metrics "pipeline.latency_ns" latency;
  Metrics.set metrics "pipeline.esp" esp;
  Metrics.incr metrics "pipeline.runs";
  Metrics.set metrics "pipeline.degraded_blocks"
    (float_of_int stats.degraded_blocks);
  Metrics.set metrics "pipeline.retries" (float_of_int stats.retries);
  if stats.degraded_blocks > 0 then
    Stages.Log.warn (fun m ->
        m "%s: %d block(s) degraded to gate-pulse playback" name
          stats.degraded_blocks);
  (* persist the run's new pulses: sweep the merged library into the
     store and flush once, after all candidates were absorbed.  The
     gauge reports the merged on-disk entry count, which stays honest
     after a torn-write recovery (skipped lines are not entries).
     Device runs never feed the store: their pulses are priced on the
     device's coupling subgraphs, not the default chain model the store
     is calibrated to (resolution skipped the store probes for the same
     reason). *)
  if config.Config.device = None then
    Option.iter
      (fun store ->
        Store.absorb_library store library;
        Store.flush store;
        Metrics.set metrics "cache.entries"
          (float_of_int (Store.merged_count store)))
      ctx.cache;
  (* persist the run's fresh syntheses: candidates only probed the store
     during compilation and carried their fresh results on the IR, so
     recording here — in candidate order, then block order — keeps the
     store writes outside every parallel region *)
  Option.iter
    (fun store ->
      List.iter
        (fun ir ->
          List.iter
            (fun (u, r) -> Synth_store.record store u r)
            ir.Ir.synth_fresh)
        compiled;
      Synth_store.flush store;
      Metrics.set metrics "synth.cache.entries"
        (float_of_int (Synth_store.merged_count store)))
    ctx.synth;
  let request_id = ctx.request_id in
  (* flight-recorder entry: a bounded JSON summary of this request on the
     engine, plus the full Chrome trace when the compile was slow.  Both
     live on engine-owned state, outside the determinism contract. *)
  let module Json = Epoc_obs.Json in
  let fingerprint = Digest.to_hex (Digest.string (Circuit.to_string circuit)) in
  let flight_payload =
    Json.Obj
      [
        ("request_id", Json.Str request_id);
        ("name", Json.Str name);
        ("circuit", Json.Str fingerprint);
        ( "mode",
          Json.Str
            (match config.Config.qoc_mode with
            | Config.Grape -> "grape"
            | Config.Estimate -> "estimate") );
        ("latency_ns", Json.Num latency);
        ("esp", Json.Num esp);
        ("compile_s", Json.Num compile_time);
        ("degraded_blocks", Json.of_int stats.degraded_blocks);
        ("retries", Json.of_int stats.retries);
        ("cache_hits", Json.of_int (Metrics.counter_value metrics "cache.hits"));
        ( "cache_near_hits",
          Json.of_int (Metrics.counter_value metrics "cache.near_hits") );
        ( "cache_misses",
          Json.of_int (Metrics.counter_value metrics "cache.misses") );
        ( "synth_cache_hits",
          Json.of_int (Metrics.counter_value metrics "synth.cache.hits") );
        ( "synth_cache_misses",
          Json.of_int (Metrics.counter_value metrics "synth.cache.misses") );
        ("stages_s", Trace.stage_walls_json trace);
      ]
  in
  Epoc_obs.Flight.record (Engine.flight ctx.engine) ~id:request_id
    ~wall_s:compile_time
    ~trace:(fun () -> Trace.to_chrome_json trace)
    flight_payload;
  {
    name;
    request_id;
    latency;
    esp;
    compile_time;
    schedule;
    stats;
    library_stats = Library.stats library;
    qoc_mode = config.Config.qoc_mode;
    trace;
    metrics;
  }

(* Compile through the full EPOC flow, in [ctx]. *)
let compile ctx (circuit : Circuit.t) = compile_flow ctx epoc_flow circuit
