(** The compilation engine: one long-lived value owning every piece of
    state that should stay hot across compile requests — the domain
    pool, the persistent pulse store, the shared pulse library, the
    hardware-model memo and the engine metrics registry.

    Everything per-run lives in a {!session} created from the engine;
    the compile path reads shared state only through its session's
    engine, so there is zero process-global mutation.  Two engines in
    one process are fully isolated, and many concurrent sessions on one
    engine share hot state safely: the library, store, memo, registry
    and pool are all internally synchronized, and the pipeline's
    fork/absorb discipline keeps per-run results bit-identical to solo
    runs for any domain count.

    One-shot callers build an ephemeral engine per call; the
    [epoc serve] daemon keeps one engine for its whole lifetime. *)

open Epoc_parallel
open Epoc_pulse
open Epoc_qoc
module Metrics = Epoc_obs.Metrics

type t

(** [create ()] builds an engine.  [config] seeds the engine-owned
    resources — the store directories ([cache_dir], [synth_cache_dir])
    and the phase-matching convention of the library and stores — but
    is not retained: configs are per-session values, so one engine
    serves requests compiled under different modes and deadlines.
    [domains] sizes the pool (when no [pool] is given); explicit
    [pool], [library], [cache], [synth] override the constructed
    defaults.  The pool constructed here records its traffic into the
    engine registry. *)
val create :
  ?config:Config.t ->
  ?domains:int ->
  ?pool:Pool.t ->
  ?library:Library.t ->
  ?cache:Epoc_cache.Store.t ->
  ?synth:Epoc_cache.Synth_store.t ->
  unit ->
  t

val pool : t -> Pool.t

val library : t -> Library.t

val cache : t -> Epoc_cache.Store.t option

(** The persistent synthesis store ({!Epoc_cache.Synth_store}), when one
    is configured: synthesized per-block circuits keyed by block
    fingerprint, consulted before QSearch runs. *)
val synth : t -> Epoc_cache.Synth_store.t option

(** The engine's device zoo ({!Epoc_device.Device.Registry}): the
    bundled builtins plus any device files loaded through it.  The CLI
    and the serve daemon resolve [--device NAME|FILE] / the job
    ["device"] field against this registry. *)
val devices : t -> Epoc_device.Device.Registry.registry

(** The engine registry: pool traffic, solver throughput gauges and
    anything else infrastructure-scoped.  Never holds per-run values —
    those live in each session's registry. *)
val metrics : t -> Metrics.t

(** The engine's flight recorder: the last [config.flight_capacity]
    completed requests, each with a JSON summary, plus the full Chrome
    trace of any request slower than [config.slow_trace_s].  Recorded
    by {!Pipeline.compile_flow} on every compile through this engine. *)
val flight : t -> Epoc_obs.Flight.t

(** The next request id on this engine (["r1"], ["r2"], ...).  Ids are
    unique per engine; {!session} draws one automatically when the
    caller does not supply its own. *)
val next_request_id : t -> string

(** Hardware model for [k] qubits under [config]'s physical parameters,
    memoized on the engine.  Width-keyed: the default chain topology
    (the baselines' reference gate times, and every block when no
    device is configured). *)
val hardware_for : t -> Config.t -> int -> Hardware.t

(** Hardware model of one partition block (global qubit indices).
    Without a configured device this is {!hardware_for} on the block
    width — the bit-identical legacy path; with one it is the device's
    coupling subgraph on those qubits ({!Hardware.of_device}), memoized
    per (device, block). *)
val hardware_for_block : t -> Config.t -> int list -> Hardware.t

(** Flush both persistent stores once (no-op without stores or with
    nothing pending). *)
val flush : t -> unit

(** {1 Sessions} *)

(** One compile request: everything a run reads, in one record.  The
    pass manager sees it as {!Pass.ctx}; build one with {!session}. *)
type session = {
  engine : t;  (** the owning engine: hardware memo, engine registry *)
  config : Config.t;
  name : string;
  request_id : string;
      (** stable identity of the request; every trace span, metric,
          retry, degradation and cache outcome of the run is
          attributable to it *)
  library : Library.t;
      (** the engine's shared library, or a private one (see
          {!session}); forked per candidate by the pipeline *)
  pool : Pool.t;  (** the engine's, unless overridden *)
  cache : Epoc_cache.Store.t option;
      (** persistent pulse store: the engine's, unless overridden *)
  synth : Epoc_cache.Synth_store.t option;
      (** persistent synthesis store, consulted before QSearch runs and
          recorded into at pipeline end: the engine's, unless
          overridden *)
  trace : Trace.t;  (** wall-clock spans and stage counters *)
  metrics : Metrics.t;
      (** per-run registry: deterministic values only.  Wall-clock and
          infrastructure values go to the engine registry
          ({!metrics}[ engine]) *)
  budget : Epoc_budget.t;
      (** run-level deadline from [config.total_deadline] (unlimited
          when unset), started when the session was opened; block
          solves derive per-attempt children capped by it *)
  fault : Epoc_fault.spec option;
      (** deterministic fault injection, from [config.fault] *)
  explicit_library : Library.t option;
      (** the library the caller passed, kept so {!with_config} never
          replaces it *)
}

(** [session ~name t] opens a session on [t].  The request id is drawn
    from the engine ({!next_request_id}) unless [request_id] supplies
    one.  The library is the engine's shared library unless [library]
    supplies a private one (the serve daemon isolates each job this way
    so it resolves exactly like a one-shot run, with cross-request reuse
    flowing through the engine store); a config whose phase convention
    disagrees with the engine library, or that targets a device, gets a
    fresh private library.  [pool], [cache] and [synth] override the
    engine's resources for this session only.  [trace] and [metrics]
    default to fresh sinks; the budget derives from
    [config.total_deadline] and the fault spec from [config.fault]. *)
val session :
  ?config:Config.t ->
  ?request_id:string ->
  ?library:Library.t ->
  ?pool:Pool.t ->
  ?cache:Epoc_cache.Store.t ->
  ?synth:Epoc_cache.Synth_store.t ->
  ?trace:Trace.t ->
  ?metrics:Metrics.t ->
  name:string ->
  t ->
  session

(** The same session under a different config: identity (engine, name,
    request id), sinks and resource overrides carry over; the library,
    budget and fault spec re-derive from the new config (an explicitly
    passed library is kept).  The baselines use this to apply their
    config transforms to a caller's session. *)
val with_config : Config.t -> session -> session
