(* The compilation engine: one long-lived value owning every piece of
   state that should stay hot across compile requests —

     - the domain pool (and its traffic counters),
     - the persistent pulse store (opened once, shared by all requests),
     - the persistent synthesis store (same lifecycle),
     - the shared pulse library,
     - the hardware-model memo (replacing the old process-wide
       [Hardware.shared] table),
     - the engine metrics registry (pool traffic, solver throughput —
       replacing the old [Metrics.global]).

   Everything per-run — config, trace sink, per-run metrics registry,
   compute budget, fault spec, the session library handle — lives in a
   [session] created from the engine.  The compile path reads shared
   state only through its session, so there is zero process-global
   mutation: two engines in one process are fully isolated, and many
   concurrent sessions on one engine share hot state safely (every
   engine-owned structure is internally synchronized — see each
   module's header).

   One-shot callers build an ephemeral engine per call, which
   reproduces the old per-process behaviour exactly; the [epoc serve]
   daemon keeps one engine for its whole lifetime, which is the
   point. *)

open Epoc_parallel
open Epoc_pulse
open Epoc_qoc
module Metrics = Epoc_obs.Metrics
module Store = Epoc_cache.Store
module Synth_store = Epoc_cache.Synth_store

type t = {
  pool : Pool.t;
  library : Library.t; (* shared across sessions; thread-safe *)
  cache : Store.t option; (* persistent pulse store, opened once *)
  synth : Synth_store.t option; (* persistent synthesis store, opened once *)
  hardware : Hardware.Memo.memo;
  devices : Epoc_device.Device.Registry.registry;
      (* device zoo: builtins plus loaded device files; name -> device *)
  metrics : Metrics.t; (* engine registry: infrastructure, not per-run *)
  flight : Epoc_obs.Flight.t; (* last-N completed requests, slow traces *)
  next_rid : int Atomic.t; (* request-id counter; unique per engine *)
}

(* [config] seeds the engine-owned resources: the store directories and
   the phase-matching convention of the library and stores.  The config
   itself is *not* stored — it is a per-session value, so one engine can
   serve requests compiled under different configs (modes, deadlines). *)
let create ?(config = Config.default) ?domains ?pool ?library ?cache ?synth ()
    =
  let metrics = Metrics.create () in
  let pool =
    match pool with Some p -> p | None -> Pool.create ?domains ~metrics ()
  in
  let library =
    match library with
    | Some l -> l
    | None -> Library.create ~match_global_phase:config.Config.match_global_phase ()
  in
  let cache =
    match cache with
    | Some _ as c -> c
    | None ->
        Option.map
          (fun dir ->
            Store.open_dir ~match_global_phase:config.Config.match_global_phase
              dir)
          config.Config.cache_dir
  in
  let synth =
    match synth with
    | Some _ as s -> s
    | None ->
        Option.map
          (fun dir ->
            Synth_store.open_dir
              ~match_global_phase:config.Config.match_global_phase dir)
          config.Config.synth_cache_dir
  in
  {
    pool;
    library;
    cache;
    synth;
    hardware = Hardware.Memo.create ();
    devices = Epoc_device.Device.Registry.create ();
    metrics;
    flight =
      Epoc_obs.Flight.create ~capacity:config.Config.flight_capacity
        ?slow_s:config.Config.slow_trace_s ();
    next_rid = Atomic.make 1;
  }

let pool t = t.pool
let library t = t.library
let cache t = t.cache
let synth t = t.synth
let devices t = t.devices
let metrics t = t.metrics
let flight t = t.flight

(* The next request id on this engine: "r1", "r2", ...  Ids are unique
   per engine and stable for the lifetime of a request — they thread
   through the session into every pass ctx and onto the result, the
   flight-recorder entry and (in the serve daemon) the response line. *)
let next_request_id t =
  Printf.sprintf "r%d" (Atomic.fetch_and_add t.next_rid 1)

(* Hardware model under [config]'s physical parameters, memoized on the
   engine.  Width-keyed: the default chain topology (used by the
   baselines' reference gate times, and by every block when no device is
   configured). *)
let hardware_for t (config : Config.t) k =
  Hardware.Memo.get t.hardware ~dt:config.Config.dt
    ~t_coherence:config.Config.t_coherence k

(* Block-keyed hardware model: the 2^k model of one partition block.
   Without a device this is exactly the width-keyed chain (bit-identical
   legacy path); with one it is the device's coupling subgraph on the
   block's global qubits, memoized per (device, block). *)
let hardware_for_block t (config : Config.t) qubits =
  match config.Config.device with
  | None -> hardware_for t config (List.length qubits)
  | Some d -> Hardware.Memo.get_block t.hardware d ~qubits

(* Flush both persistent stores once (no-op without stores, or with
   nothing pending).  Sessions flush after each run; the serve daemon
   also calls this on shutdown so a drained process leaves nothing
   unpersisted. *)
let flush t =
  Option.iter Store.flush t.cache;
  Option.iter Synth_store.flush t.synth

(* --- sessions ------------------------------------------------------------ *)

(* Everything request-scoped, in the one record the passes read
   ([Pass.ctx] re-exports it).  [library] is the engine's shared library
   by default; passing a private one isolates the request (the serve
   daemon does this so each job resolves exactly like a one-shot run,
   with cross-request reuse flowing through the engine store) and the
   caller decides whether to absorb it back.  [pool], [cache] and
   [synth] are the engine's resources unless the session was opened with
   overrides (one-shot callers with a private pool or store use these).
   [explicit_library] remembers the caller's library for [with_config]. *)
type session = {
  engine : t;
  config : Config.t;
  name : string;
  request_id : string; (* stable identity of this request *)
  library : Library.t;
  pool : Pool.t;
  cache : Store.t option;
  synth : Synth_store.t option;
  trace : Trace.t;
  metrics : Metrics.t; (* per-run registry: deterministic values only *)
  budget : Epoc_budget.t;
  fault : Epoc_fault.spec option;
  explicit_library : Library.t option; (* as passed by the caller *)
}

(* The session library for [config]: the caller's, or the engine's when
   this request's matching convention agrees with it — a phase-sensitive
   request (AccQOC/PAQOC configs) against a phase-invariant engine
   library would otherwise alias distinct unitaries.  Device runs get a
   private library too: the engine's shared table feeds the persistent
   store at flush time, and both are calibrated to the default chain
   model — a device block's pulse priced on a different coupling
   subgraph must never leak into them (within the run, entries are
   additionally tagged with the block's coupling context). *)
let library_for (t : t) (config : Config.t) = function
  | Some l -> l
  | None ->
      if config.Config.device <> None then
        Library.create ~match_global_phase:config.Config.match_global_phase ()
      else if
        Library.match_global_phase t.library
        = config.Config.match_global_phase
      then t.library
      else Library.create ~match_global_phase:config.Config.match_global_phase ()

let run_budget (config : Config.t) =
  Epoc_budget.sub ?seconds:config.Config.total_deadline Epoc_budget.unlimited

let session ?(config = Config.default) ?request_id ?library ?pool ?cache
    ?synth ?trace ?metrics ~name (t : t) =
  {
    engine = t;
    config;
    name;
    request_id =
      (match request_id with Some id -> id | None -> next_request_id t);
    library = library_for t config library;
    pool = (match pool with Some p -> p | None -> t.pool);
    cache = (match cache with Some _ as c -> c | None -> t.cache);
    synth = (match synth with Some _ as s -> s | None -> t.synth);
    trace = (match trace with Some tr -> tr | None -> Trace.create ());
    metrics = (match metrics with Some m -> m | None -> Metrics.create ());
    budget = run_budget config;
    fault = config.Config.fault;
    explicit_library = library;
  }

(* The same session under a different config: identity (engine, name,
   request id), sinks and resource overrides carry over; the library,
   budget and fault spec re-derive from the new config.  The baselines
   use this to apply their config transforms to a caller's session. *)
let with_config config s =
  {
    s with
    config;
    library = library_for s.engine config s.explicit_library;
    budget = run_budget config;
    fault = config.Config.fault;
  }
