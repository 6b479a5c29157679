(** Minimal pulse duration search (the paper's binary search on
    latency) and the calibrated analytic estimator.

    {!find_min_duration_r} is the supported entry point: bracket then
    bisect the smallest GRAPE slot count reaching the fidelity target,
    returning typed {!Epoc_error.t} failures ([Duration_unreachable]
    when the bracket runs out, [Solver_diverged] / [Deadline_exceeded]
    passed through from GRAPE). *)

open Epoc_linalg
open Epoc_circuit

(** Telemetry of one GRAPE optimization inside the duration search. *)
type attempt = {
  att_slots : int;
  att_iterations : int;
  att_fidelity : float;
  att_stop : Grape.stop_reason;
}

type search_result = {
  slots : int;
  duration : float;  (** ns *)
  fidelity : float;
  result : Grape.result;
  grape_runs : int;  (** GRAPE optimizations the search used *)
  attempts : attempt list;  (** per-run telemetry, in run order *)
}

type options = {
  grape : Grape.options;
  granularity : int;  (** slot quantum for bisection *)
  max_slots : int;
  min_slots : int;
}

val default_options : options

(** {1 Batched search}

    Many duration searches advance together: each round takes exactly
    one GRAPE attempt per still-searching job and all of a round's
    attempts run as one {!Grape.optimize_batch} call, so equal-sized
    solves share contiguous batched kernels.  Each job's attempt
    sequence is exactly the solo search's — results are bit-identical
    to running the searches one by one. *)

(** One duration-search request: the same inputs
    {!find_min_duration_r} takes, packaged as a value. *)
type search_job

val search_job :
  ?options:options ->
  ?initial_guess:int ->
  ?init:float array array ->
  ?rng:Random.State.t ->
  ?budget:Epoc_budget.t ->
  ?fault:Epoc_fault.spec ->
  ?site:string ->
  ?attempt:int ->
  Hardware.t ->
  Mat.t ->
  search_job

(** Run every search to completion.  Results are positionally parallel
    to the input; per-job failures land in their slot.  All jobs must
    share a Hilbert-space dimension (callers group by hardware; mixed
    dimensions raise [Invalid_argument]).  [pool] and [workspace] are
    execution-only knobs threaded into every batched solve. *)
val find_min_duration_batch :
  ?pool:Epoc_parallel.Pool.t ->
  ?workspace:Grape.workspace ->
  search_job array ->
  (search_result, Epoc_error.t) Result.t array

(** Result-returning duration search — the supported API; a batch of
    one.  [init] warm-starts every GRAPE attempt from cached
    amplitudes; [budget]/[fault]/[site]/[attempt] are threaded into
    each attempt (see {!Grape.optimize_r}). *)
val find_min_duration_r :
  ?options:options ->
  ?initial_guess:int ->
  ?init:float array array ->
  ?rng:Random.State.t ->
  ?budget:Epoc_budget.t ->
  ?fault:Epoc_fault.spec ->
  ?site:string ->
  ?attempt:int ->
  ?pool:Epoc_parallel.Pool.t ->
  ?workspace:Grape.workspace ->
  Hardware.t ->
  Mat.t ->
  (search_result, Epoc_error.t) Result.t

(** {1 Analytic estimator} *)

type estimate = { est_duration : float; est_fidelity : float }

(** Price a unitary via its VUG+CNOT realization under the hardware's
    reference gate times (virtual-Z free, speed-limit single-qubit
    pulses, Weyl interaction content for two-qubit blocks, packed
    critical path for wider ones); calibrated against GRAPE duration
    searches on the default hardware model. *)
val estimate : ?unitary:Mat.t -> Hardware.t -> Circuit.t -> estimate

(** Slot-count seed for {!find_min_duration_r} derived from the
    estimate. *)
val guess_slots : ?unitary:Mat.t -> Hardware.t -> Circuit.t -> int

(** {1 Stage counters} *)

(** Trace counters of a batch of resolved [(duration, fidelity)] pulses
    (QOC stage), in this order: [pulses], [computed] (fresh searches or
    estimates; the rest came from the library), [duration_ns] (summed,
    rounded to whole ns). *)
val counters : computed:int -> (float * float) list -> (string * int) list
