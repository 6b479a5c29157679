(** GRAPE: gradient ascent pulse engineering (Khaneja et al. 2005).

    Piecewise-constant controls [u.(j).(k)] over [slots] intervals of
    length [dt]; the figure of merit is the global-phase-invariant gate
    fidelity [F = |tr(U_target^dag U)| / d], ascended with Adam under
    amplitude clipping.

    {!optimize_r} solves one problem: it returns a [result] and maps
    divergence (non-finite fidelity), expired {!Epoc_budget.t}
    deadlines and injected {!Epoc_fault} faults to typed
    {!Epoc_error.t} values.

    {!optimize_batch} advances many independent equal-dimension solves
    in lockstep over one contiguous {!Epoc_linalg.Batch} per time
    slice, and routes large solves (see {!segments}) to a
    checkpoint-parallel core that splits the slot chain over a
    {!Epoc_parallel.Pool}.  Both paths are bit-identical to the
    single-job solver for any pool size: a job's result depends only on
    the job, never on which batch it rides in or how many domains run
    it. *)

open Epoc_linalg

(** Shared log source for the QOC layer (GRAPE + the duration search). *)
val log_src : Logs.src

(** A piecewise-constant pulse: [amplitudes.(control).(slot)] in
    rad/ns, [labels] parallel to the control axis. *)
type pulse = {
  dt : float;
  labels : string array;
  amplitudes : float array array;
}

(** Total pulse duration in ns. *)
val duration : pulse -> float

val slot_count : pulse -> int

(** CSV export of the pulse envelopes: one row per slot, one column per
    control channel. *)
val pulse_to_csv : pulse -> string

type options = {
  iterations : int;
  learning_rate : float;
  fidelity_target : float;
  patience : int;  (** stop after this many non-improving iterations *)
  init : float array array option;
      (** warm-start amplitudes [control][slot] from a cached
          near-neighbor pulse; resampled to the requested slot count
          and clipped to the drive limit.  [None] = random cold
          start. *)
}

val default_options : options

(** Why the ascent loop ended. *)
type stop_reason = Target_hit | Patience | Budget

val stop_reason_name : stop_reason -> string

(** One point of the convergence series, recorded every iteration. *)
type sample = {
  it : int;  (** 1-based iteration *)
  s_fidelity : float;
  s_grad_norm : float;  (** L2 norm over all (control, slot) gradients *)
  s_step : float;  (** mean |amplitude update| this iteration, rad/ns *)
}

type result = {
  pulse : pulse;
  fidelity : float;
  achieved : Mat.t;  (** realized total propagator *)
  iterations : int;
  stop : stop_reason;
  warm_start : bool;  (** ascent was seeded from cached amplitudes *)
  series : sample list;  (** convergence telemetry, oldest first *)
}

(** Total propagator for a pulse under the hardware model. *)
val propagate : Hardware.t -> pulse -> Mat.t

(** [fidelity_of target u]: global-phase-invariant gate fidelity. *)
val fidelity_of : Mat.t -> Mat.t -> float

(** {1 Batched solving} *)

(** One solve request for {!optimize_batch}: the same inputs
    {!optimize_r} takes, packaged as a value. *)
type batch_job

(** [batch_job hw ~target ~slots] with the same optional arguments (and
    defaults) as {!optimize_r}. *)
val batch_job :
  ?options:options ->
  ?rng:Random.State.t ->
  ?budget:Epoc_budget.t ->
  ?fault:Epoc_fault.spec ->
  ?site:string ->
  ?attempt:int ->
  Hardware.t ->
  target:Mat.t ->
  slots:int ->
  batch_job

(** Reusable matrix scratch for batched solves.  Buffers grow on demand
    and are kept across calls, so threading one workspace through a
    whole duration search (many attempts at varying slot counts) makes
    the solver inner loop allocation-free.

    [metrics] is the sink for the solver totals of every batch solved
    with this workspace: the [grape.solve_iterations] counter and the
    [grape.solve_seconds] histogram (one wall-clock observation per
    batch), from which {!iters_per_s} derives the throughput.  The
    pipeline passes the owning engine's registry.  Wall-clock values
    are non-deterministic, so they never belong in a per-run registry,
    and without a sink they are simply dropped. *)
type workspace

val workspace : ?metrics:Epoc_obs.Metrics.t -> unit -> workspace

(** Number of checkpoint segments a [(dim, slots)] solve would split
    into; [1] means it takes the lockstep core.  A pure function of its
    arguments — never of pool size — so the floating-point reduction
    order is pinned for any [EPOC_JOBS].  Exposed for tests. *)
val segments : dim:int -> slots:int -> int

(** Solve every job, batching equal-sized work into contiguous
    multi-matrix kernel calls and fanning both batch chunks and
    intra-solve segment sweeps out over [pool] (omitted = sequential).
    Results are positionally parallel to [jobs]; each is exactly what
    {!optimize_r} would have returned for that job alone — per-job
    errors land in their slot instead of aborting the batch.

    @raise Invalid_argument on mixed dimensions across jobs, a
    target/hardware dimension mismatch, or [slots < 1]. *)
val optimize_batch :
  ?pool:Epoc_parallel.Pool.t ->
  ?workspace:workspace ->
  batch_job array ->
  (result, Epoc_error.t) Result.t array

(** Result-returning optimization — the supported API.

    [budget] is checked every iteration and yields
    [Error (Deadline_exceeded _)]; a non-finite fidelity (or an
    injected [grape_nan] fault from [fault]) yields
    [Error (Solver_diverged _)].  [site] names this solve in errors,
    fault matching and logs (e.g. [block3]); [attempt] is the 0-based
    retry attempt the caller is on, part of the deterministic fault
    derivation.

    [pool] and [workspace] tune execution only (see
    {!optimize_batch}); they never change the result.

    @raise Invalid_argument on dimension mismatch or [slots < 1]. *)
val optimize_r :
  ?options:options ->
  ?rng:Random.State.t ->
  ?budget:Epoc_budget.t ->
  ?fault:Epoc_fault.spec ->
  ?site:string ->
  ?attempt:int ->
  ?pool:Epoc_parallel.Pool.t ->
  ?workspace:workspace ->
  Hardware.t ->
  target:Mat.t ->
  slots:int ->
  (result, Epoc_error.t) Result.t

(** Solver iterations per second over every batch a workspace recorded
    into this registry: total [grape.solve_iterations] over total
    [grape.solve_seconds].  [None] before any timed batch. *)
val iters_per_s : Epoc_obs.Metrics.t -> float option
