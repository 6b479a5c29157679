(* Concrete passes of the EPOC pipeline (paper Figure 3), over the
   [Ir.t] compilation IR:

     reorder    commutation-aware gate reordering
     partition  greedy partition                  (Epoc_partition.Partition)
     synthesis  per-block VUG synthesis           (Epoc_synthesis.Synthesis)
     reorder-vug  reordering of the VUG circuit
     regroup    regroup sweep (or trivial per-op groups)
     pulses     pulse generation per group        (library + GRAPE/estimate)
     schedule   ASAP schedule per grouping, keep the lowest latency

   Each pass preserves the determinism contract stated in
   lib/epoc/pipeline.ml: every parallel fan-out is pure or works on
   forked state merged in a fixed order, and preserves item order, so
   results are bit-identical for any domain count. *)

open Epoc_linalg
open Epoc_circuit
open Epoc_partition
open Epoc_synthesis
open Epoc_qoc
open Epoc_pulse
open Epoc_parallel
module Metrics = Epoc_obs.Metrics
module Store = Epoc_cache.Store
module Synth_store = Epoc_cache.Synth_store

let log_src = Logs.Src.create "epoc.pipeline" ~doc:"EPOC pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Calibrated per-gate pulse table (fidelities are typical transmon
   values; durations follow the hardware model's reference times).
   Shared by the gate-based baseline flow and by the graceful-
   degradation fallback below. *)
let gate_pulse (hw : Hardware.t) (g : Gate.t) =
  let t1 = Hardware.single_qubit_gate_time hw in
  let t2 = Hardware.entangling_gate_time hw in
  match g with
  | Gate.RZ _ | Gate.Phase _ | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg
  | Gate.I ->
      (0.0, 1.0) (* virtual Z: frame update *)
  | Gate.SX | Gate.SXdg -> (t1 /. 2.0, 0.9997)
  | g when Gate.arity g = 1 -> (t1, 0.9995)
  | Gate.CX | Gate.CZ -> (t2, 0.994)
  | g ->
      (* multi-qubit natives are not calibrated: count their CX content *)
      (t2 *. float_of_int (2 * (Gate.arity g - 1)), 0.99)

(* Per-gate pulse playback for one block: the graceful-degradation
   target when a block's GRAPE retries are exhausted.  The block's
   local circuit is lowered to the calibrated basis (the gate-based
   flow's lowering), the duration is the block-local ASAP critical
   path of the per-gate pulses and the fidelity their product — the
   same pricing the gate-based baseline would give this block. *)
let gate_fallback (hw : Hardware.t) (local : Circuit.t) =
  let lowered = Lower.to_zx_basis local in
  let line = Array.make (max 1 (Circuit.n_qubits lowered)) 0.0 in
  let fidelity = ref 1.0 in
  List.iter
    (fun (op : Circuit.op) ->
      let duration, f = gate_pulse hw op.Circuit.gate in
      fidelity := !fidelity *. f;
      if duration > 0.0 then begin
        let start =
          List.fold_left
            (fun acc q -> Float.max acc line.(q))
            0.0 op.Circuit.qubits
        in
        List.iter (fun q -> line.(q) <- start +. duration) op.Circuit.qubits
      end)
    (Circuit.ops lowered);
  (Array.fold_left Float.max 0.0 line, !fidelity)

(* Solver telemetry of one GRAPE duration search, recorded into the
   run's metrics registry.  Every recording is a counter increment or a
   histogram observation — commutative — so concurrent workers produce
   the same registry for any domain count. *)
let record_search metrics (s : Latency.search_result) =
  Metrics.incr metrics "grape.searches";
  Metrics.incr ~by:s.Latency.grape_runs metrics "grape.runs";
  List.iter
    (fun (a : Latency.attempt) ->
      Metrics.observe metrics "grape.iterations"
        (float_of_int a.Latency.att_iterations);
      Metrics.incr metrics
        ("grape.stop." ^ Grape.stop_reason_name a.Latency.att_stop))
    s.Latency.attempts;
  Metrics.observe metrics "grape.final_infidelity"
    (Float.max 0.0 (1.0 -. s.Latency.fidelity))

(* One Grape-mode pulse request: the per-block inputs of the batched
   computation below.  [pr_site] names the solve in errors, fault
   matching and logs; [pr_seed] keys the retry jitter and must be
   stable per job (the batch-order id), never derived from wall clock
   or global RNG state. *)
type pulse_req = {
  pr_u : Mat.t;
  pr_vug : Circuit.t;
  pr_init : float array array option;
  pr_site : string;
  pr_seed : int;
}

(* Per-request retry state of the batched computation. *)
type pulse_pending = {
  pp_req : pulse_req;
  pp_base_guess : int;
  pp_estimate : Latency.estimate Lazy.t;
  mutable pp_attempt : int;
  mutable pp_done : Ir.job_result option;
}

(* Pulse duration + fidelity + control amplitudes for a batch of
   equal-width (same Hilbert-space dimension) unitaries in Grape mode,
   without touching the library: the pure half of pulse generation.
   Every retry round takes one duration-search attempt per still-open
   request and runs them as a single {!Latency.find_min_duration_batch}
   call, so equal-sized GRAPE solves share contiguous batched kernels
   and one reusable workspace.  Results are in request order.

   This is also where the resilience policy lives.  A recoverable solver
   failure ([Solver_diverged], [Deadline_exceeded]) is retried up to
   [config.max_retries] times, each retry with a jittered warm start and
   a widened duration window; exhausted retries degrade the block to
   per-gate pulse playback ([gate_fallback]) so the pipeline still emits
   a complete, valid schedule.  Attempt 0 takes exactly the legacy code
   path (same rng, same init, same guess), so a fault-free run is
   bit-identical to the pre-resilience pipeline; each request's attempt
   sequence is private to it, so batching never changes a block's
   result, only co-schedules the solves. *)
let compute_pulse_batch (ctx : Pass.ctx) (hw_block : Hardware.t)
    (reqs : pulse_req list) : Ir.job_result list =
  let { Pass.config; metrics = m; request_id; budget; _ } = ctx in
  let max_retries = max 0 config.Config.max_retries in
  let limit = hw_block.Hardware.drive_limit in
  (* jittered restart: perturb the warm start within the drive limit so
     the ascent leaves the basin that diverged *)
  let perturb rng amps =
    Array.map
      (Array.map (fun v ->
           let j = 0.1 *. limit *. (Random.State.float rng 2.0 -. 1.0) in
           Float.max (-.limit) (Float.min limit (v +. j))))
      amps
  in
  let fallback (p : pulse_pending) err =
    let site = p.pp_req.pr_site and attempt = p.pp_attempt in
    let fb_duration, fb_fidelity = gate_fallback hw_block p.pp_req.pr_vug in
    let e = Lazy.force p.pp_estimate in
    Metrics.incr m "pulse.fallback";
    Metrics.observe m "degraded.latency_delta_ns"
      (fb_duration -. e.Latency.est_duration);
    Metrics.observe m "degraded.fidelity_delta"
      (Float.max 0.0 (e.Latency.est_fidelity -. fb_fidelity));
    Log.warn (fun m ->
        m "[%s] %s degraded to gate-pulse playback after %d attempt(s): %s"
          request_id site (attempt + 1) (Epoc_error.to_string err));
    {
      Ir.jr_duration = fb_duration;
      jr_fidelity = fb_fidelity;
      jr_pulse = None;
      jr_retries = attempt;
      jr_fallback = true;
      jr_error = Some (Epoc_error.to_string err);
    }
  in
  let states =
    List.map
      (fun (r : pulse_req) ->
        {
          pp_req = r;
          pp_base_guess = Latency.guess_slots ~unitary:r.pr_u hw_block r.pr_vug;
          pp_estimate = lazy (Latency.estimate ~unitary:r.pr_u hw_block r.pr_vug);
          pp_attempt = 0;
          pp_done = None;
        })
      reqs
  in
  Metrics.observe m "grape.batch_size" (float_of_int (List.length states));
  (* wall-clock solver totals go to the engine registry, never the
     per-run one *)
  let ws = Grape.workspace ~metrics:(Engine.metrics ctx.engine) () in
  let continue_ = ref (states <> []) in
  while !continue_ do
    let open_ =
      Array.of_list (List.filter (fun p -> p.pp_done = None) states)
    in
    if Array.length open_ = 0 then continue_ := false
    else begin
      let sjs =
        Array.map
          (fun (p : pulse_pending) ->
            let attempt = p.pp_attempt in
            let attempt_budget =
              Epoc_budget.sub ?seconds:config.Config.block_deadline budget
            in
            let rng, init_a, guess =
              if attempt = 0 then (None, p.pp_req.pr_init, p.pp_base_guess)
              else
                let r =
                  Random.State.make [| 41; p.pp_req.pr_seed; attempt |]
                in
                ( Some r,
                  Option.map (perturb r) p.pp_req.pr_init,
                  p.pp_base_guess * (attempt + 1) )
            in
            Latency.search_job ~options:config.Config.latency
              ~initial_guess:guess ?init:init_a ?rng ~budget:attempt_budget
              ?fault:ctx.fault ~site:p.pp_req.pr_site ~attempt hw_block
              p.pp_req.pr_u)
          open_
      in
      let results =
        Latency.find_min_duration_batch ~pool:ctx.pool ~workspace:ws sjs
      in
      Array.iteri
        (fun i (p : pulse_pending) ->
          let site = p.pp_req.pr_site and attempt = p.pp_attempt in
          match results.(i) with
          | Ok s ->
              record_search m s;
              if s.Latency.result.Grape.warm_start then
                Metrics.incr m "grape.warm_start";
              if attempt > 0 then Metrics.incr m "pulse.retry_success";
              p.pp_done <-
                Some
                  {
                    Ir.jr_duration = s.Latency.duration;
                    jr_fidelity = s.Latency.fidelity;
                    jr_pulse = Some s.Latency.result.Grape.pulse;
                    jr_retries = attempt;
                    jr_fallback = false;
                    jr_error = None;
                  }
          | Error (Epoc_error.Duration_unreachable _) ->
              (* duration search exhausted its slot bracket: keep the
                 legacy degradation — a pessimistic estimate, not a
                 gate-pulse fallback *)
              let e = Lazy.force p.pp_estimate in
              Log.warn (fun m ->
                  m "GRAPE duration search failed on a %d-qubit block"
                    hw_block.Hardware.n);
              Metrics.incr m "grape.search_failed";
              p.pp_done <-
                Some
                  {
                    Ir.jr_duration = 2.0 *. e.Latency.est_duration;
                    jr_fidelity = 0.99;
                    jr_pulse = None;
                    jr_retries = attempt;
                    jr_fallback = false;
                    jr_error = None;
                  }
          | Error
              ((Epoc_error.Solver_diverged _ | Epoc_error.Deadline_exceeded _)
               as e) ->
              Metrics.incr m ("grape." ^ Epoc_error.label e);
              if attempt < max_retries then begin
                Metrics.incr m "pulse.retries";
                Log.info (fun m ->
                    m "%s attempt %d failed (%s), retrying" site attempt
                      (Epoc_error.label e));
                p.pp_attempt <- attempt + 1
              end
              else p.pp_done <- Some (fallback p e)
          | Error e ->
              (* non-retryable (numerical, synthesis): degrade directly *)
              Metrics.incr m ("grape." ^ Epoc_error.label e);
              p.pp_done <- Some (fallback p e))
        open_
    end
  done;
  List.map
    (fun p ->
      let result = Option.get p.pp_done in
      Metrics.observe m "pulse.duration_ns" result.Ir.jr_duration;
      result)
    states

(* Estimate-mode pulse for one regrouped unitary: the calibrated
   duration/fidelity estimate, never degraded. *)
let estimate_pulse (ctx : Pass.ctx) (hw_block : Hardware.t)
    ~(vug_circuit : Circuit.t) (u : Mat.t) : Ir.job_result =
  let e = Latency.estimate ~unitary:u hw_block vug_circuit in
  Metrics.incr ctx.metrics "qoc.estimates";
  Metrics.observe ctx.metrics "pulse.duration_ns" e.Latency.est_duration;
  {
    Ir.jr_duration = e.Latency.est_duration;
    jr_fidelity = e.Latency.est_fidelity;
    jr_pulse = None;
    jr_retries = 0;
    jr_fallback = false;
    jr_error = None;
  }

(* Greedy nearest-neighbor chain over the global-phase-invariant
   Hilbert-Schmidt distance: AccQOC's similarity ordering.  Start at
   index 0, repeatedly hop to the closest unvisited unitary (ties
   resolved toward the lowest index), and return the visit order.  Pure
   and sequential, so the chain — and everything solved along it — is
   identical for any domain count. *)
let similarity_chain (us : Mat.t array) : int array =
  let n = Array.length us in
  let order = Array.make n 0 in
  if n > 0 then begin
    let visited = Array.make n false in
    visited.(0) <- true;
    let cur = ref 0 in
    for step = 1 to n - 1 do
      let best = ref (-1) in
      let best_d = ref infinity in
      for j = 0 to n - 1 do
        if not visited.(j) then begin
          let d = Mat.hs_distance us.(!cur) us.(j) in
          if d < !best_d then begin
            best_d := d;
            best := j
          end
        end
      done;
      visited.(!best) <- true;
      order.(step) <- !best;
      cur := !best
    done
  end;
  order

(* Two pulse instructions commute when every pair of their constituent
   gates sharing a qubit commutes syntactically (conservative). *)
let instructions_commute ops_a ops_b =
  List.for_all
    (fun (a : Circuit.op) ->
      List.for_all
        (fun (b : Circuit.op) ->
          (not (List.exists (fun q -> List.mem q b.Circuit.qubits) a.Circuit.qubits))
          || Peephole.commutes a b)
        ops_b)
    ops_a

(* Greedy commutation-aware list scheduling of pulse instructions:
   repeatedly emit the ready instruction with the earliest achievable
   start time.  Ready = all earlier non-commuting qubit-sharing
   instructions already emitted, so the reordering only swaps commuting
   or disjoint pulses. *)
let list_schedule (items : (Schedule.instruction * Circuit.op list) list) =
  let arr = Array.of_list items in
  let n = Array.length arr in
  let deps = Array.make n [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let (ii, iops) = arr.(i) and (ji, jops) = arr.(j) in
      let shares =
        List.exists (fun q -> List.mem q ji.Schedule.qubits) ii.Schedule.qubits
      in
      if shares && not (instructions_commute iops jops) then deps.(j) <- i :: deps.(j)
    done
  done;
  let emitted = Array.make n false in
  let finish = Array.make n 0.0 in
  let line : (int, float) Hashtbl.t = Hashtbl.create 16 in
  let line_time q = Option.value ~default:0.0 (Hashtbl.find_opt line q) in
  let order = ref [] in
  for _ = 1 to n do
    let best = ref (-1) in
    let best_start = ref infinity in
    for i = 0 to n - 1 do
      if (not emitted.(i)) && List.for_all (fun d -> emitted.(d)) deps.(i) then begin
        let instr, _ = arr.(i) in
        let dep_ready = List.fold_left (fun acc d -> Float.max acc finish.(d)) 0.0 deps.(i) in
        let line_ready =
          List.fold_left (fun acc q -> Float.max acc (line_time q)) 0.0
            instr.Schedule.qubits
        in
        let start = Float.max dep_ready line_ready in
        if start < !best_start then begin
          best_start := start;
          best := i
        end
      end
    done;
    let i = !best in
    let instr, _ = arr.(i) in
    emitted.(i) <- true;
    let fin = !best_start +. instr.Schedule.duration in
    finish.(i) <- fin;
    List.iter (fun q -> Hashtbl.replace line q fin) instr.Schedule.qubits;
    order := instr :: !order
  done;
  List.rev !order

(* Resolve every job against the library in three phases whose library
   interaction order is independent of the domain count:

   1. sequentially, in job order: probe the library; misses consult the
      persistent store (when one is attached) — an exact store hit skips
      GRAPE entirely and lands in the library like a computed pulse would
      have, a near hit seeds the job's warm start ([jinit]); remaining
      misses become compute representatives unless an earlier
      representative already covers an equivalent unitary (then the job
      aliases it — the sequential pipeline would have hit the entry that
      representative was about to add);
   2. in parallel: run the pure pulse computation for each representative;
   3. sequentially, in job order: representatives add their entry (and
      count nothing — their miss was counted in phase 1), aliases re-probe
      and register the hit their sequential counterpart would have had.

   The counter totals and the stored entries are exactly those of a fully
   sequential run: store probes and the cache.* counters live entirely in
   the sequential phase 1, and warm starts only change GRAPE's starting
   point, which phase 2 computes from per-job state.  Phase 1 finds the
   covering representative through a fingerprint-keyed table (a bucket
   holds pairwise non-matching representatives, so at most one bucket
   entry can match a probe), keeping the scan O(jobs) instead of
   O(jobs^2).

   Degraded representatives (gate-pulse fallback) never enter the
   library: the fallback values are block-local prices, not reusable
   pulses, and keeping them out also keeps them out of the persistent
   store (Store.absorb_library walks the library) so a later run
   re-attempts the solve.  Aliases of a degraded representative inherit
   its resolved values — and its degraded flag — directly.

   Returns (jobs, representatives) counts for the stage report. *)
let resolve_pulses (ctx : Pass.ctx) jobs =
  let { Pass.config; library; metrics = m; _ } = ctx in
  (* Device runs never touch the persistent store: its entries are priced
     on the default chain model, and a device block's pulses must not
     feed it either.  The session library is private under a device
     (Engine.library_for), and entries are tagged below, so every layer
     of reuse is scoped to the device's coupling contexts. *)
  let cache = if config.Config.device = None then ctx.cache else None in
  (* The block hardware model for a job, and the library tag scoping its
     entries to that model's coupling context.  Legacy runs (no device)
     use the empty historical tag without building the model, keeping
     memo traffic identical. *)
  let hw_of (j : Ir.pulse_job) =
    Engine.hardware_for_block ctx.engine config j.Ir.jqubits
  in
  let tag_of (j : Ir.pulse_job) =
    match config.Config.device with
    | None -> ""
    | Some _ -> (hw_of j).Hardware.context
  in
  (* Library miss: try the persistent store.  [true] = the store resolved
     the job (entry copied into the library), so it is not a rep. *)
  let consult_cache (j : Ir.pulse_job) =
    match cache with
    | None -> false
    | Some store -> (
        match Store.find store j.Ir.ju with
        | Some e ->
            Metrics.incr m "cache.hits";
            Library.note_cache_hit library;
            Library.add library j.Ir.ju ~duration:e.Store.duration
              ~fidelity:e.Store.fidelity ?pulse:e.Store.pulse ();
            j.Ir.resolved <- Some (e.Store.duration, e.Store.fidelity);
            j.Ir.jpulse <- e.Store.pulse;
            true
        | None ->
            Metrics.incr m "cache.misses";
            (if config.Config.qoc_mode = Config.Grape then
               match Store.nearest store j.Ir.ju with
               | Some (e, _) ->
                   Metrics.incr m "cache.near_hits";
                   j.Ir.jinit <-
                     Option.map
                       (fun (p : Grape.pulse) -> p.Grape.amplitudes)
                       e.Store.pulse
               | None -> ());
            false)
  in
  let rep_tbl : (string, (Mat.t * Ir.pulse_job) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let reps = ref [] in
  List.iter
    (fun (j : Ir.pulse_job) ->
      let tag = tag_of j in
      let cu = Library.canonicalize library j.Ir.ju in
      (* equivalence is scoped to the hardware context: two blocks with
         the same unitary but different coupling subgraphs need distinct
         pulses, so the tag prefixes the bucket key *)
      let key = tag ^ Library.fingerprint cu in
      let bucket = Option.value ~default:[] (Hashtbl.find_opt rep_tbl key) in
      match
        List.find_opt (fun (cu', _) -> Library.matches library cu' cu) bucket
      with
      | Some (_, r) -> j.Ir.batch_rep <- Some r
      | None -> (
          match Library.find ~tag library j.Ir.ju with
          | Some e ->
              j.Ir.resolved <- Some (e.Library.duration, e.Library.fidelity);
              j.Ir.jpulse <- e.Library.pulse
          | None ->
              if not (consult_cache j) then begin
                Hashtbl.replace rep_tbl key ((cu, j) :: bucket);
                reps := j :: !reps
              end))
    jobs;
  let reps = List.rev !reps in
  (* warm the hardware memo before fanning out: phase 2 only reads it *)
  List.iter (fun (j : Ir.pulse_job) -> ignore (hw_of j)) reps;
  (match config.Config.qoc_mode with
  | Config.Grape ->
      (* group the representatives by block width and hardware context
         (equal widths share a Hilbert-space dimension; under a device,
         blocks on different coupling subgraphs have different
         Hamiltonians and must not share a batch) in first-occurrence
         order, and resolve each group as one batched computation: every
         retry round runs one lockstep GRAPE batch over the group,
         chunked across [pool] inside the solver.  Without a device the
         context is always "" and the grouping degenerates to the
         historical width-keyed one.  Grouping and batching are
         value-transparent (each job's solve is bit-identical to a solo
         run), so results and telemetry match the per-job fan-out this
         replaces. *)
      let order = ref [] in
      let by_group : (int * string, Ir.pulse_job list ref) Hashtbl.t =
        Hashtbl.create 8
      in
      List.iter
        (fun (j : Ir.pulse_job) ->
          let key = (j.Ir.jk, tag_of j) in
          match Hashtbl.find_opt by_group key with
          | Some l -> l := j :: !l
          | None ->
              Hashtbl.add by_group key (ref [ j ]);
              order := key :: !order)
        reps;
      let req_of (j : Ir.pulse_job) =
        {
          pr_u = j.Ir.ju;
          pr_vug = j.Ir.jlocal;
          pr_init = j.Ir.jinit;
          pr_site = Printf.sprintf "block%d" j.Ir.jid;
          pr_seed = j.Ir.jid;
        }
      in
      List.iter
        (fun key ->
          let group = List.rev !(Hashtbl.find by_group key) in
          let hw = hw_of (List.hd group) in
          if config.Config.similarity_order then begin
            (* AccQOC similarity ordering: walk the group along a greedy
               nearest-neighbor chain in Hilbert-Schmidt distance and
               solve sequentially, seeding each solve with the previous
               result's amplitudes unless the persistent store already
               provided a (closer) warm start.  Sequential by design —
               chaining is the point — and the chain is computed from
               per-job state, so results stay independent of the domain
               count. *)
            let arr = Array.of_list group in
            let chain =
              similarity_chain
                (Array.map
                   (fun (j : Ir.pulse_job) ->
                     Library.canonicalize library j.Ir.ju)
                   arr)
            in
            let prev = ref None in
            Array.iter
              (fun idx ->
                let j = arr.(idx) in
                (match (j.Ir.jinit, !prev) with
                | None, Some amps ->
                    j.Ir.jinit <- Some amps;
                    Metrics.incr m "pulse.chained"
                | _ -> ());
                let r = List.hd (compute_pulse_batch ctx hw [ req_of j ]) in
                j.Ir.computed <- Some r;
                match r.Ir.jr_pulse with
                | Some p -> prev := Some p.Grape.amplitudes
                | None -> ())
              chain
          end
          else
            let results = compute_pulse_batch ctx hw (List.map req_of group) in
            List.iter2
              (fun (j : Ir.pulse_job) v -> j.Ir.computed <- Some v)
              group results)
        (List.rev !order)
  | Config.Estimate ->
      let computed =
        Pool.map ctx.pool
          (fun (j : Ir.pulse_job) ->
            (* telemetry recording is commutative (counters + histogram
               observations), so sharing the registry across workers
               keeps the determinism contract *)
            estimate_pulse ctx (hw_of j) ~vug_circuit:j.Ir.jlocal j.Ir.ju)
          reps
      in
      List.iter2
        (fun (j : Ir.pulse_job) v -> j.Ir.computed <- Some v)
        reps computed);
  List.iter
    (fun (j : Ir.pulse_job) ->
      if j.Ir.resolved = None then
        match j.Ir.batch_rep with
        | Some r -> (
            match Library.find ~tag:(tag_of j) library j.Ir.ju with
            | Some e ->
                j.Ir.resolved <- Some (e.Library.duration, e.Library.fidelity);
                j.Ir.jpulse <- e.Library.pulse
            | None ->
                (* the representative degraded (nothing was added to the
                   library), so this alias plays gate pulses too *)
                j.Ir.resolved <- r.Ir.resolved;
                j.Ir.jfallback <- r.Ir.jfallback)
        | None ->
            let r = Option.get j.Ir.computed in
            j.Ir.jretries <- r.Ir.jr_retries;
            if r.Ir.jr_fallback then j.Ir.jfallback <- true
            else begin
              Library.add ~tag:(tag_of j) library j.Ir.ju
                ~duration:r.Ir.jr_duration ~fidelity:r.Ir.jr_fidelity
                ?pulse:r.Ir.jr_pulse ();
              j.Ir.jpulse <- r.Ir.jr_pulse
            end;
            j.Ir.resolved <- Some (r.Ir.jr_duration, r.Ir.jr_fidelity))
    jobs;
  (List.length jobs, List.length reps)

(* First minimum by schedule latency; ties keep the earliest candidate so
   selection matches a stable sort regardless of evaluation order. *)
let best_by_latency pairs =
  match pairs with
  | [] -> invalid_arg "best_by_latency: no schedules"
  | first :: rest ->
      List.fold_left
        (fun (bs, bx) (s, x) ->
          if Schedule.latency s < Schedule.latency bs then (s, x) else (bs, bx))
        first rest

let resolved_durations (ir : Ir.t) =
  List.concat_map
    (List.filter_map (fun (_, job) ->
         Option.bind job (fun (j : Ir.pulse_job) -> j.Ir.resolved)))
    ir.Ir.groupings

(* --- passes -------------------------------------------------------------- *)

(* Commutation analysis: slide commuting gates into parallel layers. *)
let reorder_gates =
  Pass.make "reorder"
    ~counters:(fun _ (ir : Ir.t) -> [ ("depth", Circuit.depth ir.Ir.circuit) ])
    (fun _ctx ir ->
      { ir with Ir.circuit = Reorder.commutation_aware ir.Ir.circuit })

(* The device coupling graph restricting partition merges, when the
   session compiles for a concrete device; [None] keeps the historical
   all-to-all grouping. *)
let device_coupling (config : Config.t) =
  Option.map Epoc_device.Device.pairs config.Config.device

(* Greedy partition of the current gate-level circuit, restricted to the
   device's coupling subgraph when one is configured. *)
let partition =
  Pass.make "partition"
    ~counters:(fun _ (ir : Ir.t) ->
      Partition.counters ir.Ir.blocks)
    (fun ctx ir ->
      {
        ir with
        Ir.blocks =
          Partition.partition ~config:ctx.Pass.config.Config.partition
            ?coupling:(device_coupling ctx.Pass.config) ir.Ir.circuit;
      })

(* VUG synthesis per block — independent searches with fixed seeds,
   fanned out over the pool — and reassembly into the VUG circuit.

   When a synthesis store is attached, each block's unitary is looked up
   *sequentially, in block order* before the fan-out (so store probes
   and the synth.cache.* counters are independent of the domain count);
   a verified hit replays the stored result with zeroed search counters
   — no QSearch runs for that block — and misses synthesize in parallel
   exactly as without a store.  Fresh results are not written here:
   candidate compilation never mutates shared state; they ride the IR
   ([synth_fresh]) to the driver, which records them at pipeline end. *)
let synthesis =
  Pass.make "synthesis"
    ~counters:(fun _ (ir : Ir.t) ->
      Synthesis.counters (List.map snd ir.Ir.synth))
    (fun ctx ir ->
      let config = ctx.Pass.config in
      (* index before the fan-out: the block's position names its solve
         site ("synth<i>") for fault matching and deadline reports *)
      let indexed = List.mapi (fun i b -> (i, b)) ir.Ir.blocks in
      let m = ctx.Pass.metrics in
      (* phase 1 (sequential): consult the synthesis store.  Each item
         carries the block unitary (when a store is attached — it is
         needed again to record fresh results) and the replayed result
         on a hit. *)
      let consulted =
        match ctx.Pass.synth with
        | Some store when config.Config.use_synthesis ->
            List.map
              (fun (i, b) ->
                let local = Partition.block_circuit b in
                let u = Circuit.unitary local in
                match Synth_store.find store u with
                | Some e ->
                    Metrics.incr m "synth.cache.hits";
                    ( (i, b),
                      Some u,
                      Some (Synth_store.to_block_result ~block:local e) )
                | None ->
                    Metrics.incr m "synth.cache.misses";
                    ((i, b), Some u, None))
              indexed
        | _ -> List.map (fun ib -> (ib, None, None)) indexed
      in
      (* phase 2 (parallel): synthesize the misses *)
      let synth_full =
        Pool.map ctx.Pass.pool
          (fun ((i, b), u, cached) ->
            let r =
              match cached with
              | Some r -> r
              | None ->
                  let local = Partition.block_circuit b in
                  if config.Config.use_synthesis then
                    let budget =
                      Epoc_budget.sub ?seconds:config.Config.block_deadline
                        ctx.Pass.budget
                    in
                    Synthesis.synthesize_block ~options:config.Config.synthesis
                      ~budget ?fault:ctx.Pass.fault
                      ~site:(Printf.sprintf "synth%d" i) local
                  else
                    {
                      Synthesis.circuit = Synthesis.vug_form local;
                      source = Synthesis.Fallback;
                      distance = 0.0;
                      expansions = 0;
                      prunes = 0;
                      open_max = 0;
                      failure = None;
                      certified = false;
                    }
            in
            (b, u, Option.is_some cached, r))
          consulted
      in
      let synth = List.map (fun (b, _, _, r) -> (b, r)) synth_full in
      (* fresh, clean results to persist at pipeline end (failures must
         be re-attempted by a later run, never replayed) *)
      let synth_fresh =
        List.filter_map
          (fun (_, u, was_cached, (r : Synthesis.block_result)) ->
            match u with
            | Some u when (not was_cached) && r.Synthesis.failure = None ->
                Some (u, r)
            | _ -> None)
          synth_full
      in
      let vug_circuit =
        List.fold_left
          (fun acc (b, r) ->
            Circuit.append acc
              (Partition.circuit_on_block_qubits b r.Synthesis.circuit
                 ~n:ir.Ir.n))
          (Circuit.empty ir.Ir.n) synth
      in
      (* QSearch telemetry, recorded in block order after the fan-out;
         replayed hits carry zeroed search counters, so a fully warm run
         leaves the qsearch.* metrics untouched *)
      List.iter
        (fun (_, (r : Synthesis.block_result)) ->
          Metrics.incr m "synth.blocks";
          if r.Synthesis.source = Synthesis.Synthesized then
            Metrics.incr m "synth.synthesized";
          if r.Synthesis.certified then Metrics.incr m "synth.certified";
          if r.Synthesis.open_max > 0 then begin
            (* a search actually ran on this block *)
            Metrics.observe m "qsearch.expansions"
              (float_of_int r.Synthesis.expansions);
            Metrics.incr ~by:r.Synthesis.prunes m "qsearch.prunes";
            Metrics.peak m "qsearch.open_high_water"
              (float_of_int r.Synthesis.open_max)
          end;
          Option.iter
            (fun err ->
              Metrics.incr m "synth.failures";
              Log.warn (fun l -> l "synthesis fell back: %s" err))
            r.Synthesis.failure;
          Metrics.observe m "synth.cnots_per_block"
            (float_of_int (Circuit.count_gate "cx" r.Synthesis.circuit)))
        synth;
      { ir with Ir.synth; synth_fresh; vug_circuit })

(* Commutation analysis on the synthesized VUG circuit. *)
let reorder_vugs =
  Pass.make "reorder-vug"
    ~counters:(fun _ (ir : Ir.t) ->
      [ ("depth", Circuit.depth ir.Ir.vug_circuit) ])
    (fun _ctx ir ->
      { ir with Ir.vug_circuit = Reorder.commutation_aware ir.Ir.vug_circuit })

let trivial_groups (vug_circuit : Circuit.t) =
  List.map
    (fun (op : Circuit.op) ->
      { Partition.qubits = List.sort compare op.Circuit.qubits; ops = [ op ] })
    (Circuit.ops vug_circuit)

let as_grouping groups : Ir.grouping = List.map (fun g -> (g, None)) groups

let grouping_counters _ (ir : Ir.t) =
  [
    ("groupings", List.length ir.Ir.groupings);
    ("groups", List.fold_left (fun acc g -> acc + List.length g) 0 ir.Ir.groupings);
  ]

(* Treat each VUG/CX as its own pulse: the no-regroup setting. *)
let regroup_trivial =
  Pass.make "regroup" ~counters:grouping_counters (fun _ctx ir ->
      { ir with Ir.groupings = [ as_grouping (trivial_groups ir.Ir.vug_circuit) ] })

(* Regroup sweep: several regroup widths are explored and the schedule
   with the lowest latency wins — wider groups pack pulses tighter but
   occupy more qubit lines.  The trivial per-op grouping is always a
   candidate, so regrouping can only improve the schedule. *)
let regroup_sweep =
  Pass.make "regroup" ~counters:grouping_counters (fun ctx ir ->
      let config = ctx.Pass.config in
      let widths =
        match config.Config.regroup_widths with
        | [] -> [ config.Config.regroup_partition.Partition.qubit_limit ]
        | ws -> ws
      in
      let groupings =
        trivial_groups ir.Ir.vug_circuit
        :: List.map
             (fun w ->
               Partition.partition
                 ~config:
                   {
                     config.Config.regroup_partition with
                     Partition.qubit_limit = w;
                   }
                 ?coupling:(device_coupling config) ir.Ir.vug_circuit)
             widths
      in
      { ir with Ir.groupings = List.map as_grouping groupings })

(* Pulse generation: annotate every group across all regroupings with its
   pulse job, then resolve the whole batch at once against the library;
   diagonal single-qubit groups are virtual-Z frame updates and cost
   nothing (as on real transmon stacks). *)
let pulses =
  Pass.make "pulses"
    ~counters:(fun ctx (ir : Ir.t) ->
      Latency.counters ~computed:ir.Ir.pulse_computed (resolved_durations ir)
      @ Library.counters (Library.stats ctx.Pass.library))
    (fun ctx ir ->
      (* batch-order job ids name the solve sites ("block<jid>"); the
         annotation scan is sequential, so ids are deterministic *)
      let next_jid = ref 0 in
      let annotated =
        List.map
          (fun grouping ->
            List.map
              (fun ((g : Partition.block), _) ->
                let local = Partition.block_circuit g in
                let u = Circuit.unitary local in
                let k = Circuit.n_qubits local in
                if k = 1 && Mat.is_diagonal ~eps:1e-9 u then (g, None)
                else begin
                  let jid = !next_jid in
                  incr next_jid;
                  ( g,
                    Some
                      {
                        Ir.jid;
                        ju = u;
                        jk = k;
                        jqubits = List.sort compare g.Partition.qubits;
                        jlocal = local;
                        resolved = None;
                        batch_rep = None;
                        jinit = None;
                        computed = None;
                        jfallback = false;
                        jretries = 0;
                        jpulse = None;
                      } )
                end)
              grouping)
          ir.Ir.groupings
      in
      let jobs = List.concat_map (List.filter_map snd) annotated in
      let n_jobs, n_computed = resolve_pulses ctx jobs in
      Metrics.incr ~by:n_jobs ctx.Pass.metrics "pulse.jobs";
      Metrics.incr ~by:n_computed ctx.Pass.metrics "pulse.computed";
      Log.info (fun m ->
          m "[%s] pulses: %d jobs, %d fresh computations (library resolved %d)"
            ctx.Pass.request_id n_jobs n_computed (n_jobs - n_computed));
      {
        ir with
        Ir.groupings = annotated;
        pulse_jobs = n_jobs;
        pulse_computed = n_computed;
      })

(* Build one schedule per regrouping (pure, fanned out) and keep the
   lowest-latency one. *)
let schedule =
  Pass.make "schedule"
    ~counters:(fun _ (ir : Ir.t) -> Schedule.counters (Ir.schedule_exn ir))
    (fun ctx ir ->
      let config = ctx.Pass.config in
      let schedules =
        Pool.map ctx.Pass.pool
          (fun grouping ->
            let items =
              List.filter_map
                (fun ((g : Partition.block), job) ->
                  Option.map
                    (fun (j : Ir.pulse_job) ->
                      let duration, fidelity = Option.get j.Ir.resolved in
                      ( {
                          Schedule.qubits = g.Partition.qubits;
                          duration;
                          fidelity;
                          label =
                            (if j.Ir.jfallback then Fmt.str "fb%d" j.Ir.jk
                             else Fmt.str "g%d" j.Ir.jk);
                          pulse = j.Ir.jpulse;
                        },
                        g.Partition.ops ))
                    job)
                grouping
            in
            let ordered =
              if config.Config.commutation_reorder then list_schedule items
              else List.map fst items
            in
            Schedule.schedule ~n:ir.Ir.n ordered)
          ir.Ir.groupings
      in
      let best, best_grouping =
        best_by_latency (List.combine schedules ir.Ir.groupings)
      in
      (* resilience accounting over the winning grouping only: count
         each degraded computation once (aliases share their
         representative, compared by physical identity) *)
      let reps =
        List.fold_left
          (fun acc (_, job) ->
            match job with
            | None -> acc
            | Some (j : Ir.pulse_job) ->
                let r =
                  match j.Ir.batch_rep with Some r -> r | None -> j
                in
                if List.memq r acc then acc else r :: acc)
          [] best_grouping
      in
      let degraded_blocks =
        List.length (List.filter (fun (j : Ir.pulse_job) -> j.Ir.jfallback) reps)
      in
      let pulse_retries =
        List.fold_left (fun acc (j : Ir.pulse_job) -> acc + j.Ir.jretries) 0 reps
      in
      { ir with Ir.schedule = Some best; degraded_blocks; pulse_retries })
