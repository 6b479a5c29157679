(* GRAPE: gradient ascent pulse engineering (Khaneja et al. 2005).

   Piecewise-constant controls u[j][k] over [slots] intervals of length dt.
   The slot propagator is U_k = exp(-i dt (H0 + sum_j u_jk H_j)); the
   figure of merit is the global-phase-invariant gate fidelity
     F = |tr(U_target^dag U_N ... U_1)| / d.
   Gradients use the standard first-order GRAPE approximation
   dU_k/du_jk ~ -i dt H_j U_k, evaluated with forward/backward propagator
   caching, and are ascended with Adam under amplitude clipping.

   The solver is batched.  [optimize_batch] advances B independent
   equal-dimension jobs in lockstep: one [Batch] kernel call per time
   slice spans all pending jobs, and per-slice masks let jobs with fewer
   slots or early stops drop out without repacking.  Every batched kernel
   op on slice [i] is the exact floating-point operation sequence of the
   per-matrix op (lib/linalg/kernels.ml), and all per-job scalar state
   (RNG, Adam moments, stop logic) is private to the job, so a job's
   result is bit-identical whatever batch it rides in — [optimize] is
   literally a batch of one.  Execution choices (chunking over the
   domain pool, EPOC_JOBS) can change only wall-clock, never values.

   Large solves (see [segments]) route to a checkpoint-parallel core
   instead: the slot chain is split into segments, per-segment local
   prefix products / suffix products / gradient sweeps fan out over the
   pool, and only the per-segment boundary recombination is sequential.
   The segmentation is a pure function of (dim, slots) — never of worker
   count — so it pins the association of every floating-point reduction
   and those solves are also bit-identical for any EPOC_JOBS.

   The lockstep inner loop is allocation-free: all matrix scratch lives
   in a [workspace] reused across iterations, attempts and whole solve
   sequences (the duration search passes one workspace through every
   attempt), and convergence samples are recorded into preallocated
   arrays, listified once per solve. *)

open Epoc_linalg
module Pool = Epoc_parallel.Pool
module Metrics = Epoc_obs.Metrics

(* Shared log source for the QOC layer (GRAPE + the duration search). *)
let log_src = Logs.Src.create "epoc.qoc" ~doc:"EPOC quantum optimal control"

module Log = (val Logs.src_log log_src : Logs.LOG)

type pulse = {
  dt : float;
  labels : string array; (* control labels, parallel to amplitudes *)
  amplitudes : float array array; (* [control][slot], rad/ns *)
}

let duration p =
  match p.amplitudes with
  | [||] -> 0.0
  | a -> float_of_int (Array.length a.(0)) *. p.dt

let slot_count p = match p.amplitudes with [||] -> 0 | a -> Array.length a.(0)

(* CSV export of the pulse envelopes: one row per slot, one column per
   control channel.  Loadable by any waveform/AWG tooling. *)
let pulse_to_csv (p : pulse) =
  let b = Buffer.create 1024 in
  Buffer.add_string b "t_ns";
  Array.iter (fun l -> Buffer.add_string b ("," ^ l)) p.labels;
  Buffer.add_char b '\n';
  for k = 0 to slot_count p - 1 do
    Buffer.add_string b (Printf.sprintf "%.3f" (float_of_int k *. p.dt));
    Array.iter
      (fun amps -> Buffer.add_string b (Printf.sprintf ",%.6f" amps.(k)))
      p.amplitudes;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

type options = {
  iterations : int;
  learning_rate : float;
  fidelity_target : float;
  patience : int;
  init : float array array option;
      (* warm-start amplitudes [control][slot] from a cached near-neighbor
         pulse; resampled to the requested slot count and clipped to the
         drive limit.  [None] = random cold start. *)
}

let default_options =
  {
    iterations = 300;
    learning_rate = 0.08;
    fidelity_target = 0.999;
    patience = 50;
    init = None;
  }

(* Why the ascent loop ended. *)
type stop_reason =
  | Target_hit (* fidelity target reached *)
  | Patience (* no improvement for [patience] iterations *)
  | Budget (* iteration budget exhausted *)

let stop_reason_name = function
  | Target_hit -> "target"
  | Patience -> "patience"
  | Budget -> "budget"

(* One point of the convergence series, recorded every iteration. *)
type sample = {
  it : int; (* 1-based iteration *)
  s_fidelity : float;
  s_grad_norm : float; (* L2 norm over all (control, slot) gradients *)
  s_step : float; (* mean |amplitude update| this iteration, rad/ns *)
}

type result = {
  pulse : pulse;
  fidelity : float;
  achieved : Mat.t; (* realized total propagator *)
  iterations : int;
  stop : stop_reason;
  warm_start : bool; (* ascent was seeded from cached amplitudes *)
  series : sample list; (* convergence telemetry, oldest first *)
}

(* Assemble H = H0 + sum_j u_j H_j into [h] (preallocated). *)
let assemble_hamiltonian ~h0 ~(ctrls : Hardware.control array) amps k ~h =
  Mat.copy_into ~src:h0 ~dst:h;
  Array.iteri
    (fun j (c : Hardware.control) ->
      Mat.add_scaled_re_into amps.(j).(k) c.Hardware.matrix ~dst:h)
    ctrls

(* Total propagator for a pulse under the hardware model. *)
let propagate hw (p : pulse) =
  let h0 = Hardware.drift hw in
  let ctrls = Array.of_list (Hardware.controls hw) in
  let dim = Mat.rows h0 in
  let es = Expm.scratch dim in
  let h = Mat.create dim dim in
  let step = Mat.create dim dim in
  let u = Mat.identity dim in
  let tmp = Mat.create dim dim in
  for k = 0 to slot_count p - 1 do
    assemble_hamiltonian ~h0 ~ctrls p.amplitudes k ~h;
    Expm.expi_hermitian_into es h p.dt ~dst:step;
    Mat.mul_into step u ~dst:tmp;
    Mat.copy_into ~src:tmp ~dst:u
  done;
  u

let fidelity_of target u = Mat.hs_fidelity target u

(* --- batched jobs and per-job solver state ------------------------------ *)

type batch_job = {
  bj_hw : Hardware.t;
  bj_target : Mat.t;
  bj_slots : int;
  bj_options : options;
  bj_rng : Random.State.t option;
  bj_budget : Epoc_budget.t;
  bj_fault : Epoc_fault.spec option;
  bj_site : string;
  bj_attempt : int;
}

let batch_job ?(options = default_options) ?rng
    ?(budget = Epoc_budget.unlimited) ?fault ?(site = "grape") ?(attempt = 0)
    hw ~target ~slots =
  {
    bj_hw = hw;
    bj_target = target;
    bj_slots = slots;
    bj_options = options;
    bj_rng = rng;
    bj_budget = budget;
    bj_fault = fault;
    bj_site = site;
    bj_attempt = attempt;
  }

(* All mutable state of one job mid-solve.  Matrix-shaped scratch lives
   in the shared workspace; everything here is per-job and touched by
   exactly one domain at a time, which is what keeps batching and
   chunking value-transparent. *)
type jstate = {
  j_hw : Hardware.t;
  j_target : Mat.t;
  j_target_dag : Mat.t;
  j_slots : int;
  j_opts : options;
  j_budget : Epoc_budget.t;
  j_site : string;
  j_nc : int;
  j_ctrls : Hardware.control array;
  j_h0 : Mat.t;
  j_limit : float;
  j_dt : float;
  j_dim_f : float;
  j_warm : bool;
  j_amp : float array array; (* current amplitudes [control][slot] *)
  j_best_amp : float array array; (* preallocated best-so-far copy *)
  j_madam : float array array;
  j_vadam : float array array;
  j_nan : bool; (* injected-fault decisions, resolved up front *)
  j_deadline : bool;
  mutable j_iters : int;
  mutable j_since : int;
  mutable j_stop : stop_reason;
  mutable j_running : bool;
  mutable j_err : Epoc_error.t option;
  (* Hot per-iteration floats: 0 = current fidelity, 1/2 = gradient
     phase (re, im), 3 = best fidelity so far.  A float array rather
     than mutable float fields because writing a float into a
     mixed-field record allocates a fresh box per store (no flambda);
     float-array stores are unboxed. *)
  j_hot : float array;
  j_acc : float array; (* (grad_sq, step_abs) for the lockstep core *)
  (* convergence series, recorded into flat arrays (at most one sample
     per iteration) and listified once per solve *)
  j_s_it : int array;
  j_s_fid : float array;
  j_s_grad : float array;
  j_s_step : float array;
  mutable j_ns : int;
}

let make_state (bj : batch_job) =
  let hw = bj.bj_hw in
  let dim = 1 lsl hw.Hardware.n in
  let slots = bj.bj_slots in
  let options = bj.bj_options in
  let rng =
    match bj.bj_rng with Some r -> r | None -> Random.State.make [| 23 |]
  in
  let h0 = Hardware.drift hw in
  let ctrls = Array.of_list (Hardware.controls hw) in
  let nc = Array.length ctrls in
  let limit = hw.Hardware.drive_limit in
  (* A cached near-neighbor pulse seeds the ascent when its control count
     matches this hardware; its slot axis is nearest-neighbor-resampled to
     the requested count (duration search probes different slot counts
     than the cached pulse was solved at) and clipped to the drive limit.
     Otherwise start from small random pulses to break symmetry. *)
  let warm_init =
    match options.init with
    | Some rows
      when Array.length rows = nc
           && Array.for_all (fun r -> Array.length r > 0) rows
           && nc > 0 ->
        Some
          (Array.map
             (fun row ->
               let len = Array.length row in
               Array.init slots (fun k ->
                   let v = row.(k * len / slots) in
                   Float.max (-.limit) (Float.min limit v)))
             rows)
    | _ -> None
  in
  let u_amp =
    match warm_init with
    | Some amps -> amps
    | None ->
        Array.init nc (fun _ ->
            Array.init slots (fun _ ->
                0.2 *. limit *. (Random.State.float rng 2.0 -. 1.0)))
  in
  (* Injected faults are resolved once, before the loop: the decision is
     a pure function of (seed, kind, site, attempt), so the fault pattern
     is identical for any domain count. *)
  let site = bj.bj_site and attempt = bj.bj_attempt in
  {
    j_hw = hw;
    j_target = bj.bj_target;
    j_target_dag = Mat.adjoint bj.bj_target;
    j_slots = slots;
    j_opts = options;
    j_budget = bj.bj_budget;
    j_site = site;
    j_nc = nc;
    j_ctrls = ctrls;
    j_h0 = h0;
    j_limit = limit;
    j_dt = hw.Hardware.dt;
    j_dim_f = float_of_int dim;
    j_warm = warm_init <> None;
    j_amp = u_amp;
    j_best_amp = Array.map Array.copy u_amp;
    j_madam = Array.init nc (fun _ -> Array.make slots 0.0);
    j_vadam = Array.init nc (fun _ -> Array.make slots 0.0);
    j_nan = Epoc_fault.fires_opt bj.bj_fault ~kind:"grape_nan" ~site ~attempt;
    j_deadline =
      Epoc_fault.fires_opt bj.bj_fault ~kind:"deadline" ~site ~attempt;
    j_iters = 0;
    j_since = 0;
    j_stop = Budget;
    j_running = true;
    j_err = None;
    j_hot = [| 0.0; 0.0; 0.0; 0.0 |];
    j_acc = [| 0.0; 0.0 |];
    j_s_it = Array.make (Stdlib.max 1 options.iterations) 0;
    j_s_fid = Array.make (Stdlib.max 1 options.iterations) 0.0;
    j_s_grad = Array.make (Stdlib.max 1 options.iterations) 0.0;
    j_s_step = Array.make (Stdlib.max 1 options.iterations) 0.0;
    j_ns = 0;
  }

let beta1 = 0.9
let beta2 = 0.999
let adam_eps = 1e-8

(* Convergence samples, at most one per iteration per job.  Float
   inputs arrive through [j_hot] / [j_acc] rather than float
   parameters: without flambda a non-inlined call boxes every float
   argument, and these sit in the per-iteration path. *)
let record_stop st it =
  let i = st.j_ns in
  st.j_s_it.(i) <- it;
  st.j_s_fid.(i) <- st.j_hot.(0);
  st.j_s_grad.(i) <- 0.0;
  st.j_s_step.(i) <- 0.0;
  st.j_ns <- i + 1

let record_grad st it =
  let i = st.j_ns in
  st.j_s_it.(i) <- it;
  st.j_s_fid.(i) <- st.j_hot.(0);
  st.j_s_grad.(i) <- Stdlib.sqrt st.j_acc.(0);
  st.j_s_step.(i) <- st.j_acc.(1) /. float_of_int (st.j_nc * st.j_slots);
  st.j_ns <- i + 1

let fail st e =
  st.j_err <- Some e;
  st.j_running <- false

(* Budget / injected-fault checks at the top of iteration [it]; false
   means the job just errored out. *)
let check_job st it =
  st.j_iters <- it;
  match
    Epoc_budget.check ~site:st.j_site st.j_budget;
    if st.j_deadline then
      Epoc_error.raise_
        (Epoc_error.Deadline_exceeded
           { site = st.j_site; elapsed_s = Epoc_budget.elapsed_s st.j_budget });
    if st.j_nan then
      Epoc_error.raise_
        (Epoc_error.Solver_diverged
           { site = st.j_site; detail = "injected grape_nan" })
  with
  | () -> true
  | exception Epoc_error.Error e ->
      fail st e;
      false

(* Consume the fidelity overlap z = tr(U_target^dag U): track the best
   pulse, decide stopping, stage the gradient phase factor.  Returns
   true when the backward sweep should run this iteration.  The phase
   expressions replicate [Cx.div (Cx.conj z) (Cx.of_float n)] term by
   term so batched solves match the historical solver bitwise. *)
let eval_fidelity st it (tr : float array) ti =
  let zre = tr.(ti) and zim = tr.(ti + 1) in
  (* |z| inline, replicating [Stdlib.Complex.norm]'s overflow-safe
     scaled form on plain floats; a helper call would box both operands *)
  let az =
    let r = Float.abs zre and i = Float.abs zim in
    if r = 0.0 then i
    else if i = 0.0 then r
    else if r >= i then
      let q = i /. r in
      r *. Stdlib.sqrt (1.0 +. (q *. q))
    else
      let q = r /. i in
      i *. Stdlib.sqrt (1.0 +. (q *. q))
  in
  let fnow = az /. st.j_dim_f in
  if not (Float.is_finite fnow) then begin
    fail st
      (Epoc_error.Solver_diverged
         {
           site = st.j_site;
           detail = Printf.sprintf "non-finite fidelity at iteration %d" it;
         });
    false
  end
  else begin
    st.j_hot.(0) <- fnow;
    if fnow > st.j_hot.(3) then begin
      st.j_hot.(3) <- fnow;
      for j = 0 to st.j_nc - 1 do
        Array.blit st.j_amp.(j) 0 st.j_best_amp.(j) 0 st.j_slots
      done;
      st.j_since <- 0
    end
    else st.j_since <- st.j_since + 1;
    if fnow >= st.j_opts.fidelity_target then begin
      st.j_stop <- Target_hit;
      record_stop st it;
      st.j_running <- false;
      false
    end
    else if st.j_since > st.j_opts.patience then begin
      st.j_stop <- Patience;
      record_stop st it;
      st.j_running <- false;
      false
    end
    else begin
      (* phase = conj z / max(|z|, eps), written as [Complex.div] by a
         real denominator computes it *)
      let n = Float.max az 1e-12 in
      let r = 0.0 /. n in
      let d = n +. (r *. 0.0) in
      st.j_hot.(1) <- (zre +. (r *. -.zim)) /. d;
      st.j_hot.(2) <- (-.zim -. (r *. zre)) /. d;
      true
    end
  end

(* One Adam ascent step for control [j], slot [k], from the gradient
   inner product tr(a H_j) read at [tr.(ti)], [tr.(ti + 1)].  [pw]
   holds (beta1^it, beta2^it), hoisted per iteration (they depend only
   on [it]).  All floats cross this call through arrays — this runs
   once per (control, slot, iteration) and float arguments of a
   non-inlined call are boxed without flambda.  Accumulates
   (grad^2, |step|) into [acc] — per-job in the lockstep core,
   per-segment in the checkpoint core, never shared between domains. *)
let adam_update st (pw : float array) j k (tr : float array) ti
    (acc : float array) =
  let tr_re = tr.(ti) and tr_im = tr.(ti + 1) in
  let dt = st.j_dt in
  (* dz = -i dt tr;  dF = Re(phase * dz) / d *)
  let dz_re = (0.0 *. tr_re) -. (-.dt *. tr_im) in
  let dz_im = (0.0 *. tr_im) +. (-.dt *. tr_re) in
  let grad =
    ((st.j_hot.(1) *. dz_re) -. (st.j_hot.(2) *. dz_im)) /. st.j_dim_f
  in
  acc.(0) <- acc.(0) +. (grad *. grad);
  let mj = st.j_madam.(j) and vj = st.j_vadam.(j) in
  mj.(k) <- (beta1 *. mj.(k)) +. ((1.0 -. beta1) *. grad);
  vj.(k) <- (beta2 *. vj.(k)) +. ((1.0 -. beta2) *. grad *. grad);
  let mh = mj.(k) /. (1.0 -. pw.(0)) in
  let vh = vj.(k) /. (1.0 -. pw.(1)) in
  let next =
    st.j_amp.(j).(k)
    +. (st.j_opts.learning_rate *. st.j_limit *. mh
       /. (Stdlib.sqrt vh +. adam_eps))
  in
  (* clip in two bindings: nesting the [Float.min] call as an argument
     of [Float.max] defeats their [@inline] and boxes the intermediate *)
  let lo = Float.min st.j_limit next in
  let clipped = Float.max (-.st.j_limit) lo in
  acc.(1) <- acc.(1) +. Float.abs (clipped -. st.j_amp.(j).(k));
  st.j_amp.(j).(k) <- clipped

let finalize st =
  match st.j_err with
  | Some e -> Error e
  | None ->
      let labels = Array.map (fun c -> c.Hardware.label) st.j_ctrls in
      let pulse =
        {
          dt = st.j_dt;
          labels;
          amplitudes = Array.map Array.copy st.j_best_amp;
        }
      in
      let achieved = propagate st.j_hw pulse in
      let fidelity = fidelity_of st.j_target achieved in
      let series = ref [] in
      for i = st.j_ns - 1 downto 0 do
        series :=
          {
            it = st.j_s_it.(i);
            s_fidelity = st.j_s_fid.(i);
            s_grad_norm = st.j_s_grad.(i);
            s_step = st.j_s_step.(i);
          }
          :: !series
      done;
      Log.debug (fun m ->
          m "grape: %d qubits, %d slots, %d iters, F=%.6f, stop=%s%s"
            st.j_hw.Hardware.n st.j_slots st.j_iters fidelity
            (stop_reason_name st.j_stop)
            (if st.j_warm then " (warm start)" else ""));
      Ok
        {
          pulse;
          fidelity;
          achieved;
          iterations = st.j_iters;
          stop = st.j_stop;
          warm_start = st.j_warm;
          series = !series;
        }

(* --- workspace ---------------------------------------------------------- *)

(* Lockstep buffers for one execution chunk: batch capacity [lb_cap] at
   dim [lb_dim], slot chains up to [lb_slots].  Capacities only grow, so
   a duration search reuses one allocation across all its attempts. *)
type lockstep_bufs = {
  lb_dim : int;
  lb_cap : int;
  lb_slots : int;
  lb_hb : Batch.t; (* Hamiltonian assembly *)
  lb_props : Batch.t array; (* slot propagators, per k *)
  lb_fwd : Batch.t array; (* forward products; fwd.(0) = I *)
  lb_bb : Batch.t; (* backward accumulator + its swap buffer *)
  lb_bb2 : Batch.t;
  lb_mb : Batch.t;
  lb_ab : Batch.t;
  lb_bs : Batch.scratch;
  lb_mask : bool array; (* per-slice slot liveness *)
  lb_maskc : bool array; (* refined per-control liveness (ragged nc) *)
  (* the same two masks pre-wrapped in [Some]: passing [?mask:opt] to a
     [Batch] op reuses these, where [~mask:arr] would allocate a fresh
     [Some] per call — hundreds per iteration *)
  lb_mask_o : bool array option;
  lb_maskc_o : bool array option;
  lb_grad : bool array; (* gradient phase runs for this slice *)
  lb_coeff : float array;
  lb_dts : float array;
  lb_tr : float array; (* interleaved per-slice (re, im) reductions *)
  lb_pw : float array; (* (beta1^it, beta2^it), rewritten per iteration *)
  lb_fill : Mat.t; (* dim x dim filler behind masked-out Mat slots *)
  mutable lb_flag : bool; (* "any slice live" scratch, no per-k alloc *)
}

let make_lockstep ~dim ~cap ~slots =
  let mask = Array.make cap false in
  let maskc = Array.make cap false in
  {
    lb_dim = dim;
    lb_cap = cap;
    lb_slots = slots;
    lb_hb = Batch.create cap dim;
    lb_props = Array.init slots (fun _ -> Batch.create cap dim);
    lb_fwd = Array.init (slots + 1) (fun _ -> Batch.create cap dim);
    lb_bb = Batch.create cap dim;
    lb_bb2 = Batch.create cap dim;
    lb_mb = Batch.create cap dim;
    lb_ab = Batch.create cap dim;
    lb_bs = Batch.scratch dim;
    lb_mask = mask;
    lb_maskc = maskc;
    lb_mask_o = Some mask;
    lb_maskc_o = Some maskc;
    lb_grad = Array.make cap false;
    lb_coeff = Array.make cap 0.0;
    lb_dts = Array.make cap 0.0;
    lb_tr = Array.make (2 * cap) 0.0;
    lb_pw = [| 0.0; 0.0 |];
    lb_fill = Mat.create dim dim;
    lb_flag = false;
  }

(* Per-segment buffers of the checkpoint-parallel core; each is owned by
   exactly one segment worker during the parallel phases. *)
type seg_bufs = {
  sg_h : Mat.t;
  sg_es : Expm.scratch;
  sg_m : Mat.t;
  sg_a : Mat.t;
  mutable sg_b : Mat.t;
  mutable sg_b2 : Mat.t;
  mutable sg_q : Mat.t; (* local suffix product of slot propagators *)
  mutable sg_q2 : Mat.t;
  sg_tmp : Mat.t;
  sg_tr : float array;
  sg_acc : float array; (* per-segment (grad_sq, step_abs) partials *)
}

let make_seg dim =
  {
    sg_h = Mat.create dim dim;
    sg_es = Expm.scratch dim;
    sg_m = Mat.create dim dim;
    sg_a = Mat.create dim dim;
    sg_b = Mat.create dim dim;
    sg_b2 = Mat.create dim dim;
    sg_q = Mat.create dim dim;
    sg_q2 = Mat.create dim dim;
    sg_tmp = Mat.create dim dim;
    sg_tr = [| 0.0; 0.0 |];
    sg_acc = [| 0.0; 0.0 |];
  }

type ck_bufs = {
  ck_dim : int;
  ck_slots : int;
  ck_nseg : int;
  ck_props : Mat.t array; (* per-slot propagators *)
  ck_fwd : Mat.t array; (* forward products (local, then rebased) *)
  ck_cps : Mat.t array; (* true forward boundary after segment s *)
  ck_ent : Mat.t array; (* backward entry E_s into segment s *)
  ck_segs : seg_bufs array;
  ck_tr : float array;
  ck_pw : float array; (* (beta1^it, beta2^it), rewritten per iteration *)
}

let make_ck ~dim ~slots ~nseg =
  {
    ck_dim = dim;
    ck_slots = slots;
    ck_nseg = nseg;
    ck_props = Array.init slots (fun _ -> Mat.create dim dim);
    ck_fwd = Array.init (slots + 1) (fun _ -> Mat.create dim dim);
    ck_cps = Array.init nseg (fun _ -> Mat.create dim dim);
    ck_ent = Array.init nseg (fun _ -> Mat.create dim dim);
    ck_segs = Array.init nseg (fun _ -> make_seg dim);
    ck_tr = [| 0.0; 0.0 |];
    ck_pw = [| 0.0; 0.0 |];
  }

type workspace = {
  mutable ws_lock : lockstep_bufs option array; (* one slot per chunk *)
  mutable ws_ck : ck_bufs option;
  ws_metrics : Metrics.t option;
      (* engine-scoped sink for wall-clock gauges (iters/s); never a
         per-run registry — throughput is non-deterministic *)
}

let workspace ?metrics () = { ws_lock = [||]; ws_ck = None; ws_metrics = metrics }

let ensure_lockstep ws idx ~dim ~cap ~slots =
  if Array.length ws.ws_lock <= idx then begin
    let grown = Array.make (idx + 1) None in
    Array.blit ws.ws_lock 0 grown 0 (Array.length ws.ws_lock);
    ws.ws_lock <- grown
  end;
  match ws.ws_lock.(idx) with
  | Some l when l.lb_dim = dim && l.lb_cap >= cap && l.lb_slots >= slots -> l
  | prev ->
      let cap, slots =
        match prev with
        | Some l when l.lb_dim = dim ->
            (Stdlib.max cap l.lb_cap, Stdlib.max slots l.lb_slots)
        | _ -> (cap, slots)
      in
      let l = make_lockstep ~dim ~cap ~slots in
      ws.ws_lock.(idx) <- Some l;
      l

let ensure_ck ws ~dim ~slots ~nseg =
  match ws.ws_ck with
  | Some c when c.ck_dim = dim && c.ck_slots >= slots && c.ck_nseg >= nseg ->
      c
  | prev ->
      let slots, nseg =
        match prev with
        | Some c when c.ck_dim = dim ->
            (Stdlib.max slots c.ck_slots, Stdlib.max nseg c.ck_nseg)
        | _ -> (slots, nseg)
      in
      let c = make_ck ~dim ~slots ~nseg in
      ws.ws_ck <- Some c;
      c

(* --- routing ------------------------------------------------------------ *)

(* Number of checkpoint segments for a solve: a pure function of
   (dim, slots) — never of pool size or EPOC_JOBS — because it pins the
   association of every floating-point reduction in the checkpoint core.
   Only solves with enough arithmetic per slot to amortize the extra
   per-slot products and the per-iteration fork/join qualify; small-dim
   solves always take the lockstep core. *)
let segments ~dim ~slots =
  if dim >= 8 && dim * dim * dim * slots >= 131072 then
    Stdlib.max 2 (Stdlib.min 8 (slots / 32))
  else 1

(* --- lockstep batched core ---------------------------------------------- *)

(* Advance every job in [sts] to completion, one batched kernel call per
   time slice.  Masks carry ragged slot counts, ragged control counts
   and early-stopped jobs; a masked slice is never read or written, so
   each job's value stream is exactly the single-job solver's. *)
let run_lockstep (l : lockstep_bufs) (sts : jstate array) =
  let b = Array.length sts in
  let cap = l.lb_cap in
  let dim = l.lb_dim in
  let mask = l.lb_mask and cmask = l.lb_maskc and gmask = l.lb_grad in
  let max_slots = ref 0 and max_iters = ref 0 and max_nc = ref 0 in
  Array.iter
    (fun st ->
      max_slots := Stdlib.max !max_slots st.j_slots;
      max_iters := Stdlib.max !max_iters st.j_opts.iterations;
      max_nc := Stdlib.max !max_nc st.j_nc)
    sts;
  let max_slots = !max_slots
  and max_iters = !max_iters
  and max_nc = !max_nc in
  (* staged per-slice Mat operands; [lb_fill] sits behind masked slots
     so shape checks pass without touching any live slice *)
  let h0_mats =
    Array.init cap (fun i -> if i < b then sts.(i).j_h0 else l.lb_fill)
  in
  let ctrl_mats =
    Array.init max_nc (fun j ->
        Array.init cap (fun i ->
            if i < b && j < sts.(i).j_nc then
              sts.(i).j_ctrls.(j).Hardware.matrix
            else l.lb_fill))
  in
  for i = 0 to cap - 1 do
    l.lb_dts.(i) <- (if i < b then sts.(i).j_dt else 0.0);
    mask.(i) <- false;
    cmask.(i) <- false;
    gmask.(i) <- false
  done;
  Batch.set_identity l.lb_fwd.(0);
  let bb = ref l.lb_bb and bb2 = ref l.lb_bb2 in
  let it = ref 1 in
  let running = ref true in
  while !running && !it <= max_iters do
    let t = !it in
    for i = 0 to b - 1 do
      let st = sts.(i) in
      if st.j_running then
        if t > st.j_opts.iterations then st.j_running <- false
        else ignore (check_job st t)
    done;
    (* forward: assemble, exponentiate and chain every live slice *)
    for k = 0 to max_slots - 1 do
      l.lb_flag <- false;
      for i = 0 to cap - 1 do
        let live = i < b && sts.(i).j_running && k < sts.(i).j_slots in
        mask.(i) <- live;
        if live then l.lb_flag <- true
      done;
      if l.lb_flag then begin
        Batch.set_from_mats ?mask:l.lb_mask_o h0_mats ~dst:l.lb_hb;
        for j = 0 to max_nc - 1 do
          l.lb_flag <- false;
          for i = 0 to cap - 1 do
            let livec = mask.(i) && j < sts.(i).j_nc in
            cmask.(i) <- livec;
            if livec then begin
              l.lb_coeff.(i) <- sts.(i).j_amp.(j).(k);
              l.lb_flag <- true
            end
          done;
          if l.lb_flag then
            Batch.add_scaled_re_into ?mask:l.lb_maskc_o l.lb_coeff
              ctrl_mats.(j) ~dst:l.lb_hb
        done;
        Batch.expi_hermitian_into ?mask:l.lb_mask_o l.lb_bs l.lb_hb l.lb_dts
          ~dst:l.lb_props.(k);
        Batch.mul_into ?mask:l.lb_mask_o l.lb_props.(k) l.lb_fwd.(k)
          ~dst:l.lb_fwd.(k + 1)
      end
    done;
    (* fidelity + stop logic, per job (ragged slot counts) *)
    l.lb_flag <- false;
    for i = 0 to cap - 1 do
      gmask.(i) <- false
    done;
    for i = 0 to b - 1 do
      let st = sts.(i) in
      if st.j_running then begin
        let u_total = l.lb_fwd.(st.j_slots) in
        Kernels.trace_mul ~d:dim (Mat.data st.j_target_dag) 0
          (Batch.data u_total)
          (Batch.offset u_total i)
          l.lb_tr (2 * i);
        if eval_fidelity st t l.lb_tr (2 * i) then begin
          gmask.(i) <- true;
          st.j_acc.(0) <- 0.0;
          st.j_acc.(1) <- 0.0;
          l.lb_flag <- true
        end
      end
    done;
    if l.lb_flag then begin
      (* seed both swap buffers: a job with fewer slots than the batch
         maximum leaves its slice untouched until its first live k, so
         both buffers must hold its U_t^dag entry state *)
      for i = 0 to b - 1 do
        if gmask.(i) then begin
          Batch.set_from_mat !bb i sts.(i).j_target_dag;
          Batch.set_from_mat !bb2 i sts.(i).j_target_dag
        end
      done;
      l.lb_pw.(0) <- Float.pow beta1 (float_of_int t);
      l.lb_pw.(1) <- Float.pow beta2 (float_of_int t);
      for k = max_slots - 1 downto 0 do
        l.lb_flag <- false;
        for i = 0 to cap - 1 do
          let live = i < b && gmask.(i) && k < sts.(i).j_slots in
          mask.(i) <- live;
          if live then l.lb_flag <- true
        done;
        if l.lb_flag then begin
          Batch.mul_into ?mask:l.lb_mask_o l.lb_fwd.(k) !bb ~dst:l.lb_mb;
          Batch.mul_into ?mask:l.lb_mask_o l.lb_props.(k) l.lb_mb
            ~dst:l.lb_ab;
          for j = 0 to max_nc - 1 do
            l.lb_flag <- false;
            for i = 0 to cap - 1 do
              let livec = mask.(i) && j < sts.(i).j_nc in
              cmask.(i) <- livec;
              if livec then l.lb_flag <- true
            done;
            if l.lb_flag then begin
              Batch.trace_mul_right ?mask:l.lb_maskc_o l.lb_ab ctrl_mats.(j)
                ~out:l.lb_tr;
              for i = 0 to b - 1 do
                if cmask.(i) then
                  adam_update sts.(i) l.lb_pw j k l.lb_tr (2 * i)
                    sts.(i).j_acc
              done
            end
          done;
          Batch.mul_into ?mask:l.lb_mask_o !bb l.lb_props.(k) ~dst:!bb2;
          let tmp = !bb in
          bb := !bb2;
          bb2 := tmp
        end
      done;
      for i = 0 to b - 1 do
        let st = sts.(i) in
        if gmask.(i) then record_grad st t
      done
    end;
    running := false;
    for i = 0 to b - 1 do
      if sts.(i).j_running then running := true
    done;
    incr it
  done

(* --- checkpoint-parallel core ------------------------------------------- *)

(* Single large solve with the slot chain split into [segments] fixed
   segments.  Per iteration:

   forward   per segment in parallel: slot propagators and LOCAL prefix
             products (segment s > 0 chains from identity);
   combine   sequentially: true boundary products cps.(s) from the local
             segment totals;
   rebase    per segment in parallel: local prefixes times the incoming
             boundary = true forward products;
   backward  per segment in parallel: local suffix products Q_s; then
             sequentially the entry matrices E_(s-1) = E_s Q_s; then per
             segment in parallel the gradient sweep over its own slots
             (disjoint (j, k) columns, per-segment accumulators).

   Every product association above is fixed by the segment boundaries,
   which depend only on (dim, slots), so results are identical for any
   pool size — including [Pool.sequential]. *)
let run_checkpoint pool (c : ck_bufs) (st : jstate) =
  let dim = c.ck_dim in
  let slots = st.j_slots in
  let nseg = segments ~dim ~slots in
  let lo s = s * slots / nseg in
  let seg_ids = List.init nseg (fun s -> s) in
  let tail_ids = List.init (nseg - 1) (fun s -> s + 1) in
  let iters = st.j_opts.iterations in
  Mat.set_identity c.ck_fwd.(0);
  let it = ref 1 in
  while st.j_running && !it <= iters do
    let t = !it in
    if check_job st t then begin
      ignore
        (Pool.map pool
           (fun s ->
             let sb = c.ck_segs.(s) in
             let first = lo s and hi = lo (s + 1) in
             for k = first to hi - 1 do
               assemble_hamiltonian ~h0:st.j_h0 ~ctrls:st.j_ctrls st.j_amp k
                 ~h:sb.sg_h;
               Expm.expi_hermitian_into sb.sg_es sb.sg_h st.j_dt
                 ~dst:c.ck_props.(k);
               if k = first && s > 0 then
                 Mat.copy_into ~src:c.ck_props.(k) ~dst:c.ck_fwd.(k + 1)
               else
                 Mat.mul_into c.ck_props.(k) c.ck_fwd.(k)
                   ~dst:c.ck_fwd.(k + 1)
             done)
           seg_ids);
      for s = 1 to nseg - 1 do
        let bprev = if s = 1 then c.ck_fwd.(lo 1) else c.ck_cps.(s - 1) in
        Mat.mul_into c.ck_fwd.(lo (s + 1)) bprev ~dst:c.ck_cps.(s)
      done;
      ignore
        (Pool.map pool
           (fun s ->
             let sb = c.ck_segs.(s) in
             let first = lo s and hi = lo (s + 1) in
             let bprev = if s = 1 then c.ck_fwd.(lo 1) else c.ck_cps.(s - 1) in
             for k = first + 1 to hi - 1 do
               Mat.mul_into c.ck_fwd.(k) bprev ~dst:sb.sg_tmp;
               Mat.copy_into ~src:sb.sg_tmp ~dst:c.ck_fwd.(k)
             done;
             if s > 1 then Mat.copy_into ~src:bprev ~dst:c.ck_fwd.(first);
             if s = nseg - 1 then
               Mat.copy_into ~src:c.ck_cps.(s) ~dst:c.ck_fwd.(slots))
           tail_ids);
      Kernels.trace_mul ~d:dim (Mat.data st.j_target_dag) 0
        (Mat.data c.ck_fwd.(slots))
        0 c.ck_tr 0;
      if eval_fidelity st t c.ck_tr 0 then begin
        c.ck_pw.(0) <- Float.pow beta1 (float_of_int t);
        c.ck_pw.(1) <- Float.pow beta2 (float_of_int t);
        ignore
          (Pool.map pool
             (fun s ->
               let sb = c.ck_segs.(s) in
               let first = lo s and hi = lo (s + 1) in
               Mat.copy_into ~src:c.ck_props.(hi - 1) ~dst:sb.sg_q;
               for k = hi - 2 downto first do
                 Mat.mul_into sb.sg_q c.ck_props.(k) ~dst:sb.sg_q2;
                 let tmp = sb.sg_q in
                 sb.sg_q <- sb.sg_q2;
                 sb.sg_q2 <- tmp
               done)
             tail_ids);
        Mat.copy_into ~src:st.j_target_dag ~dst:c.ck_ent.(nseg - 1);
        for s = nseg - 1 downto 1 do
          Mat.mul_into c.ck_ent.(s) c.ck_segs.(s).sg_q ~dst:c.ck_ent.(s - 1)
        done;
        ignore
          (Pool.map pool
             (fun s ->
               let sb = c.ck_segs.(s) in
               let first = lo s and hi = lo (s + 1) in
               sb.sg_acc.(0) <- 0.0;
               sb.sg_acc.(1) <- 0.0;
               Mat.copy_into ~src:c.ck_ent.(s) ~dst:sb.sg_b;
               for k = hi - 1 downto first do
                 Mat.mul_into c.ck_fwd.(k) sb.sg_b ~dst:sb.sg_m;
                 Mat.mul_into c.ck_props.(k) sb.sg_m ~dst:sb.sg_a;
                 for j = 0 to st.j_nc - 1 do
                   Kernels.trace_mul ~d:dim (Mat.data sb.sg_a) 0
                     (Mat.data st.j_ctrls.(j).Hardware.matrix)
                     0 sb.sg_tr 0;
                   adam_update st c.ck_pw j k sb.sg_tr 0 sb.sg_acc
                 done;
                 Mat.mul_into sb.sg_b c.ck_props.(k) ~dst:sb.sg_b2;
                 let tmp = sb.sg_b in
                 sb.sg_b <- sb.sg_b2;
                 sb.sg_b2 <- tmp
               done)
             seg_ids);
        st.j_acc.(0) <- 0.0;
        st.j_acc.(1) <- 0.0;
        for s = nseg - 1 downto 0 do
          st.j_acc.(0) <- st.j_acc.(0) +. c.ck_segs.(s).sg_acc.(0);
          st.j_acc.(1) <- st.j_acc.(1) +. c.ck_segs.(s).sg_acc.(1)
        done;
        record_grad st t
      end
    end;
    incr it
  done

(* --- orchestration ------------------------------------------------------ *)

let optimize_batch ?pool ?workspace:ws_opt (jobs : batch_job array) =
  let n = Array.length jobs in
  if n = 0 then [||]
  else begin
    let dim0 = 1 lsl jobs.(0).bj_hw.Hardware.n in
    Array.iter
      (fun bj ->
        let dim = 1 lsl bj.bj_hw.Hardware.n in
        if dim <> dim0 then
          invalid_arg "Grape.optimize_batch: mixed dimensions";
        if Mat.rows bj.bj_target <> dim then
          invalid_arg "Grape.optimize: dimension mismatch";
        if bj.bj_slots < 1 then
          invalid_arg "Grape.optimize: need at least one slot")
      jobs;
    let t0 = Monotonic_clock.now () in
    let ws = match ws_opt with Some w -> w | None -> workspace () in
    (* job states are created sequentially in job order: warm-init
       resampling and cold-start RNG draws happen on the coordinator, so
       a shared RNG across jobs is consumed in a deterministic order *)
    let sts =
      let first = make_state jobs.(0) in
      let a = Array.make n first in
      for i = 1 to n - 1 do
        a.(i) <- make_state jobs.(i)
      done;
      a
    in
    let big = ref [] and small = ref [] in
    Array.iter
      (fun st ->
        if segments ~dim:dim0 ~slots:st.j_slots > 1 then big := st :: !big
        else small := st :: !small)
      sts;
    let small = Array.of_list (List.rev !small) in
    let big = List.rev !big in
    let nsmall = Array.length small in
    if nsmall > 0 then begin
      let ndom = match pool with Some p -> Pool.domains p | None -> 1 in
      let nchunks = Stdlib.max 1 (Stdlib.min nsmall ndom) in
      let chunks =
        Array.init nchunks (fun c ->
            let start = c * nsmall / nchunks in
            let stop = (c + 1) * nsmall / nchunks in
            Array.sub small start (stop - start))
      in
      (* chunk workspaces are ensured on the coordinator before the
         fan-out: workers only use their own chunk's buffers and never
         grow the workspace *)
      let bufs =
        Array.mapi
          (fun c chunk ->
            let cap = Array.length chunk in
            let mslots =
              Array.fold_left (fun a st -> Stdlib.max a st.j_slots) 1 chunk
            in
            ensure_lockstep ws c ~dim:dim0 ~cap ~slots:mslots)
          chunks
      in
      match pool with
      | Some p when nchunks > 1 ->
          ignore
            (Pool.map p
               (fun c -> run_lockstep bufs.(c) chunks.(c))
               (List.init nchunks (fun c -> c)))
      | _ -> Array.iteri (fun c chunk -> run_lockstep bufs.(c) chunk) chunks
    end;
    (match big with
    | [] -> ()
    | _ ->
        let cpool = match pool with Some p -> p | None -> Pool.sequential in
        List.iter
          (fun st ->
            let nseg = segments ~dim:dim0 ~slots:st.j_slots in
            let c = ensure_ck ws ~dim:dim0 ~slots:st.j_slots ~nseg in
            run_checkpoint cpool c st)
          big);
    (* solver totals: the workspace's engine-scoped registry only —
       wall clock is non-deterministic and must stay out of the per-run
       registries the determinism tests compare.  The throughput is
       derived from the totals ([iters_per_s]), so it covers every batch
       recorded, not the last one. *)
    let total_iters = Array.fold_left (fun a st -> a + st.j_iters) 0 sts in
    let wall = Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) /. 1e9 in
    Option.iter
      (fun m ->
        Metrics.incr ~by:total_iters m "grape.solve_iterations";
        Metrics.observe m "grape.solve_seconds" wall)
      ws.ws_metrics;
    Array.map finalize sts
  end

(* Result-returning single solve: a batch of one. *)
let optimize_r ?options ?rng ?budget ?fault ?site ?attempt ?pool ?workspace hw
    ~target ~slots =
  let bj =
    batch_job ?options ?rng ?budget ?fault ?site ?attempt hw ~target ~slots
  in
  (optimize_batch ?pool ?workspace [| bj |]).(0)

(* Solver iterations per second over every batch recorded into [m]
   (total iterations over total solve wall time); [None] before any
   timed solve. *)
let iters_per_s m =
  match Metrics.hist_value m "grape.solve_seconds" with
  | Some h when h.Metrics.sum > 0.0 ->
      Some
        (float_of_int (Metrics.counter_value m "grape.solve_iterations")
        /. h.Metrics.sum)
  | _ -> None
