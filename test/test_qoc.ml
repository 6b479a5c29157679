open Epoc_linalg
open Epoc_circuit
open Epoc_qoc
open Epoc_pulse

let mat = Alcotest.testable Mat.pp (Mat.approx_equal ~eps:1e-9)

(* --- hardware ------------------------------------------------------------ *)

let test_hardware_drift () =
  let hw = Hardware.make 3 in
  let h0 = Hardware.drift hw in
  Alcotest.(check int) "dim" 8 (Mat.rows h0);
  Alcotest.(check bool) "hermitian" true (Mat.is_hermitian h0);
  Alcotest.(check (list (pair int int))) "chain coupling" [ (0, 1); (1, 2) ]
    hw.Hardware.coupling

let test_hardware_controls () =
  let hw = Hardware.make 2 in
  let cs = Hardware.controls hw in
  Alcotest.(check int) "x+y per qubit" 4 (List.length cs);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Hardware.label ^ " hermitian")
        true
        (Mat.is_hermitian c.Hardware.matrix))
    cs

let test_hardware_single_qubit_no_drift () =
  let hw = Hardware.make 1 in
  Alcotest.check mat "no drift on 1 qubit" (Mat.zeros 2 2) (Hardware.drift hw)

let test_reference_times () =
  let hw = Hardware.make 2 in
  Alcotest.(check (float 0.2)) "pi pulse 10ns" 10.0
    (Hardware.single_qubit_gate_time hw);
  Alcotest.(check (float 0.5)) "cz-equivalent 60ns" 60.0
    (Hardware.entangling_gate_time hw)

(* --- grape ---------------------------------------------------------------- *)

(* A solve the test expects to return a result. *)
let solve ?options ?rng hw ~target ~slots =
  match Grape.optimize_r ?options ?rng hw ~target ~slots with
  | Ok r -> r
  | Error e -> Alcotest.failf "solve failed: %s" (Epoc_error.to_string e)

let test_grape_identity_1q () =
  let hw = Hardware.make 1 in
  let r = solve hw ~target:(Mat.identity 2) ~slots:4 in
  Alcotest.(check bool)
    (Printf.sprintf "identity fidelity %.5f" r.Grape.fidelity)
    true
    (r.Grape.fidelity > 0.999)

let test_grape_x_gate () =
  let hw = Hardware.make 1 in
  let r = solve hw ~target:(Gate.matrix Gate.X) ~slots:24 in
  Alcotest.(check bool)
    (Printf.sprintf "x fidelity %.5f" r.Grape.fidelity)
    true
    (r.Grape.fidelity >= 0.999);
  (* achieved propagator is consistent with the reported fidelity *)
  Alcotest.(check (float 1e-9)) "achieved consistency" r.Grape.fidelity
    (Mat.hs_fidelity (Gate.matrix Gate.X) r.Grape.achieved)

let test_grape_hadamard () =
  let hw = Hardware.make 1 in
  let r = solve hw ~target:(Gate.matrix Gate.H) ~slots:24 in
  Alcotest.(check bool)
    (Printf.sprintf "h fidelity %.5f" r.Grape.fidelity)
    true
    (r.Grape.fidelity >= 0.999)

let test_grape_cnot () =
  let hw = Hardware.make 2 in
  let r = solve hw ~target:(Gate.matrix Gate.CX) ~slots:160 in
  Alcotest.(check bool)
    (Printf.sprintf "cx fidelity %.5f" r.Grape.fidelity)
    true
    (r.Grape.fidelity >= 0.999)

let test_grape_respects_amplitude_limit () =
  let hw = Hardware.make 1 in
  let r = solve hw ~target:(Gate.matrix Gate.Y) ~slots:24 in
  Array.iter
    (Array.iter (fun a ->
         Alcotest.(check bool) "amplitude clipped" true
           (Float.abs a <= hw.Hardware.drive_limit +. 1e-12)))
    r.Grape.pulse.Grape.amplitudes

let test_grape_propagate_unitary () =
  let hw = Hardware.make 2 in
  let r = solve hw ~target:(Gate.matrix Gate.CZ) ~slots:120 in
  Alcotest.(check bool) "propagator unitary" true
    (Mat.is_unitary ~eps:1e-7 r.Grape.achieved)

let test_grape_too_short_fails () =
  (* 2 ns cannot implement an X pi-rotation at the drive limit *)
  let hw = Hardware.make 1 in
  let r = solve hw ~target:(Gate.matrix Gate.X) ~slots:4 in
  Alcotest.(check bool)
    (Printf.sprintf "infeasible duration fidelity %.4f" r.Grape.fidelity)
    true
    (r.Grape.fidelity < 0.99)

(* --- batched grape -------------------------------------------------------- *)

(* The batching contract is exact: a job's result must be bit-identical
   to what the single-job solver returns — same amplitudes, fidelity,
   propagator, convergence series — regardless of batch composition or
   pool size.  Compare with structural [=] on floats, never an eps. *)

let check_result_exact what (a : Grape.result) (b : Grape.result) =
  Alcotest.(check (float 0.0))
    (what ^ ": fidelity") a.Grape.fidelity b.Grape.fidelity;
  Alcotest.(check int) (what ^ ": iterations") a.Grape.iterations
    b.Grape.iterations;
  Alcotest.(check string)
    (what ^ ": stop")
    (Grape.stop_reason_name a.Grape.stop)
    (Grape.stop_reason_name b.Grape.stop);
  Alcotest.(check bool)
    (what ^ ": amplitudes bit-identical")
    true
    (a.Grape.pulse.Grape.amplitudes = b.Grape.pulse.Grape.amplitudes);
  Alcotest.(check bool)
    (what ^ ": achieved bit-identical")
    true
    (Mat.data a.Grape.achieved = Mat.data b.Grape.achieved);
  Alcotest.(check bool)
    (what ^ ": series bit-identical")
    true
    (a.Grape.series = b.Grape.series)

let batch_ok what = function
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: unexpected error %s" what (Epoc_error.to_string e)

let test_grape_batch_matches_solo () =
  (* mixed targets, ragged slot counts, one warm-started job, all in one
     batch sharing a workspace: each slot must reproduce the standalone
     solve exactly *)
  let hw = Hardware.make 1 in
  let opts = { Grape.default_options with Grape.iterations = 40 } in
  let warm =
    {
      opts with
      Grape.init =
        Some
          (solve ~options:opts
             ~rng:(Random.State.make [| 11 |])
             hw ~target:(Gate.matrix Gate.H) ~slots:20)
            .Grape.pulse.Grape.amplitudes;
    }
  in
  let specs =
    [|
      (Gate.matrix Gate.X, 24, opts);
      (Gate.matrix Gate.H, 20, warm);
      (Gate.matrix Gate.Y, 16, opts);
    |]
  in
  let rng i = Random.State.make [| 7; i |] in
  let solo =
    Array.mapi
      (fun i (target, slots, options) ->
        solve ~options ~rng:(rng i) hw ~target ~slots)
      specs
  in
  let jobs =
    Array.mapi
      (fun i (target, slots, options) ->
        Grape.batch_job ~options ~rng:(rng i) hw ~target ~slots)
      specs
  in
  let batched = Grape.optimize_batch ~workspace:(Grape.workspace ()) jobs in
  Array.iteri
    (fun i r ->
      check_result_exact (Printf.sprintf "job %d" i) solo.(i)
        (batch_ok (Printf.sprintf "job %d" i) r))
    batched

let test_grape_checkpoint_pool_invariance () =
  (* a 3-qubit, 256-slot solve is large enough to take the
     checkpoint-parallel core; its result must not depend on how many
     domains sweep the segments *)
  Alcotest.(check bool)
    "solve splits into checkpoint segments" true
    (Grape.segments ~dim:8 ~slots:256 > 1);
  let hw = Hardware.make 3 in
  let target =
    Mat.kron (Gate.matrix Gate.H) (Mat.kron (Gate.matrix Gate.X) (Gate.matrix Gate.H))
  in
  let opts = { Grape.default_options with Grape.iterations = 3 } in
  let solve ?pool () =
    match
      Grape.optimize_r ~options:opts
        ~rng:(Random.State.make [| 13 |])
        ?pool hw ~target ~slots:256
    with
    | Ok r -> r
    | Error e -> Alcotest.failf "solve failed: %s" (Epoc_error.to_string e)
  in
  let solo = solve () in
  let one = solve ~pool:(Epoc_parallel.Pool.create ~domains:1 ()) () in
  let four = solve ~pool:(Epoc_parallel.Pool.create ~domains:4 ()) () in
  check_result_exact "domains=1 vs no pool" solo one;
  check_result_exact "domains=4 vs no pool" solo four

(* The throughput a workspace reports is aggregated over its batches:
   total iterations over total solve seconds.  Two batches of different
   shapes run at different rates; the reported rate must be their
   iteration-weighted mean, strictly between the two, never the last
   batch's rate alone. *)
let test_grape_throughput_totals () =
  let m = Epoc_obs.Metrics.create () in
  let ws = Grape.workspace ~metrics:m () in
  (* an unreachable target runs every job for exactly [iterations] *)
  let options iterations =
    {
      Grape.default_options with
      Grape.iterations;
      fidelity_target = 2.0;
      patience = max_int;
    }
  in
  let batch ~qubits ~slots ~iterations n =
    let hw = Hardware.make qubits in
    let target = Mat.identity (1 lsl qubits) in
    Grape.optimize_batch ~workspace:ws
      (Array.init n (fun i ->
           Grape.batch_job ~options:(options iterations)
             ~rng:(Random.State.make [| i |])
             hw ~target ~slots))
    |> Array.fold_left
         (fun acc r -> acc + (batch_ok "throughput batch" r).Grape.iterations)
         0
  in
  let seconds () =
    match Epoc_obs.Metrics.hist_value m "grape.solve_seconds" with
    | Some h -> h.Epoc_obs.Metrics.sum
    | None -> 0.0
  in
  let rate () = Option.get (Grape.iters_per_s m) in
  Alcotest.(check (option (float 0.0))) "no solve, no rate" None
    (Grape.iters_per_s m);
  let it1 = batch ~qubits:1 ~slots:24 ~iterations:200 4 in
  let w1 = seconds () in
  let rate1 = rate () in
  let it2 = batch ~qubits:2 ~slots:64 ~iterations:40 2 in
  let w2 = seconds () -. w1 in
  let last = float_of_int it2 /. w2 in
  Alcotest.(check int) "iterations total" (it1 + it2)
    (Epoc_obs.Metrics.counter_value m "grape.solve_iterations");
  Alcotest.(check int) "one wall observation per batch" 2
    (Option.get (Epoc_obs.Metrics.hist_value m "grape.solve_seconds"))
      .Epoc_obs.Metrics.count;
  Alcotest.(check (float 0.0)) "total iterations over total seconds"
    (float_of_int (it1 + it2) /. seconds ())
    (rate ());
  Alcotest.(check bool)
    (Printf.sprintf "batches ran at different rates (%.0f vs %.0f)" rate1 last)
    true (rate1 <> last);
  Alcotest.(check bool)
    (Printf.sprintf "aggregate %.0f lies strictly between %.0f and %.0f"
       (rate ()) rate1 last)
    true
    (rate () > Float.min rate1 last && rate () < Float.max rate1 last)

(* --- latency --------------------------------------------------------------- *)

let test_latency_x_speed_limit () =
  let hw = Hardware.make 1 in
  match Latency.find_min_duration_r hw (Gate.matrix Gate.X) with
  | Error e ->
      Alcotest.failf "x duration search failed: %s" (Epoc_error.to_string e)
  | Ok s ->
      (* quantum speed limit: pi / drive_limit = 10 ns *)
      Alcotest.(check bool)
        (Printf.sprintf "min duration %.1f ns" s.Latency.duration)
        true
        (s.Latency.duration >= 9.0 && s.Latency.duration <= 14.0)

let test_latency_rz_is_fast () =
  (* small rotations need much shorter pulses than pi rotations *)
  let hw = Hardware.make 1 in
  match Latency.find_min_duration_r hw (Gate.matrix (Gate.RX 0.3)) with
  | Error e ->
      Alcotest.failf "rx duration search failed: %s" (Epoc_error.to_string e)
  | Ok s ->
      Alcotest.(check bool)
        (Printf.sprintf "rx(0.3) %.1f ns" s.Latency.duration)
        true (s.Latency.duration <= 4.0)

let test_estimator_calibration () =
  let hw = Hardware.make 2 in
  let cx = Circuit.of_ops 2 [ { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] } ] in
  let e = Latency.estimate hw cx in
  (* measured GRAPE minimum is ~56 ns; the estimate must be within 20% *)
  Alcotest.(check bool)
    (Printf.sprintf "cx estimate %.1f ns" e.Latency.est_duration)
    true
    (e.Latency.est_duration > 45.0 && e.Latency.est_duration < 67.0)

let test_estimator_virtual_z_free () =
  let hw = Hardware.make 1 in
  let rz = Circuit.of_ops 1 [ { Circuit.gate = Gate.RZ 1.0; qubits = [ 0 ] } ] in
  let e = Latency.estimate hw rz in
  Alcotest.(check (float 1e-9)) "virtual z costs dt only" hw.Hardware.dt
    e.Latency.est_duration

let test_guess_slots_positive () =
  let hw = Hardware.make 2 in
  let c = Circuit.of_ops 2 [ { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] } ] in
  Alcotest.(check bool) "positive guess" true (Latency.guess_slots hw c > 10)

(* --- schedule --------------------------------------------------------------- *)

let instr qubits duration fidelity label =
  { Schedule.qubits; duration; fidelity; label; pulse = None }

let test_schedule_serial () =
  let s =
    Schedule.schedule ~n:1 [ instr [ 0 ] 10.0 0.999 "a"; instr [ 0 ] 15.0 0.999 "b" ]
  in
  Alcotest.(check (float 1e-9)) "serial latency" 25.0 (Schedule.latency s)

let test_schedule_parallel () =
  let s =
    Schedule.schedule ~n:2 [ instr [ 0 ] 10.0 0.999 "a"; instr [ 1 ] 15.0 0.999 "b" ]
  in
  Alcotest.(check (float 1e-9)) "parallel latency" 15.0 (Schedule.latency s)

let test_schedule_blocking () =
  (* 2q pulse blocks both lines *)
  let s =
    Schedule.schedule ~n:2
      [
        instr [ 0 ] 10.0 0.999 "a"; instr [ 0; 1 ] 50.0 0.99 "cx";
        instr [ 1 ] 10.0 0.999 "b";
      ]
  in
  Alcotest.(check (float 1e-9)) "blocking latency" 70.0 (Schedule.latency s)

let test_schedule_utilization () =
  let full = Schedule.schedule ~n:2 [ instr [ 0; 1 ] 10.0 0.99 "u" ] in
  Alcotest.(check (float 1e-9)) "full utilization" 1.0 (Schedule.utilization full);
  let half = Schedule.schedule ~n:2 [ instr [ 0 ] 10.0 0.99 "u" ] in
  Alcotest.(check (float 1e-9)) "half utilization" 0.5 (Schedule.utilization half)

(* --- library ----------------------------------------------------------------- *)

let test_library_miss_then_hit () =
  let lib = Library.create () in
  let u = Gate.matrix Gate.CX in
  Alcotest.(check bool) "miss" true (Library.find lib u = None);
  Library.add lib u ~duration:56.0 ~fidelity:0.999 ();
  (match Library.find lib u with
  | Some e -> Alcotest.(check (float 1e-9)) "duration" 56.0 e.Library.duration
  | None -> Alcotest.fail "expected hit");
  let s = Library.stats lib in
  Alcotest.(check int) "hits" 1 s.Library.hits;
  Alcotest.(check int) "misses" 1 s.Library.misses;
  Alcotest.(check int) "entries" 1 s.Library.entries

let test_library_global_phase_matching () =
  let lib = Library.create ~match_global_phase:true () in
  let u = Gate.matrix (Gate.U3 (0.7, 0.3, 1.1)) in
  Library.add lib u ~duration:8.0 ~fidelity:0.9995 ();
  let rotated = Mat.scale (Cx.cis 1.234) u in
  Alcotest.(check bool) "phase-rotated hit" true (Library.find lib rotated <> None)

let test_library_phase_sensitive () =
  let lib = Library.create ~match_global_phase:false () in
  let u = Gate.matrix (Gate.U3 (0.7, 0.3, 1.1)) in
  Library.add lib u ~duration:8.0 ~fidelity:0.9995 ();
  let rotated = Mat.scale (Cx.cis 1.234) u in
  Alcotest.(check bool) "phase-rotated misses" true (Library.find lib rotated = None);
  Alcotest.(check bool) "exact match hits" true (Library.find lib u <> None)

let test_library_distinguishes () =
  let lib = Library.create () in
  Library.add lib (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999 ();
  Alcotest.(check bool) "different unitary misses" true
    (Library.find lib (Gate.matrix Gate.Y) = None)

let test_library_fingerprint_quantization () =
  (* values straddling zero within rounding distance must land in the same
     fingerprint bucket: -1e-9 rounds to -0.0, which the single
     quantization step normalizes to 0.0 *)
  let near_zero eps = Mat.of_arrays [| [| Cx.make eps (-.eps) |] |] in
  Alcotest.(check bool) "negative zero bucket" true
    (Library.fingerprint (near_zero 1e-9) = Library.fingerprint (near_zero (-1e-9)));
  (* perturbations below the 5-decimal resolution keep the bucket... *)
  let entry x = Mat.of_arrays [| [| Cx.of_float x |] |] in
  Alcotest.(check bool) "sub-resolution perturbation same bucket" true
    (Library.fingerprint (entry 0.123452) = Library.fingerprint (entry 0.1234521));
  (* ...and a full resolution step changes it *)
  Alcotest.(check bool) "distinct values distinct buckets" true
    (Library.fingerprint (entry 0.12345) <> Library.fingerprint (entry 0.12346));
  (* end to end: a (unitary) probe equal up to noise below the matcher's
     epsilon still hits the stored entry *)
  let lib = Library.create () in
  Library.add lib (entry 1.0) ~duration:5.0 ~fidelity:0.999 ();
  Alcotest.(check bool) "noisy probe hits" true
    (Library.find lib (entry (1.0 +. 1e-9)) <> None)

let test_library_fork_absorb () =
  let lib = Library.create () in
  Library.add lib (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999 ();
  let f = Library.fork lib in
  (* the fork sees existing entries but counts its own traffic *)
  Alcotest.(check bool) "fork hit" true (Library.find f (Gate.matrix Gate.X) <> None);
  Alcotest.(check bool) "fork miss" true (Library.find f (Gate.matrix Gate.Y) = None);
  Library.add f (Gate.matrix Gate.Y) ~duration:12.0 ~fidelity:0.998 ();
  (* parent unaffected until absorb *)
  Alcotest.(check int) "parent entries before absorb" 1
    (Library.stats lib).Library.entries;
  Library.absorb lib f;
  let s = Library.stats lib in
  Alcotest.(check int) "entries merged" 2 s.Library.entries;
  Alcotest.(check int) "hits merged" 1 s.Library.hits;
  Alcotest.(check int) "misses merged" 1 s.Library.misses;
  (* absorbing a stale fork with a duplicate entry must not double it *)
  Library.absorb lib f;
  Alcotest.(check int) "duplicate absorb is idempotent on entries" 2
    (Library.stats lib).Library.entries

(* --- esp ---------------------------------------------------------------------- *)

let test_esp_product () =
  let s =
    Schedule.schedule ~n:2 [ instr [ 0 ] 0.0 0.9 "a"; instr [ 1 ] 0.0 0.8 "b" ]
  in
  Alcotest.(check (float 1e-9)) "product of fidelities" 0.72
    (Esp.of_schedule ~t_coherence:1e9 s)

let test_esp_decoherence_penalty () =
  let short = Schedule.schedule ~n:1 [ instr [ 0 ] 10.0 1.0 "a" ] in
  let long = Schedule.schedule ~n:1 [ instr [ 0 ] 1000.0 1.0 "a" ] in
  let e_short = Esp.of_schedule ~t_coherence:10_000.0 short in
  let e_long = Esp.of_schedule ~t_coherence:10_000.0 long in
  Alcotest.(check bool) "longer pulse lower esp" true (e_long < e_short);
  Alcotest.(check (float 1e-6)) "explicit value" (exp (-.0.001)) e_short

let test_esp_fewer_pulses_better () =
  (* same total duration: one grouped pulse beats two pulses with the same
     per-pulse fidelity — the Figure 10 mechanism *)
  let grouped = Schedule.schedule ~n:2 [ instr [ 0; 1 ] 50.0 0.999 "blk" ] in
  let split =
    Schedule.schedule ~n:2
      [ instr [ 0; 1 ] 25.0 0.999 "b1"; instr [ 0; 1 ] 25.0 0.999 "b2" ]
  in
  Alcotest.(check bool) "grouping wins" true
    (Esp.of_schedule ~t_coherence:1e5 grouped
    > Esp.of_schedule ~t_coherence:1e5 split)

let () =
  Alcotest.run "qoc"
    [
      ( "hardware",
        [
          Alcotest.test_case "drift" `Quick test_hardware_drift;
          Alcotest.test_case "controls" `Quick test_hardware_controls;
          Alcotest.test_case "1q no drift" `Quick test_hardware_single_qubit_no_drift;
          Alcotest.test_case "reference times" `Quick test_reference_times;
        ] );
      ( "grape",
        [
          Alcotest.test_case "identity 1q" `Quick test_grape_identity_1q;
          Alcotest.test_case "x gate" `Quick test_grape_x_gate;
          Alcotest.test_case "hadamard" `Quick test_grape_hadamard;
          Alcotest.test_case "cnot" `Slow test_grape_cnot;
          Alcotest.test_case "amplitude limit" `Quick
            test_grape_respects_amplitude_limit;
          Alcotest.test_case "propagator unitary" `Slow test_grape_propagate_unitary;
          Alcotest.test_case "too short fails" `Quick test_grape_too_short_fails;
          Alcotest.test_case "batch matches solo bit-for-bit" `Quick
            test_grape_batch_matches_solo;
          Alcotest.test_case "checkpoint pool invariance" `Quick
            test_grape_checkpoint_pool_invariance;
          Alcotest.test_case "throughput aggregates batches" `Quick
            test_grape_throughput_totals;
        ] );
      ( "latency",
        [
          Alcotest.test_case "x speed limit" `Quick test_latency_x_speed_limit;
          Alcotest.test_case "small rotation fast" `Quick test_latency_rz_is_fast;
          Alcotest.test_case "estimator calibration" `Quick test_estimator_calibration;
          Alcotest.test_case "virtual z free" `Quick test_estimator_virtual_z_free;
          Alcotest.test_case "guess slots" `Quick test_guess_slots_positive;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "serial" `Quick test_schedule_serial;
          Alcotest.test_case "parallel" `Quick test_schedule_parallel;
          Alcotest.test_case "blocking" `Quick test_schedule_blocking;
          Alcotest.test_case "utilization" `Quick test_schedule_utilization;
        ] );
      ( "library",
        [
          Alcotest.test_case "miss then hit" `Quick test_library_miss_then_hit;
          Alcotest.test_case "global phase matching" `Quick
            test_library_global_phase_matching;
          Alcotest.test_case "phase sensitive mode" `Quick test_library_phase_sensitive;
          Alcotest.test_case "distinguishes" `Quick test_library_distinguishes;
          Alcotest.test_case "fingerprint quantization" `Quick
            test_library_fingerprint_quantization;
          Alcotest.test_case "fork/absorb" `Quick test_library_fork_absorb;
        ] );
      ( "esp",
        [
          Alcotest.test_case "product" `Quick test_esp_product;
          Alcotest.test_case "decoherence" `Quick test_esp_decoherence_penalty;
          Alcotest.test_case "fewer pulses better" `Quick test_esp_fewer_pulses_better;
        ] );
    ]
