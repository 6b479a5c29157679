(* Resilience tests: the typed error channel, deterministic fault
   injection, per-block budgets, retry/backoff and the gate-pulse
   degradation path.

   Faults are injected through [Config.fault] (or [Epoc_fault.of_env]
   where the env pickup itself is under test) — never ambiently — so
   these tests cannot leak failures into the rest of the suite. *)

open Epoc

(* --- fault spec ----------------------------------------------------------- *)

let test_fault_parse () =
  (* round trip *)
  let spec = Epoc_fault.parse_exn "grape_nan:0.1,deadline:block3,qsearch_exhaust:synth2:1" in
  Alcotest.(check string)
    "round trip" "grape_nan:0.1,deadline:block3,qsearch_exhaust:synth2:1"
    (Epoc_fault.to_string spec);
  (* malformed specs are rejected with Invalid_argument *)
  List.iter
    (fun bad ->
      Alcotest.check_raises ("rejects " ^ bad)
        (Invalid_argument
           (match Epoc_fault.parse bad with
           | Error m -> "Epoc_fault.parse_exn: " ^ m
           | Ok _ -> Alcotest.failf "%s unexpectedly parsed" bad))
        (fun () -> ignore (Epoc_fault.parse_exn bad)))
    [ "bogus_kind:0.5"; "grape_nan"; "grape_nan:1.5"; "deadline:block0:0"; "" ]

let test_fault_determinism () =
  let spec = Epoc_fault.parse_exn ~seed:7 "grape_nan:0.5" in
  let pattern () =
    List.map
      (fun (site, attempt) ->
        Epoc_fault.fires spec ~kind:"grape_nan" ~site ~attempt)
      [ ("block0", 0); ("block0", 1); ("block1", 0); ("block2", 0);
        ("block3", 1); ("synth0", 0) ]
  in
  Alcotest.(check (list bool)) "identical decisions on every call"
    (pattern ()) (pattern ());
  (* edge probabilities *)
  let never = Epoc_fault.parse_exn "grape_nan:0.0" in
  let always = Epoc_fault.parse_exn "grape_nan:1.0" in
  for i = 0 to 19 do
    let site = Printf.sprintf "block%d" i in
    Alcotest.(check bool) "prob 0 never fires" false
      (Epoc_fault.fires never ~kind:"grape_nan" ~site ~attempt:0);
    Alcotest.(check bool) "prob 1 always fires" true
      (Epoc_fault.fires always ~kind:"grape_nan" ~site ~attempt:0)
  done;
  (* site matcher and attempt count *)
  let s = Epoc_fault.parse_exn "deadline:block2:2" in
  Alcotest.(check bool) "site match, attempt 0" true
    (Epoc_fault.fires s ~kind:"deadline" ~site:"block2" ~attempt:0);
  Alcotest.(check bool) "site match, attempt 1" true
    (Epoc_fault.fires s ~kind:"deadline" ~site:"block2" ~attempt:1);
  Alcotest.(check bool) "count exhausted at attempt 2" false
    (Epoc_fault.fires s ~kind:"deadline" ~site:"block2" ~attempt:2);
  Alcotest.(check bool) "other site untouched" false
    (Epoc_fault.fires s ~kind:"deadline" ~site:"block0" ~attempt:0);
  Alcotest.(check bool) "other kind untouched" false
    (Epoc_fault.fires s ~kind:"grape_nan" ~site:"block2" ~attempt:0);
  Alcotest.(check bool) "None never fires" false
    (Epoc_fault.fires_opt None ~kind:"grape_nan" ~site:"block0" ~attempt:0)

let test_fault_env () =
  Unix.putenv "EPOC_FAULT" "grape_nan:0.25,deadline:block1";
  Unix.putenv "EPOC_FAULT_SEED" "9";
  let spec =
    match Epoc_fault.of_env () with
    | Some s -> s
    | None -> Alcotest.fail "EPOC_FAULT not picked up"
  in
  Alcotest.(check string) "env spec parsed" "grape_nan:0.25,deadline:block1"
    (Epoc_fault.to_string spec);
  Unix.putenv "EPOC_FAULT" "";
  Unix.putenv "EPOC_FAULT_SEED" "";
  Alcotest.(check bool) "empty EPOC_FAULT means off" true
    (Epoc_fault.of_env () = None)

(* --- budget ---------------------------------------------------------------- *)

let test_budget () =
  let u = Epoc_budget.unlimited in
  Alcotest.(check bool) "unlimited is unlimited" true (Epoc_budget.is_unlimited u);
  Alcotest.(check bool) "unlimited never expires" false (Epoc_budget.expired u);
  Alcotest.(check bool) "unlimited remaining is infinite" true
    (Epoc_budget.remaining_s u = infinity);
  (* sub with no seconds is the parent *)
  Alcotest.(check bool) "sub None of unlimited stays unlimited" true
    (Epoc_budget.is_unlimited (Epoc_budget.sub u));
  (* a generous deadline has not expired yet *)
  let b = Epoc_budget.start 3600.0 in
  Alcotest.(check bool) "fresh hour-long budget not expired" false
    (Epoc_budget.expired b);
  Alcotest.(check bool) "check passes inside the deadline" true
    (Epoc_budget.check ~site:"t" b = ());
  (* a child is capped by its parent *)
  let child = Epoc_budget.sub ~seconds:7200.0 b in
  Alcotest.(check bool) "child capped by parent" true
    (Epoc_budget.remaining_s child <= Epoc_budget.remaining_s b +. 1.0);
  (* an already-expired budget raises the typed error *)
  let tiny = Epoc_budget.start 0.0 in
  let rec spin n = if n > 0 && not (Epoc_budget.expired tiny) then spin (n - 1) in
  spin 1_000_000;
  Alcotest.(check bool) "zero budget expires" true (Epoc_budget.expired tiny);
  (match Epoc_budget.check ~site:"t" tiny with
  | () -> Alcotest.fail "expected Deadline_exceeded"
  | exception Epoc_error.Error (Epoc_error.Deadline_exceeded { site; _ }) ->
      Alcotest.(check string) "deadline names the site" "t" site);
  Alcotest.(check bool) "invalid seconds rejected" true
    (match Epoc_budget.start (-1.0) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- typed error channel --------------------------------------------------- *)

let test_error_channel () =
  (* a GRAPE solve with an injected NaN returns Error, not an exception *)
  let hw = Epoc_qoc.Hardware.make ~dt:0.5 ~t_coherence:100_000.0 2 in
  let target =
    Epoc_circuit.Circuit.unitary
      (Epoc_circuit.Circuit.of_ops 2
         [ { Epoc_circuit.Circuit.gate = Epoc_circuit.Gate.CX; qubits = [ 0; 1 ] } ])
  in
  let fault = Epoc_fault.parse_exn "grape_nan:1.0" in
  (match Epoc_qoc.Grape.optimize_r ~fault ~site:"block0" hw ~target ~slots:8 with
  | Error (Epoc_error.Solver_diverged { site; _ }) ->
      Alcotest.(check string) "diverged at the faulted site" "block0" site
  | Error e -> Alcotest.failf "unexpected error %s" (Epoc_error.to_string e)
  | Ok _ -> Alcotest.fail "expected Solver_diverged");
  (* labels are stable (consumed by metrics keys and the CLI) *)
  Alcotest.(check string) "label" "solver_diverged"
    (Epoc_error.label (Epoc_error.Solver_diverged { site = "x"; detail = "d" }));
  Alcotest.(check string) "label" "deadline_exceeded"
    (Epoc_error.label (Epoc_error.Deadline_exceeded { site = "x"; elapsed_s = 1.0 }))

(* --- pipeline resilience --------------------------------------------------- *)

let grape_config ?fault ?(retries = 2) () =
  {
    Config.default with
    Config.qoc_mode = Config.Grape;
    max_retries = retries;
    fault;
  }

let compile ?fault ?retries ?pool name =
  let c = Epoc_benchmarks.Benchmarks.find name in
  let config = grape_config ?fault ?retries () in
  Pipeline.compile
    (Engine.session ~config ?pool ~name (Engine.create ~config ?pool ()))
    c

(* First attempt diverges, the jittered retry runs clean: no degradation,
   at least one retry burned, and the schedule is complete. *)
let test_retry_then_success () =
  let fault = Epoc_fault.parse_exn "grape_nan:block0:1" in
  let r = compile ~fault "bb84" in
  Alcotest.(check int) "no degraded blocks" 0 r.Pipeline.stats.Pipeline.degraded_blocks;
  Alcotest.(check bool) "at least one retry burned" true
    (r.Pipeline.stats.Pipeline.retries >= 1);
  Alcotest.(check bool) "schedule complete" true
    (r.Pipeline.stats.Pipeline.pulse_count > 0);
  Alcotest.(check bool) "latency positive" true (r.Pipeline.latency > 0.0);
  Alcotest.(check bool) "esp in (0,1]" true
    (r.Pipeline.esp > 0.0 && r.Pipeline.esp <= 1.0)

(* Every attempt diverges: retries exhaust and the block degrades to
   gate-pulse playback, but the pipeline still emits a complete valid
   schedule with the degradation reported. *)
let test_exhausted_retries_fallback () =
  let clean = compile "bb84" in
  let fault = Epoc_fault.parse_exn "grape_nan:1.0" in
  let r = compile ~fault "bb84" in
  Alcotest.(check int) "one degraded computation" 1
    r.Pipeline.stats.Pipeline.degraded_blocks;
  Alcotest.(check int) "retries fully burned" 2 r.Pipeline.stats.Pipeline.retries;
  Alcotest.(check int) "same instruction count as the clean run"
    clean.Pipeline.stats.Pipeline.pulse_count
    r.Pipeline.stats.Pipeline.pulse_count;
  Alcotest.(check bool) "latency positive" true (r.Pipeline.latency > 0.0);
  Alcotest.(check bool) "esp in (0,1]" true
    (r.Pipeline.esp > 0.0 && r.Pipeline.esp <= 1.0);
  (* degraded results must not pollute the library (nor, transitively,
     the persistent store) *)
  Alcotest.(check int) "no degraded library entries" 0
    r.Pipeline.library_stats.Epoc_pulse.Library.entries;
  (* the clean run is untouched by the existence of the machinery *)
  Alcotest.(check int) "clean run has no degradation" 0
    clean.Pipeline.stats.Pipeline.degraded_blocks;
  Alcotest.(check int) "clean run burned no retries" 0
    clean.Pipeline.stats.Pipeline.retries

(* An injected deadline mid-QSearch: synthesis degrades to the direct VUG
   form for that block (reported, not fatal) and the schedule is clean. *)
let test_deadline_mid_qsearch () =
  let fault = Epoc_fault.parse_exn "deadline:synth0" in
  let config = { Config.default with Config.fault = Some fault } in
  (* iswap: its first block is the one builtin block whose direct form
     the CNOT-count oracle cannot certify, so QSearch actually runs there
     (every block of simon and bb84 is certified and never searched) *)
  let c = Epoc_benchmarks.Benchmarks.find "iswap" in
  let metrics = Epoc_obs.Metrics.create () in
  let r =
    Pipeline.compile
      (Engine.session ~config ~metrics ~name:"iswap" (Engine.create ~config ()))
      c
  in
  Alcotest.(check bool) "synthesis failure recorded" true
    (Epoc_obs.Metrics.counter_value metrics "synth.failures" >= 1);
  Alcotest.(check int) "no schedule degradation" 0
    r.Pipeline.stats.Pipeline.degraded_blocks;
  Alcotest.(check bool) "schedule complete" true
    (r.Pipeline.stats.Pipeline.pulse_count > 0);
  Alcotest.(check bool) "latency positive" true (r.Pipeline.latency > 0.0)

(* Bit-identical results for any domain count, also under injected
   faults: the retry and fallback paths preserve the determinism
   contract. *)
let test_fault_domain_determinism () =
  List.iter
    (fun (bench, spec) ->
      let fault = Epoc_fault.parse_exn spec in
      let run d =
        let pool = Epoc_parallel.Pool.create ~domains:d () in
        let r = compile ~fault ~pool bench in
        (r.Pipeline.latency, r.Pipeline.esp, r.Pipeline.stats,
         r.Pipeline.library_stats)
      in
      let l1, e1, s1, ls1 = run 1 in
      let l4, e4, s4, ls4 = run 4 in
      let id = bench ^ "/" ^ spec in
      Alcotest.(check (float 0.0)) (id ^ ": latency identical") l1 l4;
      Alcotest.(check (float 0.0)) (id ^ ": esp identical") e1 e4;
      Alcotest.(check bool) (id ^ ": stats identical") true (s1 = s4);
      Alcotest.(check bool) (id ^ ": library identical") true (ls1 = ls4))
    [
      ("bb84", "grape_nan:1.0");
      ("bb84", "grape_nan:block0:1");
      ("simon", "grape_nan:0.5");
      ("simon", "deadline:block1");
    ]

let () =
  Alcotest.run "resilience"
    [
      ( "fault",
        [
          Alcotest.test_case "spec parse and round trip" `Quick test_fault_parse;
          Alcotest.test_case "deterministic decisions" `Quick
            test_fault_determinism;
          Alcotest.test_case "EPOC_FAULT env pickup" `Quick test_fault_env;
        ] );
      ("budget", [ Alcotest.test_case "semantics" `Quick test_budget ]);
      ( "errors",
        [ Alcotest.test_case "typed channel" `Quick test_error_channel ] );
      ( "pipeline",
        [
          Alcotest.test_case "retry then success" `Quick test_retry_then_success;
          Alcotest.test_case "exhausted retries degrade to gate pulses" `Quick
            test_exhausted_retries_fallback;
          Alcotest.test_case "deadline mid-qsearch" `Quick
            test_deadline_mid_qsearch;
          Alcotest.test_case "domain determinism under faults" `Quick
            test_fault_domain_determinism;
        ] );
    ]
