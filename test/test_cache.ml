(* Persistent pulse cache tests: on-disk round-trip, corruption and
   header-mismatch tolerance, concurrent-writer flush merging, GRAPE
   warm starts from cached near-neighbors, and the cached pipeline's
   domain-count determinism. *)

open Epoc
open Epoc_linalg
open Epoc_circuit
open Epoc_qoc
module Store = Epoc_cache.Store
module M = Epoc_obs.Metrics

let tmp_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "epoc-test-cache-%d-%s" (Unix.getpid ()) name)
  in
  if Sys.file_exists dir then
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let records_path dir = Filename.concat dir "pulses.jsonl"

let x_pulse =
  {
    Grape.dt = 0.5;
    labels = [| "x0"; "y0" |];
    amplitudes = [| [| 0.1; 0.2; 0.3 |]; [| -0.1; 0.0; 0.25 |] |];
  }

(* --- round-trip ----------------------------------------------------------- *)

let test_roundtrip () =
  let dir = tmp_dir "roundtrip" in
  let x = Gate.matrix Gate.X in
  let s = Store.open_dir dir in
  Store.record s x ~duration:12.5 ~fidelity:0.9991 ~pulse:x_pulse ();
  Alcotest.(check int) "pending before flush" 1 (Store.pending_count s);
  Store.flush s;
  Alcotest.(check int) "pending after flush" 0 (Store.pending_count s);
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "reloaded" 1 (Store.loaded_count s2);
  (match Store.find s2 x with
  | None -> Alcotest.fail "exact hit missing after reopen"
  | Some e ->
      Alcotest.(check (float 1e-12)) "duration" 12.5 e.Store.duration;
      Alcotest.(check (float 1e-12)) "fidelity" 0.9991 e.Store.fidelity;
      match e.Store.pulse with
      | None -> Alcotest.fail "pulse lost"
      | Some p ->
          Alcotest.(check bool) "amplitudes survive" true
            (p.Grape.amplitudes = x_pulse.Grape.amplitudes);
          Alcotest.(check bool) "labels survive" true
            (p.Grape.labels = x_pulse.Grape.labels));
  (* global-phase-invariant match: i*X hits the X entry *)
  let ix = Mat.scale (Cx.make 0.0 1.0) x in
  Alcotest.(check bool) "phase-rotated probe hits" true
    (Store.find s2 ix <> None);
  rm_rf dir

(* --- corruption tolerance -------------------------------------------------- *)

let test_corrupt_trailing () =
  let dir = tmp_dir "corrupt" in
  let s = Store.open_dir dir in
  Store.record s (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999 ();
  Store.record s (Gate.matrix Gate.H) ~duration:11.0 ~fidelity:0.998 ();
  Store.flush s;
  (* a torn trailing write: half a JSON record *)
  let oc = open_out_gen [ Open_append ] 0o644 (records_path dir) in
  output_string oc "{\"key\": \"dead\", \"dim\": 2, \"dura";
  close_out oc;
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "valid records load" 2 (Store.loaded_count s2);
  Alcotest.(check int) "torn record skipped" 1 (Store.skipped_count s2);
  Alcotest.(check bool) "entries still found" true
    (Store.find s2 (Gate.matrix Gate.H) <> None);
  (* the next flush drops the torn line from disk *)
  Store.record s2 (Gate.matrix Gate.Y) ~duration:12.0 ~fidelity:0.997 ();
  Store.flush s2;
  let s3 = Store.open_dir dir in
  Alcotest.(check int) "flush rewrote cleanly" 3 (Store.loaded_count s3);
  Alcotest.(check int) "no skips after rewrite" 0 (Store.skipped_count s3);
  rm_rf dir

let test_header_mismatch () =
  let dir = tmp_dir "header" in
  let s = Store.open_dir dir in
  Store.record s (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999 ();
  Store.flush s;
  (* rewrite the header as a future schema version: the records must be
     ignored, not mis-parsed *)
  let lines =
    String.split_on_char '\n'
      (In_channel.with_open_bin (records_path dir) In_channel.input_all)
  in
  let oc = open_out (records_path dir) in
  output_string oc
    "{\"format\": \"epoc-pulse-cache\",\"schema_version\": 99,\
     \"match_global_phase\": true}\n";
  List.iter
    (fun l -> if String.trim l <> "" then (output_string oc l; output_char oc '\n'))
    (List.tl lines);
  close_out oc;
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "foreign store starts empty" 0 (Store.loaded_count s2);
  Alcotest.(check bool) "no hit from foreign records" true
    (Store.find s2 (Gate.matrix Gate.X) = None);
  (* recording + flushing rewrites the store under the current header *)
  Store.record s2 (Gate.matrix Gate.H) ~duration:11.0 ~fidelity:0.998 ();
  Store.flush s2;
  let s3 = Store.open_dir dir in
  Alcotest.(check int) "rewritten store loads" 1 (Store.loaded_count s3);
  rm_rf dir

(* --- concurrent writers ---------------------------------------------------- *)

let test_lock_contention () =
  let dir = tmp_dir "lock" in
  ignore (Store.open_dir dir);
  (* two writers (separate Store handles, as two concurrent `epoc`
     invocations would hold) record disjoint entries and flush
     concurrently; the merged file must hold the union *)
  let angles_a = [ 0.3; 0.6; 0.9; 1.2 ] in
  let angles_b = [ 1.5; 1.8; 2.1; 2.4 ] in
  let writer angles =
    Domain.spawn (fun () ->
        let s = Store.open_dir dir in
        List.iter
          (fun a ->
            Store.record s
              (Gate.matrix (Gate.RX a))
              ~duration:(10.0 +. a) ~fidelity:0.999 ();
            Store.flush s)
          angles)
  in
  let da = writer angles_a and db = writer angles_b in
  Domain.join da;
  Domain.join db;
  let s = Store.open_dir dir in
  Alcotest.(check int) "union of both writers" 8 (Store.loaded_count s);
  List.iter
    (fun a ->
      Alcotest.(check bool)
        (Printf.sprintf "rx(%.1f) present" a)
        true
        (Store.find s (Gate.matrix (Gate.RX a)) <> None))
    (angles_a @ angles_b);
  rm_rf dir

(* --- near-hit matching ------------------------------------------------------ *)

let test_nearest () =
  let dir = tmp_dir "nearest" in
  let s = Store.open_dir dir in
  Store.record s (Gate.matrix Gate.X) ~duration:12.5 ~fidelity:0.999
    ~pulse:x_pulse ();
  (* RX(2.8) is close to X = RX(pi) up to global phase (hs distance ~0.015) *)
  let probe = Gate.matrix (Gate.RX 2.8) in
  (match Store.nearest s probe with
  | None -> Alcotest.fail "near neighbor not found"
  | Some (e, d) ->
      Alcotest.(check bool) "distance small" true (d < 0.05);
      Alcotest.(check bool) "neighbor carries the pulse" true
        (e.Store.pulse <> None));
  Alcotest.(check bool) "tight bound rejects" true
    (Store.nearest ~max_distance:1e-4 s probe = None);
  (* entries without amplitudes never qualify as warm starts *)
  Store.record s (Gate.matrix Gate.H) ~duration:9.0 ~fidelity:0.999 ();
  Alcotest.(check bool) "pulse-less entry skipped" true
    (Store.nearest s (Gate.matrix Gate.H) = None);
  rm_rf dir

(* --- GRAPE warm start ------------------------------------------------------- *)

let test_grape_warm_start () =
  let hw = Hardware.make 1 in
  let solve ?options hw ~target ~slots =
    match Grape.optimize_r ?options hw ~target ~slots with
    | Ok r -> r
    | Error e -> Alcotest.failf "solve failed: %s" (Epoc_error.to_string e)
  in
  (* converge a pulse for X, then reuse its amplitudes as the starting
     point for the nearby RX(2.8) under a small iteration budget: the
     warm start must do at least as well as the random cold start *)
  let solved_x = solve hw ~target:(Gate.matrix Gate.X) ~slots:24 in
  Alcotest.(check bool) "x converged" true (solved_x.Grape.fidelity > 0.99);
  Alcotest.(check bool) "cold start reported" false solved_x.Grape.warm_start;
  let target = Gate.matrix (Gate.RX 2.8) in
  (* a budget small enough that a random start cannot converge, so the
     head start is what decides the outcome *)
  let budget =
    { Grape.default_options with Grape.iterations = 4; patience = 4 }
  in
  let cold = solve ~options:budget hw ~target ~slots:24 in
  let warm =
    solve
      ~options:
        {
          budget with
          Grape.init = Some solved_x.Grape.pulse.Grape.amplitudes;
        }
      hw ~target ~slots:24
  in
  Alcotest.(check bool) "warm start reported" true warm.Grape.warm_start;
  Alcotest.(check bool) "warm >= cold under the same budget" true
    (warm.Grape.fidelity +. 1e-9 >= cold.Grape.fidelity);
  Alcotest.(check bool) "warm start is already close" true
    (warm.Grape.fidelity > 0.95);
  (* a control-count mismatch falls back to the cold start *)
  let bad_init = [| [| 0.1; 0.2 |] |] in
  let fallback =
    solve
      ~options:{ budget with Grape.init = Some bad_init }
      hw ~target ~slots:24
  in
  Alcotest.(check bool) "mismatched init ignored" false
    fallback.Grape.warm_start

(* --- cached pipeline -------------------------------------------------------- *)

(* Second run against the same store resolves every distinct unitary from
   disk: cache.hits > 0 and the reported schedule is identical. *)
let test_pipeline_warm_run () =
  let dir = tmp_dir "pipeline" in
  let circuit = Epoc_benchmarks.Benchmarks.find "qaoa" in
  let cfg = { Config.default with Config.cache_dir = Some dir } in
  let run () =
    let metrics = M.create () in
    let r =
      Pipeline.compile
        (Engine.session ~config:cfg ~metrics ~name:"qaoa"
           (Engine.create ~config:cfg ()))
        circuit
    in
    (r, metrics)
  in
  let cold, cold_m = run () in
  Alcotest.(check int) "cold run has no hits" 0
    (M.counter_value cold_m "cache.hits");
  Alcotest.(check bool) "cold run misses" true
    (M.counter_value cold_m "cache.misses" > 0);
  let warm, warm_m = run () in
  Alcotest.(check bool) "warm run hits" true
    (M.counter_value warm_m "cache.hits" > 0);
  Alcotest.(check int) "warm run fully cached" 0
    (M.counter_value warm_m "cache.misses");
  Alcotest.(check bool) "latency identical" true
    (cold.Pipeline.latency = warm.Pipeline.latency);
  Alcotest.(check bool) "esp identical" true
    (cold.Pipeline.esp = warm.Pipeline.esp);
  Alcotest.(check bool) "library saw the cache" true
    (warm.Pipeline.library_stats.Epoc_pulse.Library.cache_hits > 0);
  rm_rf dir

(* The cached (warm) pipeline obeys the pipeline determinism contract:
   bit-identical results for any domain count.  GRAPE mode, so store
   probes, warm starts and pulse reuse are all on the hot path. *)
let test_warm_run_domain_determinism () =
  let dir = tmp_dir "determinism" in
  let circuit = Epoc_benchmarks.Benchmarks.find "bb84" in
  let cfg = { Config.grape with Config.cache_dir = Some dir } in
  ignore
    (Pipeline.compile
       (Engine.session ~config:cfg ~name:"bb84" (Engine.create ~config:cfg ()))
       circuit);
  let run domains =
    let pool = Epoc_parallel.Pool.create ~domains () in
    let metrics = M.create () in
    let r =
      Pipeline.compile
        (Engine.session ~config:cfg ~pool ~metrics ~name:"bb84"
           (Engine.create ~config:cfg ~pool ()))
        circuit
    in
    Alcotest.(check bool)
      (Printf.sprintf "%d-domain warm run hits" domains)
      true
      (M.counter_value metrics "cache.hits" > 0);
    ( r.Pipeline.latency,
      r.Pipeline.esp,
      r.Pipeline.stats,
      r.Pipeline.library_stats,
      M.counter_value metrics "cache.hits" )
  in
  Alcotest.(check bool) "1 vs 4 domains identical" true (run 1 = run 4);
  rm_rf dir

(* --- merged-entry accounting ------------------------------------------------ *)

(* [merged_count] is the distinct on-disk record count after a flush —
   the number the pipeline reports as cache.entries.  It must not count
   skipped (torn) lines, and two handles recording the same unitary must
   merge to one record. *)
let test_merged_count () =
  let dir = tmp_dir "merged" in
  let s = Store.open_dir dir in
  Store.record s (Gate.matrix Gate.X) ~duration:10.0 ~fidelity:0.999 ();
  Store.record s (Gate.matrix Gate.H) ~duration:11.0 ~fidelity:0.998 ();
  Store.flush s;
  Alcotest.(check int) "two distinct records" 2 (Store.merged_count s);
  (* a torn trailing write must not inflate the merged count *)
  let oc = open_out_gen [ Open_append ] 0o644 (records_path dir) in
  output_string oc "{\"key\": \"dead\", \"dim\": 2, \"dura";
  close_out oc;
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "torn line skipped" 1 (Store.skipped_count s2);
  Store.record s2 (Gate.matrix Gate.Y) ~duration:12.0 ~fidelity:0.997 ();
  Store.flush s2;
  Alcotest.(check int) "merged excludes the torn line" 3
    (Store.merged_count s2);
  (* two handles, same unitary (different metadata): one on-disk record *)
  let a = Store.open_dir dir and b = Store.open_dir dir in
  Store.record a (Gate.matrix Gate.Z) ~duration:13.0 ~fidelity:0.996 ();
  Store.record b (Gate.matrix Gate.Z) ~duration:14.0 ~fidelity:0.995 ();
  Store.flush a;
  Store.flush b;
  Alcotest.(check int) "same unitary merges to one record" 4
    (Store.merged_count b);
  let s3 = Store.open_dir dir in
  Alcotest.(check int) "reload agrees" 4 (Store.loaded_count s3);
  rm_rf dir

(* --- synthesis store --------------------------------------------------------- *)

module Synth_store = Epoc_cache.Synth_store
module Synthesis = Epoc_synthesis.Synthesis

let synth_records_path dir = Filename.concat dir "synth.jsonl"

let op gate qubits = { Circuit.gate; qubits }

(* A VUG + CNOT circuit exercising every serialization shape: named
   parameterless gates, parametrized gates, and a raw [Unitary]. *)
let vug_circuit_2q =
  let vug_matrix = Circuit.unitary (Circuit.of_ops 1 [ op Gate.H [ 0 ] ]) in
  Circuit.of_ops 2
    [
      op (Gate.Unitary { name = "vug"; matrix = vug_matrix }) [ 0 ];
      op Gate.CX [ 0; 1 ];
      op (Gate.RZ 0.375) [ 1 ];
      op (Gate.U3 (0.1, 0.2, 0.3)) [ 0 ];
    ]

let test_synth_roundtrip () =
  let dir = tmp_dir "synth-roundtrip" in
  let target = Circuit.unitary vug_circuit_2q in
  let r =
    {
      Synthesis.circuit = vug_circuit_2q;
      source = Synthesis.Synthesized;
      distance = 3.2e-9;
      expansions = 17;
      prunes = 4;
      open_max = 9;
      failure = None;
      certified = false;
    }
  in
  let s = Synth_store.open_dir dir in
  Alcotest.(check bool) "cold probe misses" true
    (Synth_store.find s target = None);
  Synth_store.record s target r;
  Synth_store.flush s;
  let s2 = Synth_store.open_dir dir in
  Alcotest.(check int) "record reloads" 1 (Synth_store.loaded_count s2);
  (match Synth_store.find s2 target with
  | None -> Alcotest.fail "fingerprint hit missing after reopen"
  | Some e ->
      Alcotest.(check bool) "ops survive byte-for-byte" true
        (Circuit.ops e.Synth_store.circuit = Circuit.ops vug_circuit_2q);
      Alcotest.(check (float 1e-15)) "distance survives" 3.2e-9
        e.Synth_store.distance;
      Alcotest.(check int) "cold expansions kept as metadata" 17
        e.Synth_store.expansions;
      let br = Synth_store.to_block_result ~block:vug_circuit_2q e in
      Alcotest.(check bool) "replay is a success" true
        (br.Synthesis.failure = None);
      (* replayed results must not re-report search telemetry: the warm
         run's qsearch.* metrics stay empty *)
      Alcotest.(check int) "replay zeroes expansions" 0 br.Synthesis.expansions;
      Alcotest.(check int) "replay zeroes open_max" 0 br.Synthesis.open_max);
  (* phase-rotated probe hits under the default convention *)
  let rotated = Mat.scale (Cx.make 0.0 1.0) target in
  Alcotest.(check bool) "phase-rotated probe hits" true
    (Synth_store.find s2 rotated <> None);
  (* failure-carrying results are never recorded *)
  Synth_store.record s2 (Gate.matrix Gate.X)
    { r with Synthesis.failure = Some "deadline" };
  Alcotest.(check int) "failed result not recorded" 0
    (Synth_store.pending_count s2);
  rm_rf dir

let test_synth_corrupt_trailing () =
  let dir = tmp_dir "synth-corrupt" in
  let s = Synth_store.open_dir dir in
  let target = Circuit.unitary vug_circuit_2q in
  Synth_store.record s target
    {
      Synthesis.circuit = vug_circuit_2q;
      source = Synthesis.Fallback;
      distance = 0.0;
      expansions = 0;
      prunes = 0;
      open_max = 0;
      failure = None;
      certified = false;
    };
  Synth_store.flush s;
  let oc = open_out_gen [ Open_append ] 0o644 (synth_records_path dir) in
  output_string oc "{\"key\": \"feed\", \"dim\": 4, \"circ";
  close_out oc;
  let s2 = Synth_store.open_dir dir in
  Alcotest.(check int) "valid record loads" 1 (Synth_store.loaded_count s2);
  Alcotest.(check int) "torn record skipped" 1 (Synth_store.skipped_count s2);
  Alcotest.(check bool) "entry still found" true
    (Synth_store.find s2 target <> None);
  rm_rf dir

(* Warm synthesis replay through the pipeline: the second run hits the
   store for every block, runs no QSearch, and reproduces the cold
   schedule byte-for-byte. *)
let test_pipeline_warm_synthesis () =
  let dir = tmp_dir "synth-pipeline" in
  (* iswap: the builtin whose cold run still searches (the CNOT-count
     oracle certifies every block of simon, which never searches) *)
  let circuit = Epoc_benchmarks.Benchmarks.find "iswap" in
  let cfg = { Config.default with Config.synth_cache_dir = Some dir } in
  let run () =
    let metrics = M.create () in
    let engine = Engine.create ~config:cfg () in
    let session = Engine.session ~config:cfg ~metrics ~name:"iswap" engine in
    (Pipeline.compile session circuit, metrics)
  in
  let cold, cold_m = run () in
  Alcotest.(check int) "cold run has no hits" 0
    (M.counter_value cold_m "synth.cache.hits");
  Alcotest.(check bool) "cold run misses" true
    (M.counter_value cold_m "synth.cache.misses" > 0);
  Alcotest.(check bool) "cold run searched" true
    (M.hist_value cold_m "qsearch.expansions" <> None);
  let warm, warm_m = run () in
  Alcotest.(check bool) "warm run hits" true
    (M.counter_value warm_m "synth.cache.hits" > 0);
  Alcotest.(check int) "warm run fully cached" 0
    (M.counter_value warm_m "synth.cache.misses");
  Alcotest.(check bool) "warm run never enters QSearch" true
    (M.hist_value warm_m "qsearch.expansions" = None);
  Alcotest.(check bool) "schedule byte-identical" true
    (cold.Pipeline.schedule = warm.Pipeline.schedule);
  Alcotest.(check bool) "latency identical" true
    (cold.Pipeline.latency = warm.Pipeline.latency);
  Alcotest.(check bool) "esp identical" true
    (cold.Pipeline.esp = warm.Pipeline.esp);
  rm_rf dir

(* Synthesis-store lookups match unitaries up to global phase, so a hit
   can come from another block with a different gate list.  A replayed
   fallback re-derives the direct form of the block at hand: the warm
   compile of [b] equals its cold compile even when its blocks hit
   entries that [a] stored.  [b] is [a] with disjoint gates swapped and
   every rz written as p (equal up to phase). *)
let test_fallback_replay_transparent () =
  let header = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\n" in
  let a =
    Epoc_qasm.Qasm.of_string
      (header
     ^ "cx q[2],q[4]; h q[4]; cx q[4],q[2]; cx q[0],q[2]; h q[5]; cx q[0],q[4];\n\
        rz(2.244) q[4]; cx q[3],q[2]; rz(0.307) q[0]; rz(0.876) q[1]; h q[0];\n\
        rz(2.017) q[0]; cx q[5],q[0]; h q[0]; h q[0]; cx q[2],q[0]; h q[4];\n\
        rz(0.6) q[3];\n")
  in
  let b =
    Epoc_qasm.Qasm.of_string
      (header
     ^ "cx q[2],q[4]; h q[4]; cx q[4],q[2]; h q[5]; cx q[0],q[2]; cx q[0],q[4];\n\
        p(0.307) q[0]; cx q[3],q[2]; p(2.244) q[4]; h q[0]; p(0.876) q[1];\n\
        p(2.017) q[0]; cx q[5],q[0]; h q[0]; h q[0]; cx q[2],q[0]; h q[4];\n\
        p(0.6) q[3];\n")
  in
  let dir = tmp_dir "synth-transparent" in
  let compile cfg circuit =
    let metrics = M.create () in
    let r =
      Pipeline.compile
        (Engine.session ~config:cfg ~metrics ~name:"b" (Engine.create ~config:cfg ()))
        circuit
    in
    (r, metrics)
  in
  let cached = { Config.default with Config.synth_cache_dir = Some dir } in
  ignore (compile cached a);
  let warm, warm_m = compile cached b in
  let cold, _ = compile Config.default b in
  Alcotest.(check bool) "warm run replays a's entries" true
    (M.counter_value warm_m "synth.cache.hits" > 0);
  Alcotest.(check bool) "schedule equals the cold one" true
    (warm.Pipeline.schedule = cold.Pipeline.schedule);
  Alcotest.(check (float 0.0)) "latency equals the cold one" cold.Pipeline.latency
    warm.Pipeline.latency;
  Alcotest.(check (float 0.0)) "esp equals the cold one" cold.Pipeline.esp
    warm.Pipeline.esp;
  rm_rf dir

(* The warm synthesis path obeys the determinism contract: identical
   results and hit counts for any domain count. *)
let test_warm_synthesis_domain_determinism () =
  let dir = tmp_dir "synth-determinism" in
  let circuit = Epoc_benchmarks.Benchmarks.find "simon" in
  let cfg = { Config.default with Config.synth_cache_dir = Some dir } in
  ignore
    (Pipeline.compile
       (Engine.session ~config:cfg ~name:"simon" (Engine.create ~config:cfg ()))
       circuit);
  let run domains =
    let pool = Epoc_parallel.Pool.create ~domains () in
    let metrics = M.create () in
    let engine = Engine.create ~config:cfg ~pool () in
    let session = Engine.session ~config:cfg ~metrics ~name:"simon" engine in
    let r = Pipeline.compile session circuit in
    ( r.Pipeline.latency,
      r.Pipeline.esp,
      r.Pipeline.stats,
      M.counter_value metrics "synth.cache.hits",
      M.counter_value metrics "synth.cache.misses" )
  in
  Alcotest.(check bool) "1 vs 4 domains identical" true (run 1 = run 4);
  rm_rf dir

let () =
  Alcotest.run "cache"
    [
      ( "store",
        [
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "corrupted trailing record" `Quick
            test_corrupt_trailing;
          Alcotest.test_case "header mismatch" `Quick test_header_mismatch;
          Alcotest.test_case "concurrent writers" `Quick test_lock_contention;
          Alcotest.test_case "nearest neighbor" `Quick test_nearest;
          Alcotest.test_case "merged-entry accounting" `Quick
            test_merged_count;
        ] );
      ( "synth-store",
        [
          Alcotest.test_case "round-trip" `Quick test_synth_roundtrip;
          Alcotest.test_case "corrupted trailing record" `Quick
            test_synth_corrupt_trailing;
          Alcotest.test_case "pipeline warm synthesis" `Quick
            test_pipeline_warm_synthesis;
          Alcotest.test_case "fallback replay is transparent" `Quick
            test_fallback_replay_transparent;
          Alcotest.test_case "warm-synthesis domain determinism" `Quick
            test_warm_synthesis_domain_determinism;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "grape init" `Quick test_grape_warm_start;
          Alcotest.test_case "pipeline warm run" `Quick test_pipeline_warm_run;
          Alcotest.test_case "warm-run domain determinism" `Quick
            test_warm_run_domain_determinism;
        ] );
    ]
