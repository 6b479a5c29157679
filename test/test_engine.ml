(* Engine/session architecture tests: per-engine metric scoping, shared
   hardware memo, session library conventions, and the headline
   guarantee — concurrent sessions on one engine produce schedules
   bit-identical to solo one-shot runs, at any domain count. *)

open Epoc
module Metrics = Epoc_obs.Metrics
module Library = Epoc_pulse.Library
module Schedule = Epoc_pulse.Schedule

let bb84 () = Epoc_benchmarks.Benchmarks.find "bb84"

let run ?request_id ?library ?engine ~name c =
  let engine = match engine with Some e -> e | None -> Engine.create () in
  Pipeline.compile (Engine.session ?request_id ?library ~name engine) c
let qaoa () = Epoc_benchmarks.Benchmarks.find "qaoa"

let schedule_t =
  Alcotest.testable Schedule.pp (fun (a : Schedule.t) b -> a = b)

(* pool traffic lands on the owning engine's registry and nowhere else;
   a fresh engine starts from zero, so sequential runs on fresh engines
   report identical counts instead of accumulating process-wide *)
let test_pool_counter_scoping () =
  let pool_traffic e =
    Metrics.counter_value (Engine.metrics e) "pool.maps"
    + Metrics.counter_value (Engine.metrics e) "pool.sequential_maps"
  in
  let e1 = Engine.create ~domains:2 () in
  let e2 = Engine.create ~domains:2 () in
  let _ = run ~engine:e1 ~name:"bb84" (bb84 ()) in
  let n1 = pool_traffic e1 in
  Alcotest.(check bool) "run recorded traffic on its engine" true (n1 > 0);
  Alcotest.(check int) "idle engine saw none" 0 (pool_traffic e2);
  let _ = run ~engine:e2 ~name:"bb84" (bb84 ()) in
  Alcotest.(check int) "fresh engine reports the same count, not a sum" n1
    (pool_traffic e2);
  let _ = run ~engine:e1 ~name:"bb84" (bb84 ()) in
  Alcotest.(check int) "same engine accumulates" (2 * n1) (pool_traffic e1)

(* the hardware memo is engine-owned: repeated lookups share one model,
   distinct engines build their own *)
let test_hardware_memo () =
  let config = Config.default in
  let e1 = Engine.create () and e2 = Engine.create () in
  Alcotest.(check bool) "memo hit is the same model" true
    (Engine.hardware_for e1 config 2 == Engine.hardware_for e1 config 2);
  Alcotest.(check bool) "engines do not share models" false
    (Engine.hardware_for e1 config 2 == Engine.hardware_for e2 config 2)

(* a session shares the engine library only when its config's matching
   convention agrees; the phase-sensitive baselines get a private one *)
let test_session_library_convention () =
  let e = Engine.create () in
  let s_default = Engine.session ~name:"a" e in
  Alcotest.(check bool) "matching convention shares" true
    (s_default.Engine.library == Engine.library e);
  let phase_sensitive =
    { Config.default with Config.match_global_phase = false }
  in
  let s_sensitive = Engine.session ~config:phase_sensitive ~name:"b" e in
  Alcotest.(check bool) "mismatched convention isolates" false
    (s_sensitive.Engine.library == Engine.library e);
  Alcotest.(check bool) "private library follows the session config" false
    (Library.match_global_phase s_sensitive.Engine.library)

(* [with_config] keeps the session's identity, sinks and any library the
   caller passed; the library, budget and fault spec follow the new
   config *)
let test_with_config () =
  let e = Engine.create () in
  let s = Engine.session ~request_id:"job7" ~name:"w" e in
  Alcotest.(check bool) "opened on the engine library" true
    (s.Engine.library == Engine.library e);
  Alcotest.(check bool) "no deadline, unlimited budget" true
    (Epoc_budget.is_unlimited s.Engine.budget);
  let fault = Epoc_fault.parse_exn "grape_nan:0.5" in
  let sensitive =
    {
      Config.default with
      Config.match_global_phase = false;
      total_deadline = Some 60.0;
      fault = Some fault;
    }
  in
  let s' = Engine.with_config sensitive s in
  Alcotest.(check bool) "config replaced" true (s'.Engine.config == sensitive);
  Alcotest.(check bool) "phase-sensitive config leaves the engine library"
    false
    (s'.Engine.library == Engine.library e);
  Alcotest.(check bool) "private library follows the new config" false
    (Library.match_global_phase s'.Engine.library);
  Alcotest.(check bool) "budget derives from the new deadline" true
    ((not (Epoc_budget.is_unlimited s'.Engine.budget))
    && Epoc_budget.remaining_s s'.Engine.budget <= 60.0);
  Alcotest.(check (option string))
    "fault derives from the new config"
    (Some (Epoc_fault.to_string fault))
    (Option.map Epoc_fault.to_string s'.Engine.fault);
  Alcotest.(check string) "name kept" "w" s'.Engine.name;
  Alcotest.(check string) "request id kept" "job7" s'.Engine.request_id;
  Alcotest.(check bool) "sinks kept" true
    (s'.Engine.trace == s.Engine.trace && s'.Engine.metrics == s.Engine.metrics);
  Alcotest.(check bool) "back on the default config, back on the engine library"
    true
    ((Engine.with_config Config.default s').Engine.library == Engine.library e);
  (* an explicitly passed library survives any config *)
  let own = Library.create ~match_global_phase:true () in
  let mine = Engine.session ~library:own ~name:"x" e in
  Alcotest.(check bool) "explicit library kept" true
    ((Engine.with_config sensitive mine).Engine.library == own)

(* request ids are engine-scoped, unique and threaded session -> ctx ->
   result; an explicit id overrides the engine's counter *)
let test_request_ids () =
  let e = Engine.create () in
  let s1 = Engine.session ~name:"a" e in
  let s2 = Engine.session ~name:"b" e in
  Alcotest.(check string) "first id" "r1" s1.Engine.request_id;
  Alcotest.(check string) "second id" "r2" s2.Engine.request_id;
  Alcotest.(check string) "ctx sees the session id" "r1" s1.Pass.request_id;
  let s3 = Engine.session ~request_id:"job42" ~name:"c" e in
  Alcotest.(check string) "explicit id wins" "job42" s3.Engine.request_id;
  Alcotest.(check bool) "explicit id does not burn the counter" true
    ((Engine.session ~name:"d" e).Engine.request_id = "r3");
  (* engines do not share counters *)
  let e2 = Engine.create () in
  Alcotest.(check string) "fresh engine restarts" "r1"
    (Engine.session ~name:"x" e2).Engine.request_id;
  (* concurrent draws stay unique *)
  let e3 = Engine.create () in
  let draws =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init 25 (fun _ -> Engine.next_request_id e3)))
  in
  let ids = List.concat_map Domain.join draws in
  Alcotest.(check int) "100 concurrent draws, all distinct" 100
    (List.length (List.sort_uniq compare ids))

(* the id rides through the pipeline onto the result and keys the
   engine's flight recorder *)
let test_request_id_on_result () =
  let e = Engine.create () in
  let r1 = run ~engine:e ~name:"bb84" (bb84 ()) in
  let r2 = run ~engine:e ~name:"bb84" (bb84 ()) in
  Alcotest.(check string) "first run" "r1" r1.Pipeline.request_id;
  Alcotest.(check string) "second run" "r2" r2.Pipeline.request_id;
  let given =
    run ~engine:e ~request_id:"srv-7" ~name:"bb84" (bb84 ())
  in
  Alcotest.(check string) "caller-supplied id" "srv-7"
    given.Pipeline.request_id;
  (* every run landed in the flight recorder under its id *)
  let f = Engine.flight e in
  Alcotest.(check int) "three entries" 3 (Epoc_obs.Flight.length f);
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "flight holds %s" id)
        true
        (Epoc_obs.Flight.find f id <> None))
    [ "r1"; "r2"; "srv-7" ];
  (* one-shot runs (ephemeral engine) still stamp an id *)
  let solo = run ~name:"bb84" (bb84 ()) in
  Alcotest.(check string) "one-shot id" "r1" solo.Pipeline.request_id

(* two concurrent sessions on one engine — bb84 and qaoa compiling in
   parallel domains, each with a private library as the serve daemon
   does — produce schedules bit-identical to solo one-shot runs *)
let concurrent_vs_solo domains () =
  let solo name c =
    (run ~name c : Pipeline.result).Pipeline.schedule
  in
  let solo_bb84 = solo "bb84" (bb84 ()) in
  let solo_qaoa = solo "qaoa" (qaoa ()) in
  let engine = Engine.create ~domains () in
  let compile name c =
    Domain.spawn (fun () ->
        run ~engine ~library:(Library.create ()) ~name c)
  in
  let d1 = compile "bb84" (bb84 ()) in
  let d2 = compile "qaoa" (qaoa ()) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.check schedule_t "bb84 bit-identical to solo" solo_bb84
    r1.Pipeline.schedule;
  Alcotest.check schedule_t "qaoa bit-identical to solo" solo_qaoa
    r2.Pipeline.schedule;
  (* both sessions shared the engine: traffic landed on one registry *)
  Alcotest.(check bool) "engine saw both runs" true
    (Metrics.counter_value (Engine.metrics engine) "pool.maps"
     + Metrics.counter_value (Engine.metrics engine) "pool.sequential_maps"
    > 0)

let () =
  Alcotest.run "engine"
    [
      ( "scoping",
        [
          Alcotest.test_case "pool counters per engine" `Quick
            test_pool_counter_scoping;
          Alcotest.test_case "hardware memo per engine" `Quick
            test_hardware_memo;
          Alcotest.test_case "session library convention" `Quick
            test_session_library_convention;
          Alcotest.test_case "with_config re-derives from the config" `Quick
            test_with_config;
        ] );
      ( "request ids",
        [
          Alcotest.test_case "engine-scoped uniqueness" `Quick
            test_request_ids;
          Alcotest.test_case "threaded onto results and flight" `Quick
            test_request_id_on_result;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "concurrent sessions, 1 domain" `Slow
            (concurrent_vs_solo 1);
          Alcotest.test_case "concurrent sessions, 4 domains" `Slow
            (concurrent_vs_solo 4);
        ] );
    ]
