(* perfbench: a steady compile benchmark for the EPOC pipeline.

   One closed-loop client on one long-lived engine: each job is
   QASM text -> Qasm.of_string -> Pipeline.compile (private library per
   job, as `epoc serve` does) -> Pulseir.export + to_string, and the next
   job starts when the previous one returns.  A run walks its fixed job
   list in several interleaved passes and a job's time is its fastest
   pass.  perfbench/README.md explains the workloads and the noise model.

   Usage: main.exe --workload NAME --seed N --seconds S --trace 0|1
   The last stdout line is the JSON result; the lines before it are the
   human-readable report. *)

open Epoc_circuit
open Epoc_pulse
module Config = Epoc.Config
module Engine = Epoc.Engine
module Pipeline = Epoc.Pipeline
module Stages = Epoc.Stages
module Pass = Epoc.Pass
module Ir = Epoc.Ir
module Metrics = Epoc_obs.Metrics
module Json = Epoc_obs.Json
module Grape = Epoc_qoc.Grape
module Store = Epoc_cache.Store
module Qasm = Epoc_qasm.Qasm
module Pulseir = Epoc_pulseir.Pulseir
module Mat = Epoc_linalg.Mat

let now = Unix.gettimeofday

(* --- workloads ---------------------------------------------------------- *)

type workload = Estimate_mix | Replay_warm

let workload_name = function
  | Estimate_mix -> "estimate-mix"
  | Replay_warm -> "replay-warm"

let workload_of_string = function
  | "estimate-mix" -> Estimate_mix
  | "replay-warm" -> Replay_warm
  | s -> invalid_arg ("unknown workload " ^ s)

(* How many passes a run is sized for at the nominal job cost; the run
   itself keeps passing until --seconds is spent. *)
let target_passes = function Estimate_mix -> 30 | Replay_warm -> 20

(* Nominal seconds per job on the reference machine (2 cores, see
   README.md).  The job count is fixed from --seconds and this constant,
   never from a clock reading, so every run of a seed compiles the same
   jobs and its exact counters can be compared run against run. *)
let nominal_job_s = function
  | Estimate_mix -> 0.06
  | Replay_warm -> 0.005

let job_count w ~seconds =
  max 2
    (int_of_float
       (Float.round (seconds /. (float_of_int (target_passes w) *. nominal_job_s w))))

(* Distinct circuits compiled cold in replay-warm's set-up: the whole
   replay corpus, in corpus order. *)
let replay_set_size = 24

type job = { jname : string; qasm : string }

(* Both workloads take their circuits from a fixed corpus of seeded
   random circuits, the same for every run, and --seed sets the order
   they are compiled in (and which half a traced run takes): a compile's
   cost varies ~0.7x its mean from circuit to circuit, and a seeded draw
   of circuits moved the median job by up to a quarter (README.md).  The
   corpus seed is the first one tried; it was not picked for any
   property of its circuits. *)
let corpus_seed = 1

let corpus ~size gen =
  Array.init size (fun i -> gen (Random.State.make [| corpus_seed; i |]) i)

(* [k] distinct elements of [a] in seeded random order. *)
let draw st a k =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.sub a 0 k

(* --- one job ------------------------------------------------------------ *)

(* Benchmark-side spans: (layer -> seconds, minor words, IR size), reset
   per job.  Guarded for pools of more than one domain; minor words are
   only exact on the default single-domain pool. *)
type span = { mutable s_sec : float; mutable s_mw : float; mutable s_size : int }

let spans : (string, span) Hashtbl.t = Hashtbl.create 16
let spans_lock = Mutex.create ()
let captured_unitaries : Mat.t list ref = ref []

let add_span name ~sec ~mw ~size =
  Mutex.protect spans_lock (fun () ->
      let s =
        match Hashtbl.find_opt spans name with
        | Some s -> s
        | None ->
            let s = { s_sec = 0.0; s_mw = 0.0; s_size = 0 } in
            Hashtbl.replace spans name s;
            s
      in
      s.s_sec <- s.s_sec +. sec;
      s.s_mw <- s.s_mw +. mw;
      s.s_size <- s.s_size + size)

let timed name ?(size = fun _ -> 0) f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let sec = now () -. t0 in
  add_span name ~sec ~mw:(Gc.minor_words () -. w0) ~size:(size r);
  r

(* The EPOC flow mirrored from lib/epoc/pipeline.ml, each public call
   wrapped in a span.  The traced pulse-IR must match the untraced one
   byte for byte, and the tracing overhead flags a pass missing here. *)
let wrap layer ?(size = fun (_ : Ir.t) -> 0) (p : Pass.t) =
  let module P = (val p : Pass.PASS) in
  Pass.make ~counters:P.counters P.name (fun ctx ir ->
      timed layer ~size (fun () -> P.run ctx ir))

let pulse_unitaries (ir : Ir.t) =
  List.concat_map
    (List.filter_map (fun (_, job) ->
         Option.map (fun (j : Ir.pulse_job) -> j.Ir.ju) job))
    ir.Ir.groupings

let traced_flow : Pipeline.flow =
  let graph (ctx : Pass.ctx) circuit =
    let zx strategy = timed "zx" (fun () -> Epoc_zx.Zx.optimize ?strategy circuit) in
    if ctx.Pass.config.Config.use_zx then begin
      let graph = zx None in
      let peephole = zx (Some Epoc_zx.Zx.Peephole_only) in
      let candidates =
        if graph.Epoc_zx.Zx.used = Epoc_zx.Zx.Graph then
          [ (graph.Epoc_zx.Zx.circuit, true); (peephole.Epoc_zx.Zx.circuit, false) ]
        else [ (peephole.Epoc_zx.Zx.circuit, false) ]
      in
      ( candidates,
        ("candidates", List.length candidates) :: Epoc_zx.Zx.counters graph )
    end
    else ([ (circuit, false) ], [ ("candidates", 1) ])
  in
  let passes (config : Config.t) =
    let reorder p =
      if config.Config.commutation_reorder then [ wrap "circuit.reorder" p ]
      else []
    in
    reorder Stages.reorder_gates
    @ [
        wrap "partition" Stages.partition ~size:(fun ir ->
            List.length ir.Ir.blocks);
        wrap "synthesis" Stages.synthesis;
      ]
    @ reorder Stages.reorder_vugs
    @ [
        wrap "partition.regroup"
          (if config.Config.regroup then Stages.regroup_sweep
           else Stages.regroup_trivial)
          ~size:(fun ir -> List.length ir.Ir.groupings);
        wrap "qoc" Stages.pulses ~size:(fun ir ->
            let us = pulse_unitaries ir in
            Mutex.protect spans_lock (fun () ->
                captured_unitaries := us @ !captured_unitaries);
            List.length us);
        wrap "pulse.schedule" Stages.schedule;
      ]
  in
  { Pipeline.graph; passes }

type env = {
  engine : Engine.t;
  config : Config.t;
  inject_corrupt : bool;
}

(* Everything one execution of a job leaves behind. *)
type exec = {
  wall : float;  (** s, parse + compile + export *)
  minor : float;  (** words allocated by the whole job *)
  ir : string;
      (** digest of the exported pulse-IR ("" when the job raised); the
          text itself is not kept, so the benchmark's own bookkeeping
          stays out of [peak_rss_mb] *)
  error : string option;  (** raised, degraded or failed a check *)
  latency : float;
  esp : float;
  counters : (string * int) list;  (** exact work counters *)
  lib_hits : int;
  lib_lookups : int;
  major_gcs : int;
  stop_budget : int;
  grape_attempts : int;
  job_spans : (string * span) list;  (** traced executions only *)
  unitaries : Mat.t list;  (** pulse-job unitaries, traced only *)
}

let hist_sum m name =
  match Metrics.hist_value m name with
  | Some h -> int_of_float h.Metrics.sum
  | None -> 0

let hist_count m name =
  match Metrics.hist_value m name with Some h -> h.Metrics.count | None -> 0

(* Output checks that need nothing but the job's own result.  A job is
   degraded when a pulse computation fell back to gate pulses or a
   synthesis search failed (deadline or fault) and fell back to the
   direct VUG form. *)
let check_result (r : Pipeline.result) ir_text =
  let degraded = r.Pipeline.stats.Pipeline.degraded_blocks in
  let synth_failures = Metrics.counter_value r.Pipeline.metrics "synth.failures" in
  if degraded > 0 || synth_failures > 0 then
    Some
      (Printf.sprintf "degraded (%d pulse blocks, %d synthesis failures)"
         degraded synth_failures)
  else
    match Pulseir.to_string (Pulseir.of_string ir_text) with
    | s when s = ir_text -> None
    | _ -> Some "pulse-IR re-export differs"
    | exception Invalid_argument m -> Some ("pulse-IR import: " ^ m)

let run_job env ~traced ~corrupt (job : job) =
  Hashtbl.reset spans;
  captured_unitaries := [];
  let gc0 = (Gc.quick_stat ()).Gc.major_collections in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let outcome =
    match
      let circuit =
        if traced then timed "qasm" (fun () -> Qasm.of_string job.qasm)
        else Qasm.of_string job.qasm
      in
      let library =
        Library.create ~match_global_phase:env.config.Config.match_global_phase
          ()
      in
      let session =
        Engine.session ~config:env.config ~library ~name:job.jname env.engine
      in
      let r =
        if traced then Pipeline.compile_flow session traced_flow circuit
        else Pipeline.compile session circuit
      in
      let export () = Pulseir.to_string (Pulseir.export ~name:job.jname r.Pipeline.schedule) in
      let text = if traced then timed "pulseir" export else export () in
      (r, text)
    with
    | x -> Ok x
    | exception e -> Error (Printexc.to_string e)
  in
  let wall = now () -. t0 in
  let minor = Gc.minor_words () -. w0 in
  let major_gcs = (Gc.quick_stat ()).Gc.major_collections - gc0 in
  let job_spans =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) spans []
    |> List.sort compare
  in
  let empty =
    {
      wall; minor; ir = ""; error = None; latency = 0.0; esp = 0.0;
      counters = []; lib_hits = 0; lib_lookups = 0;
      major_gcs; stop_budget = 0; grape_attempts = 0; job_spans;
      unitaries = !captured_unitaries;
    }
  in
  match outcome with
  | Error e -> { empty with error = Some ("raised: " ^ e) }
  | Ok (r, text) ->
      let text =
        if corrupt then String.sub text 0 (String.length text / 2) else text
      in
      let m = r.Pipeline.metrics in
      let c = Metrics.counter_value m in
      let st = r.Pipeline.stats in
      let counters =
        [
          ("blocks", st.Pipeline.blocks);
          ("synthesized_blocks", st.Pipeline.synthesized_blocks);
          ("pulse_count", st.Pipeline.pulse_count);
          ("synth.blocks", c "synth.blocks");
          ("synth.synthesized", c "synth.synthesized");
          ("synth.failures", c "synth.failures");
          ("qsearch.expansions", hist_sum m "qsearch.expansions");
          ("grape.searches", c "grape.searches");
          ("grape.runs", c "grape.runs");
          ("grape.iterations", hist_sum m "grape.iterations");
          ("qoc.estimates", c "qoc.estimates");
          ("cache.hits", c "cache.hits");
          ("cache.misses", c "cache.misses");
          ("synth.cache.hits", c "synth.cache.hits");
          ("pulse.jobs", c "pulse.jobs");
          ("pulse.computed", c "pulse.computed");
        ]
        @ List.map (fun (k, v) -> ("span_size." ^ k, v.s_size)) job_spans
      in
      let ls = r.Pipeline.library_stats in
      {
        empty with
        ir = Digest.to_hex (Digest.string text);
        error = check_result r text;
        latency = r.Pipeline.latency;
        esp = r.Pipeline.esp;
        counters;
        lib_hits = ls.Library.hits;
        lib_lookups = ls.Library.hits + ls.Library.misses;
        stop_budget = c "grape.stop.budget";
        grape_attempts = hist_count m "grape.iterations";
      }

(* --- set-up --------------------------------------------------------------- *)

let tmp_root = "_perfbench_tmp"

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type setup = {
  env : env;
  jobs : job array;
  cold_ir : (string, string) Hashtbl.t;
      (** replay-warm: qasm -> digest of the cold-fill pulse-IR, which
          every replay is compared with (see [replay_mismatch]) *)
  store_dir : string option;
}

let compile_text env ~name text =
  let library =
    Library.create ~match_global_phase:env.config.Config.match_global_phase ()
  in
  let session = Engine.session ~config:env.config ~library ~name env.engine in
  Pipeline.compile session (Qasm.of_string text)

let rand_circuit st ~n ~lo ~hi =
  let seed = Random.State.bits st in
  let length = lo + Random.State.int st (hi - lo + 1) in
  Qasm.to_string_qasm (Epoc_benchmarks.Benchmarks.random_circuit ~seed ~n ~length)

let setup_once ~workload ~seed ~n_plan ~n_jobs ~rep ~fault ~inject_corrupt =
  let st = Random.State.make [| seed; Hashtbl.hash (workload_name workload) |] in
  let store_dir, config =
    match workload with
    | Replay_warm ->
        let dir =
          Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) rep)
        in
        remove_tree dir;
        ( Some dir,
          {
            Config.default with
            Config.cache_dir = Some (Filename.concat dir "pulses");
            synth_cache_dir = Some (Filename.concat dir "synth");
          } )
    | Estimate_mix -> (None, Config.default)
  in
  let config = { config with Config.fault } in
  let engine = Engine.create ~config () in
  (* the engine memoizes one hardware model per block width on first
     use; building them here keeps that one-time cost out of the first
     timed job (partition blocks are at most 4 qubits wide) *)
  List.iter (fun k -> ignore (Engine.hardware_for engine config k)) [ 1; 2; 3; 4 ];
  let env = { engine; config; inject_corrupt } in
  let cold_ir = Hashtbl.create 32 in
  let mk i qasm = { jname = Printf.sprintf "job%d" i; qasm } in
  let jobs =
    match workload with
    | Estimate_mix ->
        (* fixed, seed-independent warm-up, so setup_s does not follow
           the seed *)
        ignore
          (compile_text env ~name:"warmup"
             (Qasm.to_string_qasm
                (Epoc_benchmarks.Benchmarks.random_circuit ~seed:0 ~n:6
                   ~length:24)));
        let corpus =
          corpus ~size:n_plan (fun st i ->
              rand_circuit st ~n:(5 + (i mod 2)) ~lo:8 ~hi:20)
        in
        Array.mapi mk (draw st corpus n_jobs)
    | Replay_warm ->
        let set =
          corpus ~size:replay_set_size (fun st i ->
              rand_circuit st ~n:(3 + (i mod 4)) ~lo:15 ~hi:40)
        in
        (* cold fill: each distinct circuit compiled once through both
           stores, in corpus order; its pulse-IR is what every replay of
           that circuit is compared with *)
        Array.iteri
          (fun i text ->
            let jname = Printf.sprintf "c%d" i in
            let r = compile_text env ~name:jname text in
            Hashtbl.replace cold_ir text
              (Digest.to_hex
                 (Digest.string
                    (Pulseir.to_string (Pulseir.export ~name:jname r.Pipeline.schedule)))))
          set;
        ignore (compile_text env ~name:"c0" set.(0));
        (* every circuit of the set is resubmitted equally often, in
           seeded order, so the job mix does not vary with the seed *)
        let per = max 1 ((n_plan + (replay_set_size / 2)) / replay_set_size) in
        let all =
          Array.init (per * replay_set_size) (fun j ->
              let i = j mod replay_set_size in
              { jname = Printf.sprintf "c%d" i; qasm = set.(i) })
        in
        let order = draw st all (Array.length all) in
        Array.sub order 0 (Array.length order * n_jobs / n_plan)
  in
  { env; jobs; cold_ir; store_dir }

(* --- measurement ------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  match xs with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ -> exp (mean (List.map log xs))

(* The highest percentile with at least 10 jobs beyond it, as
   (rank share, value); [None] below 11 jobs. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 11 then None
  else Some (float_of_int (n - 10) /. float_of_int n, a.(n - 11))

(* Every exact counter of [a] that [b] does not repeat (and, when
   [minor], a difference in minor words). *)
let counter_diffs ~minor (a : exec) (b : exec) =
  List.filter_map
    (fun (k, va) ->
      match List.assoc_opt k b.counters with
      | Some vb when vb = va -> None
      | vb ->
          Some
            (Printf.sprintf "%s %d vs %s" k va
               (Option.fold ~none:"absent" ~some:string_of_int vb)))
    a.counters
  @
  if minor && a.minor <> b.minor then
    [ Printf.sprintf "minor words %.0f vs %.0f" a.minor b.minor ]
  else []

(* Walk the job list in passes until --seconds is spent (at least
   [min_passes], and no pass is started that the previous one says would
   overrun).  In a traced run each pass runs each job untraced and traced
   back to back, alternating which goes first, so both see the same
   machine phase. *)
let min_passes = 2
let max_passes = 64

(* What a run keeps of one job: its first execution, the reference every
   later pass is checked against, and its fastest.  Later executions are
   checked as they finish and dropped, so the benchmark's own memory does
   not grow with the pass count. *)
type kept = { first : exec; fastest : exec }

type measured = {
  plain : kept array;
  traced : kept array;  (** empty in an untraced run *)
  passes : int;
  attempted : int;
  failures : string list;  (** one line per failed execution *)
  replays : int;  (** replay-warm executions of a cold-filled circuit *)
  mismatches : int;  (** ... whose pulse-IR differs from the cold fill *)
  mismatched : string list;  (** their circuits, each named once *)
}

let strip_sizes =
  List.filter (fun (name, _) ->
      not (String.length name > 10 && String.sub name 0 10 = "span_size."))

(* The first reason execution [e] fails, if any.  An exact
   counter that does not repeat is a determinism bug and fails the
   execution like a wrong output.  A replay that differs from its cold
   fill is not a failure but a measured cache defect ([replay_mismatch],
   README.md "Checks"): the replayed pulse-IR is still checked here like
   any other output. *)
let check ?paired (first : exec option) (e : exec) =
  let did_not_repeat what diffs =
    if diffs = [] then None
    else Some (what ^ " did not repeat: " ^ String.concat ", " diffs)
  in
  let failures =
    [
      e.error;
      (match first with
      | Some f when e.counters <> [] && f.counters <> [] ->
          did_not_repeat "counter" (counter_diffs ~minor:true f e)
      | _ -> None);
      (match paired with
      | Some (u : exec) when e.counters <> [] && u.counters <> [] ->
          did_not_repeat "untraced counter"
            (counter_diffs ~minor:false
               { u with counters = strip_sizes u.counters }
               { e with counters = strip_sizes e.counters })
      | _ -> None);
      (match first with
      | Some f when e.ir <> f.ir -> Some "pulse-IR differs between passes"
      | _ -> None);
      (match paired with
      | Some (u : exec) when e.ir <> u.ir -> Some "traced pulse-IR differs from untraced"
      | _ -> None);
    ]
  in
  List.find_map Fun.id failures

(* Whether execution [e] of a cold-filled circuit replays a pulse-IR
   other than its cold fill's ([None] for other jobs and raised ones). *)
let replay_mismatch (s : setup) (job : job) (e : exec) =
  match Hashtbl.find_opt s.cold_ir job.qasm with
  | Some cold when e.ir <> "" -> Some (e.ir <> cold)
  | _ -> None

let measure (s : setup) ~n ~traced ~seconds =
  let plain = Array.make n None and tr = Array.make n None in
  let attempted = ref 0 and failures = ref [] in
  let replays = ref 0 and mismatches = ref 0 and mismatched = ref [] in
  let record slots label ~pass ?paired i (e : exec) =
    incr attempted;
    let job = s.jobs.(i) in
    let what = Printf.sprintf "%s %s pass %d" label job.jname (pass + 1) in
    (match replay_mismatch s job e with
    | None -> ()
    | Some differs ->
        incr replays;
        if differs then begin
          incr mismatches;
          if not (List.mem job.jname !mismatched) then
            mismatched := job.jname :: !mismatched
        end);
    let first = Option.map (fun k -> k.first) slots.(i) in
    Option.iter
      (fun m -> failures := (what ^ ": " ^ m) :: !failures)
      (check ?paired first e);
    slots.(i) <-
      Some
        (match slots.(i) with
        | None -> { first = e; fastest = e }
        | Some k when e.wall < k.fastest.wall -> { k with fastest = e }
        | Some k -> k)
  in
  let run ~traced ~corrupt i = run_job s.env ~traced ~corrupt s.jobs.(i) in
  let t_start = now () in
  let rec pass k last =
    if k < min_passes || (now () -. t_start +. last <= seconds && k < max_passes)
    then begin
      let p0 = now () in
      for i = 0 to n - 1 do
        let corrupt = s.env.inject_corrupt && i = 0 && k = 0 in
        if not traced then record plain "untraced" ~pass:k i (run ~traced:false ~corrupt i)
        else begin
          let u, t =
            if k mod 2 = 0 then
              let u = run ~traced:false ~corrupt i in
              (u, run ~traced:true ~corrupt:false i)
            else
              let t = run ~traced:true ~corrupt:false i in
              (run ~traced:false ~corrupt i, t)
          in
          record plain "untraced" ~pass:k i u;
          record tr "traced" ~pass:k ~paired:u i t
        end
      done;
      pass (k + 1) (now () -. p0)
    end
    else k
  in
  let passes = pass 0 0.0 in
  let kept m = Array.map Option.get m in
  {
    plain = kept plain;
    traced = (if traced then kept tr else [||]);
    passes;
    attempted = !attempted;
    failures = List.rev !failures;
    replays = !replays;
    mismatches = !mismatches;
    mismatched = List.sort compare !mismatched;
  }

(* --- probes ----------------------------------------------------------------- *)

(* GRAPE kernel throughput at fixed shapes: a fixed iteration budget per
   solve (unreachable target, no patience stop), best of three. *)
let kernel_probe env ~qubits ~slots ~iterations =
  let hw = Engine.hardware_for env.engine env.config qubits in
  let target =
    Circuit.unitary
      (Epoc_benchmarks.Benchmarks.random_circuit ~seed:11 ~n:qubits
         ~length:(4 * qubits))
  in
  let options =
    {
      Grape.default_options with
      Grape.iterations;
      fidelity_target = 2.0;
      patience = iterations + 1;
      init = None;
    }
  in
  let workspace = Grape.workspace () in
  let once n_slots =
    let job =
      Grape.batch_job ~options ~rng:(Random.State.make [| 7 |]) hw ~target
        ~slots:n_slots
    in
    let t0 = now () in
    let r = Grape.optimize_batch ~pool:(Engine.pool env.engine) ~workspace [| job |] in
    let dt = now () -. t0 in
    match r.(0) with
    | Ok res -> (dt, res.Grape.iterations * n_slots)
    | Error e -> failwith ("kernel probe: " ^ Epoc_error.to_string e)
  in
  let steps, sec =
    List.fold_left
      (fun (steps, sec) n_slots ->
        let runs = List.init 3 (fun _ -> once n_slots) in
        let t = List.fold_left (fun acc (dt, _) -> Float.min acc dt) infinity runs in
        (steps + snd (List.hd runs), sec +. t))
      (0, 0.0) slots
  in
  float_of_int steps /. sec

(* Store lookup latency on (the first 500 of) the unitaries the traced
   run resolved: each find repeated in a batch, best of three batches,
   p50 over unitaries.  0 on workloads that open no store. *)
let find_probe env unitaries =
  match Engine.cache env.engine with
  | None -> 0.0
  | Some store ->
      let unitaries = List.filteri (fun i _ -> i < 500) unitaries in
      let reps = 20 in
      let one u =
        let batch () =
          let t0 = now () in
          for _ = 1 to reps do ignore (Store.find store u) done;
          (now () -. t0) /. float_of_int reps
        in
        Float.min (batch ()) (Float.min (batch ()) (batch ()))
      in
      median (List.map one unitaries) *. 1e6

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" (fun kb -> kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* --- one run ---------------------------------------------------------------- *)

let setup_reps = 5

let metric name value unit = (name, value, unit)

let run ~workload ~seed ~seconds ~trace ~inject =
  let n_e2e = job_count workload ~seconds in
  (* a traced run executes every job twice per pass, so it takes the
     first half of the job list to stay within --seconds *)
  let n = if trace then max 1 (n_e2e / 2) else n_e2e in
  let fault =
    if inject = Some "fault" then Some (Epoc_fault.parse_exn "deadline:1")
    else None
  in
  let inject_corrupt = inject = Some "corrupt-ir" in
  (* set up several times from scratch and keep the last; setup_s is the
     median *)
  let setups =
    List.init setup_reps (fun rep ->
        let t0 = now () in
        let s = setup_once ~workload ~seed ~n_plan:n_e2e ~n_jobs:n ~rep ~fault ~inject_corrupt in
        (now () -. t0, s))
  in
  let setup_s = median (List.map fst setups) in
  let s = snd (List.nth setups (setup_reps - 1)) in
  (* self-test: a stale cold-fill reference must show as replay mismatches *)
  if inject = Some "stale-cold" then
    Hashtbl.filter_map_inplace (fun _ _ -> Some "stale") s.cold_ir;
  List.iter
    (fun (_, (s' : setup)) -> if s' != s then Option.iter remove_tree s'.store_dir)
    setups;
  let n = Array.length s.jobs in
  let m = measure s ~n ~traced:trace ~seconds in
  let p = m.passes and attempted = m.attempted and failures = m.failures in
  let failed = List.length failures in
  let mismatch_share =
    if m.replays = 0 then 0.0
    else float_of_int m.mismatches /. float_of_int m.replays
  in
  let domains = Epoc_parallel.Pool.domains (Engine.pool s.env.engine) in
  let best_plain = Array.to_list (Array.map (fun k -> k.fastest) m.plain) in
  let firsts = Array.to_list (Array.map (fun k -> k.first) m.plain) in
  let ms_of (e : exec) = e.wall *. 1000.0 in
  let plain_ms = List.map ms_of best_plain in
  let ok = List.filter (fun (e : exec) -> e.ir <> "") firsts in
  let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts)) in
  let inputs_digest =
    digest
      (Array.to_list (Array.map (fun j -> j.jname ^ "\n" ^ j.qasm) s.jobs)
      @ List.sort compare (Hashtbl.fold (fun k v acc -> (k ^ v) :: acc) s.cold_ir []))
  in
  let counters_digest =
    digest
      (List.map
         (fun (e : exec) ->
           String.concat ","
             (Printf.sprintf "%.0f" e.minor
             :: e.ir
             :: List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) e.counters))
         firsts)
  in
  let metrics =
    if not trace then
      [
        metric "setup_s" setup_s "s";
        metric "jobs_per_s"
          (float_of_int n /. List.fold_left (fun a (e : exec) -> a +. e.wall) 0.0 best_plain)
          "1/s";
        metric "compile_ms.p50" (median plain_ms) "ms";
        metric "latency_ns.geomean" (geomean (List.map (fun (e : exec) -> e.latency) ok)) "ns";
        metric "esp.geomean" (geomean (List.map (fun (e : exec) -> e.esp) ok)) "ratio";
        metric "peak_rss_mb" (peak_rss_mb ()) "MB";
      ]
    else begin
      let best_tr = Array.to_list (Array.map (fun k -> k.fastest) m.traced) in
      let per_job f = mean (List.map f best_tr) in
      let span_of (e : exec) name =
        match List.assoc_opt name e.job_spans with
        | Some sp -> sp
        | None -> { s_sec = 0.0; s_mw = 0.0; s_size = 0 }
      in
      let layer_ms names =
        per_job (fun e -> 1000.0 *. List.fold_left (fun a nm -> a +. (span_of e nm).s_sec) 0.0 names)
      in
      let layer_mw name = per_job (fun e -> (span_of e name).s_mw /. 1e6) in
      let total name =
        List.fold_left
          (fun a (e : exec) -> a + Option.value ~default:0 (List.assoc_opt name e.counters))
          0 best_tr
      in
      let totf name = float_of_int (total name) in
      let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
      let stage_layers =
        [ "zx"; "circuit.reorder"; "partition"; "synthesis"; "partition.regroup"; "qoc";
          "pulse.schedule" ]
      in
      let stage_ms = layer_ms stage_layers in
      let stage_share l = if stage_ms = 0.0 then 0.0 else layer_ms [ l ] /. stage_ms in
      let wrapped = "qasm" :: "pulseir" :: stage_layers in
      let sum f = List.fold_left (fun a (e : exec) -> a + f e) 0 best_tr in
      [
        metric "qasm.parse_ms" (layer_ms [ "qasm" ]) "ms";
        metric "pulseir.export_ms" (layer_ms [ "pulseir" ]) "ms";
        metric "zx.ms" (layer_ms [ "zx" ]) "ms";
        metric "circuit.reorder_ms" (layer_ms [ "circuit.reorder" ]) "ms";
        metric "partition.ms" (layer_ms [ "partition" ]) "ms";
        metric "partition.regroup_ms" (layer_ms [ "partition.regroup" ]) "ms";
        metric "pulse.schedule_ms" (layer_ms [ "pulse.schedule" ]) "ms";
        metric "partition.blocks" (totf "span_size.partition") "count";
        metric "partition.groupings" (totf "span_size.partition.regroup") "count";
        metric "synthesis.ms" (layer_ms [ "synthesis" ]) "ms";
        metric "synthesis.qsearch_expansions" (totf "qsearch.expansions") "count";
        metric "synthesis.blocks" (totf "synth.blocks") "count";
        metric "synthesis.synthesized" (totf "synth.synthesized") "count";
        metric "synthesis.yield" (share (total "synth.synthesized") (total "synth.blocks")) "ratio";
        metric "synthesis.stage_share" (stage_share "synthesis") "ratio";
        metric "qoc.pulses_ms" (layer_ms [ "qoc" ]) "ms";
        metric "qoc.stage_share" (stage_share "qoc") "ratio";
        metric "qoc.grape_searches" (totf "grape.searches") "count";
        metric "qoc.grape_runs" (totf "grape.runs") "count";
        metric "qoc.grape_iterations" (totf "grape.iterations") "count";
        metric "qoc.estimates" (totf "qoc.estimates") "count";
        metric "qoc.grape_budget_stop_share"
          (share (sum (fun e -> e.stop_budget)) (sum (fun e -> e.grape_attempts)))
          "ratio";
        metric "qoc.grape_slot_steps_per_s.d4"
          (kernel_probe s.env ~qubits:2 ~slots:[ 128; 384 ] ~iterations:40)
          "1/s";
        metric "qoc.grape_slot_steps_per_s.d8"
          (kernel_probe s.env ~qubits:3 ~slots:[ 128; 384 ] ~iterations:10)
          "1/s";
        metric "cache.hits" (totf "cache.hits") "count";
        metric "cache.misses" (totf "cache.misses") "count";
        metric "cache.synth_hits" (totf "synth.cache.hits") "count";
        metric "cache.replay_mismatch_share" mismatch_share "ratio";
        metric "cache.find_us.p50"
          (find_probe s.env (List.concat_map (fun (e : exec) -> e.unitaries) best_tr))
          "us";
        metric "pulse.library_hit_share"
          (share (sum (fun e -> e.lib_hits)) (sum (fun e -> e.lib_lookups)))
          "ratio";
        metric "pulse.jobs" (totf "pulse.jobs") "count";
        metric "pulse.computed" (totf "pulse.computed") "count";
        metric "epoc.driver_ms"
          (per_job (fun e ->
               1000.0 *. (e.wall -. List.fold_left (fun a nm -> a +. (span_of e nm).s_sec) 0.0 wrapped)))
          "ms";
        metric "epoc.major_gcs" (per_job (fun e -> float_of_int e.major_gcs)) "count";
        metric "zx.minor_mw" (layer_mw "zx") "Mword";
        metric "synthesis.minor_mw" (layer_mw "synthesis") "Mword";
        metric "qoc.minor_mw" (layer_mw "qoc") "Mword";
        metric "epoc.minor_mw" (per_job (fun e -> e.minor /. 1e6)) "Mword";
        metric "trace.overhead_ms" (median (List.map ms_of best_tr) -. median plain_ms) "ms";
      ]
    end
  in
  Option.iter remove_tree s.store_dir;
  (try Sys.rmdir tmp_root with Sys_error _ -> ());
  Printf.printf
    "perfbench workload=%s seed=%d trace=%d domains=%d jobs=%d passes=%d\n"
    (workload_name workload) seed (if trace then 1 else 0) domains n p;
  Printf.printf "inputs digest   %s\n" inputs_digest;
  Printf.printf "counters digest %s\n" counters_digest;
  List.iter (fun (k, v, u) -> Printf.printf "  %-32s %.6g %s\n" k v u) metrics;
  if not trace then begin
    (match tail plain_ms with
    | Some (q, v) ->
        Printf.printf "  %-32s %.6g ms (p%.1f of %d jobs)\n" "compile_ms.tail" v
          (100.0 *. q) n
    | None ->
        Printf.printf "  %-32s none (%d jobs; a tail needs 11)\n" "compile_ms.tail" n);
    Printf.printf "  compile_ms.p50 is over %d jobs\n" n
  end;
  Printf.printf "  %-32s %.6g (%d of %d executions)\n" "failed_share"
    (if attempted = 0 then 0.0 else float_of_int failed /. float_of_int attempted)
    failed attempted;
  List.iteri (fun i f -> if i < 20 then Printf.printf "  failed: %s\n" f) failures;
  if m.replays > 0 then
    Printf.printf "  %-32s %.6g (%d of %d replays differ from their cold fill%s)\n"
      "replay_mismatch_share" mismatch_share m.mismatches m.replays
      (if m.mismatched = [] then ""
       else ": " ^ String.concat " " m.mismatched);
  if failed > 20 then Printf.printf "  failed: ... %d more\n" (failed - 20);
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (failed = 0));
        ("attempted", Json.of_int attempted);
        ("failed", Json.of_int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (k, v, u) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
               metrics) );
      ]
  in
  print_string (Json.to_string json);
  print_newline ()

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 50.0
  and trace = ref false and inject = ref None in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := Some (workload_of_string w); parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := (v = "1"); parse rest
    | "--inject" :: v :: rest -> inject := Some v; parse rest
    | [] -> ()
    | a :: _ -> invalid_arg ("unknown argument " ^ a)
  in
  match
    parse (List.tl (Array.to_list Sys.argv));
    Option.get !workload
  with
  | exception e ->
      prerr_endline ("usage: main.exe --workload estimate-mix|replay-warm --seed N --seconds S --trace 0|1 (" ^ Printexc.to_string e ^ ")");
      exit 2
  | workload ->
      run ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~inject:!inject
