(* The `epoc serve` daemon: one long-lived [Epoc.Engine] multiplexing
   concurrent compile requests arriving as JSON Lines over a Unix
   socket (lib/serve/protocol.ml).

   Threading model (systhreads, not domains — the engine's pool owns
   the domain budget; serve threads only block on IO and hand work to
   the pipeline):

     - the main thread accepts connections, using select over the
       listening socket and a self-pipe written by the SIGTERM/SIGINT
       handler, so shutdown interrupts accept without polling;
     - one reader thread per connection parses request lines; metrics
       commands are answered inline, compile jobs are enqueued;
     - [workers] worker threads pop jobs in (priority desc, arrival
       asc) order and run them through the shared engine.

   Isolation: every job compiles against a fresh private library, so a
   job resolves exactly like a one-shot run and concurrent jobs cannot
   observe each other's in-flight entries (which would break the
   determinism contract).  Cross-request reuse flows through the
   engine-owned persistent store — a repeated job hits the store
   (cache.hits > 0) instead of re-running GRAPE — and each completed
   job's library is absorbed into the engine's shared one afterwards.

   Graceful shutdown: on SIGTERM/SIGINT admission stops (late jobs get
   a "shutting down" error response), queued and in-flight jobs drain —
   each bounded by its own deadline — the store is flushed once, one
   final metrics line goes to stdout, and the socket path is removed.
   Responses are written whole under a per-connection lock, so client
   streams never carry torn JSONL. *)

module J = Epoc_obs.Json
module M = Epoc_obs.Metrics
module Config = Epoc.Config
module Library = Epoc_pulse.Library

let src = Logs.Src.create "epoc.serve" ~doc:"EPOC serve daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type opts = { socket : string; workers : int; config : Config.t }

type pending = {
  jid : int;
  job : Protocol.job;
  reply : string -> unit;  (* write one whole response line *)
  enqueued_s : float;  (* admission time; queue_wait = pickup - this *)
}

type state = {
  engine : Epoc.Engine.t;
  config : Config.t;
  runs : M.t;  (* aggregate of completed jobs' per-run registries *)
  lock : Mutex.t;
  nonempty : Condition.t;  (* signalled on enqueue and on shutdown *)
  drained : Condition.t;  (* signalled when a job completes *)
  mutable queue : pending list;  (* unsorted; [take_locked] picks best *)
  mutable in_flight : int;
  mutable next_jid : int;
  mutable stopping : bool;
}

let next_jid st =
  Mutex.lock st.lock;
  let jid = st.next_jid in
  st.next_jid <- jid + 1;
  Mutex.unlock st.lock;
  jid

(* Highest priority first, then arrival order (jid ascending). *)
let take_locked st =
  match st.queue with
  | [] -> None
  | first :: rest ->
      let best =
        List.fold_left
          (fun best p ->
            if
              p.job.Protocol.priority > best.job.Protocol.priority
              || (p.job.Protocol.priority = best.job.Protocol.priority
                 && p.jid < best.jid)
            then p
            else best)
          first rest
      in
      st.queue <- List.filter (fun p -> p.jid <> best.jid) st.queue;
      M.set
        (Epoc.Engine.metrics st.engine)
        "serve.queue_depth"
        (float_of_int (List.length st.queue));
      Some best

(* --- job execution -------------------------------------------------------- *)

let load_circuit spec =
  if String.length spec >= 6 && String.sub spec 0 6 = "bench:" then
    let name = String.sub spec 6 (String.length spec - 6) in
    match Epoc_benchmarks.Benchmarks.find name with
    | c -> Ok c
    | exception _ -> Error (Printf.sprintf "unknown benchmark %S" name)
  else
    match Epoc_qasm.Qasm.of_string spec with
    | c -> Ok c
    | exception Epoc_qasm.Qasm.Parse_error m -> Error ("parse error: " ^ m)
    | exception Invalid_argument m -> Error m

(* [queue_wait_s], [worker] and [drained] ride on every response —
   success or error — so a job that times out while the daemon drains
   still reports where it waited and who ran it. *)
let compile st (p : pending) ~request_id ~queue_wait_s ~worker ~drained =
  let job = p.job in
  let config =
    {
      st.config with
      Config.qoc_mode = job.Protocol.mode;
      total_deadline =
        (match job.Protocol.deadline_s with
        | Some _ as d -> d
        | None -> st.config.Config.total_deadline);
    }
  in
  (* per-job device override, resolved against the engine's registry
     (zoo name or device-file path); the daemon's --device default
     already lives in st.config *)
  match
    match job.Protocol.device with
    | None -> Ok config
    | Some spec -> (
        match
          Epoc_device.Device.Registry.resolve
            (Epoc.Engine.devices st.engine)
            spec
        with
        | Ok d -> Ok (Config.with_device d config)
        | Error m -> Error m)
  with
  | Error msg ->
      Protocol.error_response ~jid:p.jid ~request_id ~queue_wait_s ~worker
        ~drained msg
  | Ok config -> (
  match
    ( Epoc.Baselines.find job.Protocol.flow,
      load_circuit job.Protocol.circuit )
  with
  | Error msg, _ | _, Error msg ->
      Protocol.error_response ~jid:p.jid ~request_id ~queue_wait_s ~worker
        ~drained msg
  | Ok flow, Ok circuit -> (
      (* a private library under the matching convention the flow
         compiles under (the AccQOC/PAQOC config transforms force
         phase-sensitive matching) *)
      let library =
        Library.create
          ~match_global_phase:
            (Epoc.Baselines.config_for flow config circuit)
              .Config.match_global_phase
          ()
      in
      let session =
        Epoc.Engine.session ~config ~request_id ~library
          ~name:(Printf.sprintf "job%d" p.jid)
          st.engine
      in
      match Epoc.Baselines.compile flow session circuit with
      | exception e ->
          Protocol.error_response ~jid:p.jid ~request_id ~queue_wait_s ~worker
            ~drained (Printexc.to_string e)
      | result ->
          let shared = Epoc.Engine.library st.engine in
          if
            Library.match_global_phase shared
            = Library.match_global_phase library
          then Library.absorb shared library;
          M.absorb st.runs result.Epoc.Pipeline.metrics;
          Protocol.result_response ~jid:p.jid ~queue_wait_s ~worker ~drained
            result))

let process st ~worker ~drained (p : pending) =
  let em = Epoc.Engine.metrics st.engine in
  let picked_s = Unix.gettimeofday () in
  let queue_wait_s = max 0.0 (picked_s -. p.enqueued_s) in
  M.observe em "serve.queue_wait_seconds" queue_wait_s;
  (* the request id is drawn before the compile so the job is
     attributable even when it never produces a result *)
  let request_id = Epoc.Engine.next_request_id st.engine in
  let response =
    compile st p ~request_id ~queue_wait_s ~worker ~drained
  in
  let status =
    match J.member "status" response with Some (J.Str s) -> s | _ -> "error"
  in
  M.incr em "serve.jobs";
  M.incr em ("serve." ^ status);
  M.incr em (Printf.sprintf "serve.requests{status=%S}" status);
  if drained then M.incr em "serve.drained";
  M.observe em "serve.e2e_seconds"
    (max 0.0 (Unix.gettimeofday () -. p.enqueued_s));
  p.reply (Protocol.to_line response)

let rec worker_loop st worker =
  Mutex.lock st.lock;
  let rec await () =
    match take_locked st with
    | Some p ->
        st.in_flight <- st.in_flight + 1;
        let drained = st.stopping in
        M.set
          (Epoc.Engine.metrics st.engine)
          "serve.in_flight"
          (float_of_int st.in_flight);
        Mutex.unlock st.lock;
        Some (p, drained)
    | None ->
        if st.stopping then begin
          Mutex.unlock st.lock;
          None
        end
        else begin
          Condition.wait st.nonempty st.lock;
          await ()
        end
  in
  match await () with
  | None -> ()
  | Some (p, drained) ->
      (match process st ~worker ~drained p with
      | () -> ()
      | exception e ->
          Log.err (fun m ->
              m "job %d: uncaught %s" p.jid (Printexc.to_string e)));
      Mutex.lock st.lock;
      st.in_flight <- st.in_flight - 1;
      M.set
        (Epoc.Engine.metrics st.engine)
        "serve.in_flight"
        (float_of_int st.in_flight);
      Condition.broadcast st.drained;
      Mutex.unlock st.lock;
      worker_loop st worker

(* --- connections ---------------------------------------------------------- *)

let write_all fd line =
  let b = Bytes.of_string line in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | written -> go (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  try go 0 with Unix.Unix_error _ -> () (* client went away; drop *)

let enqueue st job reply =
  let em = Epoc.Engine.metrics st.engine in
  Mutex.lock st.lock;
  if st.stopping then begin
    let jid = st.next_jid in
    st.next_jid <- jid + 1;
    M.incr em "serve.rejected";
    Mutex.unlock st.lock;
    reply (Protocol.to_line (Protocol.error_response ~jid "shutting down"))
  end
  else begin
    let jid = st.next_jid in
    st.next_jid <- jid + 1;
    st.queue <-
      { jid; job; reply; enqueued_s = Unix.gettimeofday () } :: st.queue;
    M.incr em "serve.admitted";
    M.set em "serve.queue_depth" (float_of_int (List.length st.queue));
    Condition.signal st.nonempty;
    Mutex.unlock st.lock
  end

let handle_conn st fd =
  let ic = Unix.in_channel_of_descr fd in
  let wlock = Mutex.create () in
  let reply line =
    Mutex.lock wlock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock wlock)
      (fun () -> write_all fd line)
  in
  let rec loop () =
    match input_line ic with
    | exception (End_of_file | Sys_error _) -> ()
    | exception Unix.Unix_error _ -> ()
    | line ->
        if String.trim line <> "" then begin
          (match Protocol.parse_request line with
          | Error msg ->
              reply
                (Protocol.to_line
                   (Protocol.error_response ~jid:(next_jid st) msg))
          | Ok Protocol.Metrics ->
              reply
                (Protocol.to_line
                   (Protocol.metrics_response ~jid:(next_jid st)
                      ~engine:(Epoc.Engine.metrics st.engine) ~runs:st.runs))
          | Ok Protocol.Prometheus ->
              reply
                (Protocol.to_line
                   (Protocol.prometheus_response ~jid:(next_jid st)
                      ~engine:(Epoc.Engine.metrics st.engine) ~runs:st.runs))
          | Ok Protocol.Recent ->
              reply
                (Protocol.to_line
                   (Protocol.recent_response ~jid:(next_jid st)
                      ~flight:(Epoc.Engine.flight st.engine)))
          | Ok (Protocol.TraceOf id) ->
              reply
                (Protocol.to_line
                   (Protocol.trace_response ~jid:(next_jid st) ~id
                      ~flight:(Epoc.Engine.flight st.engine)))
          | Ok (Protocol.Compile job) -> enqueue st job reply)
        end;
        loop ()
  in
  loop ()

(* --- daemon --------------------------------------------------------------- *)

let final_metrics_line st =
  Protocol.to_line
    (J.Obj
       [
         ("event", J.Str "shutdown");
         ("engine", M.to_json (Epoc.Engine.metrics st.engine));
         ("runs", M.to_json st.runs);
       ])

let run ?engine (o : opts) =
  let engine =
    match engine with
    | Some e -> e
    | None -> Epoc.Engine.create ~config:o.config ()
  in
  let st =
    {
      engine;
      config = o.config;
      runs = M.create ();
      lock = Mutex.create ();
      nonempty = Condition.create ();
      drained = Condition.create ();
      queue = [];
      in_flight = 0;
      next_jid = 1;
      stopping = false;
    }
  in
  (* a stale socket path from a crashed daemon would make bind fail *)
  (try Unix.unlink o.socket with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX o.socket);
  Unix.listen lfd 16;
  (* self-pipe: the signal handler only sets a flag and writes one
     byte, so the accept loop's select wakes without polling *)
  let rp, wp = Unix.pipe () in
  let stop_requested = Atomic.make false in
  let on_signal _ =
    Atomic.set stop_requested true;
    ignore (Unix.write wp (Bytes.of_string "x") 0 1)
  in
  let prev_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let prev_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  let prev_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let workers =
    List.init (max 1 o.workers) (fun i ->
        Thread.create (fun () -> worker_loop st i) ())
  in
  let conns = ref [] in
  Log.app (fun m ->
      m "serving on %s (%d workers, %d domains)" o.socket (max 1 o.workers)
        (Epoc_parallel.Pool.domains (Epoc.Engine.pool engine)));
  let rec accept_loop () =
    if not (Atomic.get stop_requested) then
      match Unix.select [ lfd; rp ] [] [] (-1.0) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | ready, _, _ ->
          if Atomic.get stop_requested || List.mem rp ready then ()
          else begin
            (if List.mem lfd ready then
               match Unix.accept lfd with
               | exception Unix.Unix_error _ -> ()
               | fd, _ ->
                   let th = Thread.create (fun () -> handle_conn st fd) () in
                   conns := (fd, th) :: !conns);
            accept_loop ()
          end
  in
  accept_loop ();
  Log.app (fun m -> m "draining");
  (* stop admission, then wait for queued + in-flight jobs — each
     bounded by its own compile deadline — before tearing anything
     down *)
  Mutex.lock st.lock;
  st.stopping <- true;
  Condition.broadcast st.nonempty;
  while st.queue <> [] || st.in_flight > 0 do
    Condition.wait st.drained st.lock
  done;
  Mutex.unlock st.lock;
  List.iter Thread.join workers;
  (* unblock the readers, then reap them *)
  List.iter
    (fun (fd, _) ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    !conns;
  List.iter (fun (_, th) -> Thread.join th) !conns;
  List.iter
    (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ())
    !conns;
  Epoc.Engine.flush engine;
  Unix.close lfd;
  Unix.close rp;
  Unix.close wp;
  (try Unix.unlink o.socket with Unix.Unix_error _ -> ());
  Sys.set_signal Sys.sigterm prev_term;
  Sys.set_signal Sys.sigint prev_int;
  Sys.set_signal Sys.sigpipe prev_pipe;
  print_string (final_metrics_line st);
  flush stdout;
  0
