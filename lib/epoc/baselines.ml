(* Comparison flows for the evaluation, all running through the shared
   pass driver ([Pipeline.compile_flow]) with their own pass lists, so the
   shared logic — partitioning, pulse-library interaction, ASAP
   scheduling — exists exactly once.

   - [gate_based]: the traditional workflow — every gate is played as its
     own calibrated pulse (RZ-family gates are virtual/free, as on IBM
     hardware); latency is the ASAP critical path of per-gate pulses.
     Pass list: lower -> gate-pulses -> schedule.
   - [accqoc_like]: AccQOC (Cheng et al., ISCA'20) reimplemented from its
     description — uniform two-qubit sub-circuits of bounded depth, QOC per
     sub-circuit with a pulse library; no ZX, no synthesis, and
     phase-*sensitive* library matching.  AccQOC's MST-ordered library
     construction only affects compile time, not the schedule, so the
     flow leaves it out; the similarity-ordered warm starts it motivates
     are the separate [Config.similarity_order] switch, off here as
     everywhere by default.  Runs the EPOC pass list under a restricted
     config.
   - [paqoc_like]: PAQOC (Chen et al., HPCA'23) approximated as
     program-aware grouping: frequent two-qubit gate patterns are mined
     and pre-compiled into the pulse library, then the program is grouped
     with a larger per-block budget.  No ZX, no synthesis.

   Each flow is a [named] value — an optional config transform over a
   pass flow — and [find] maps the names the CLI's --flow and the serve
   protocol's "flow" field accept onto them. *)

open Epoc_circuit
open Epoc_partition
open Epoc_pulse

(* A named flow: the config it compiles under, derived from the caller's
   ([None] = the caller's config as is), and the pass flow. *)
type named = {
  configure : (Config.t -> Circuit.t -> Config.t) option;
  flow : Pipeline.flow;
}

(* The config [named] compiles [circuit] under, given the caller's. *)
let config_for named config circuit =
  match named.configure with None -> config | Some f -> f config circuit

(* Compile [circuit] through [named] in [session]; a config transform
   applies through [Engine.with_config], which re-derives the library,
   budget and fault spec for the new config. *)
let compile named (session : Engine.session) circuit =
  let session =
    match named.configure with
    | None -> session
    | Some f -> Engine.with_config (f session.config circuit) session
  in
  Pipeline.compile_flow session named.flow circuit

let epoc = { configure = None; flow = Pipeline.epoc_flow }

(* --- gate-based ----------------------------------------------------------- *)

(* Calibrated per-gate pulse table, shared with the graceful-degradation
   fallback of the pulse stage (one table, one pricing). *)
let gate_pulse = Stages.gate_pulse

(* Lower exotic gates to the calibrated basis.  The lowered circuit is
   also recorded as the flow's "VUG circuit" so the generic stage stats
   report its single-qubit/CX composition. *)
let lower_pass =
  Pass.make "lower"
    ~counters:(fun _ (ir : Ir.t) ->
      [ ("gates", Circuit.gate_count ir.Ir.circuit) ])
    (fun _ctx ir ->
      let lowered = Lower.to_zx_basis ir.Ir.circuit in
      { ir with Ir.circuit = lowered; vug_circuit = lowered })

(* One calibrated pulse per gate; virtual gates are dropped. *)
let gate_pulses_pass =
  Pass.make "gate-pulses"
    ~counters:(fun _ (ir : Ir.t) ->
      [ ("instructions", List.length ir.Ir.instructions) ])
    (fun ctx ir ->
      let hw = Engine.hardware_for ctx.Pass.engine ctx.config (max 2 ir.Ir.n) in
      let instructions =
        List.filter_map
          (fun (op : Circuit.op) ->
            let duration, fidelity = gate_pulse hw op.Circuit.gate in
            if duration = 0.0 && fidelity = 1.0 then None
            else
              Some
                {
                  Schedule.qubits = op.Circuit.qubits;
                  duration;
                  fidelity;
                  label = Gate.name op.Circuit.gate;
                  pulse = None;
                })
          (Circuit.ops ir.Ir.circuit)
      in
      Epoc_obs.Metrics.incr ~by:(List.length instructions) ctx.Pass.metrics
        "gate.pulses";
      { ir with Ir.instructions })

(* ASAP placement of the per-gate pulses in program order. *)
let schedule_instructions_pass =
  Pass.make "schedule"
    ~counters:(fun _ (ir : Ir.t) -> Schedule.counters (Ir.schedule_exn ir))
    (fun _ctx ir ->
      { ir with Ir.schedule = Some (Schedule.schedule ~n:ir.Ir.n ir.Ir.instructions) })

let gate_flow =
  {
    Pipeline.graph =
      (fun _ctx circuit -> ([ (circuit, false) ], [ ("candidates", 1) ]));
    passes =
      (fun _config ->
        [ lower_pass; gate_pulses_pass; schedule_instructions_pass ]);
  }

(* The baseline is just the shared driver over [gate_flow], under the
   session's own config. *)
let gate_based = { configure = None; flow = gate_flow }
let compile_gate_based session circuit = compile gate_based session circuit

(* --- AccQOC-like ------------------------------------------------------------ *)

let accqoc_config (base : Config.t) =
  {
    base with
    Config.use_zx = false;
    use_synthesis = false;
    regroup = true;
    (* uniform 2-qubit sub-circuits of small depth *)
    partition = { Partition.qubit_limit = 2; op_limit = 4 };
    regroup_partition = { Partition.qubit_limit = 2; op_limit = 4 };
    regroup_widths = [ 2 ];
    commutation_reorder = false;
    match_global_phase = false;
  }

(* The EPOC pass list under the AccQOC config transform. *)
let accqoc_like =
  { configure = Some (fun config _ -> accqoc_config config);
    flow = Pipeline.epoc_flow }

let compile_accqoc_like session circuit = compile accqoc_like session circuit

(* --- PAQOC-like -------------------------------------------------------------- *)

(* Frequent-pattern mining: count consecutive two-qubit gate runs by
   (gate names, relative orientation) and pre-compile the most frequent
   patterns into the library, PAQOC's "program-aware basis gates". *)
let mine_patterns (circuit : Circuit.t) =
  let table = Hashtbl.create 32 in
  let ops = Array.of_list (Circuit.ops Circuit.(of_ops (n_qubits circuit) (ops circuit))) in
  let n = Array.length ops in
  for i = 0 to n - 2 do
    let a = ops.(i) and b = ops.(i + 1) in
    let shared = List.exists (fun q -> List.mem q b.Circuit.qubits) a.Circuit.qubits in
    if shared then begin
      let key =
        (Gate.name a.Circuit.gate, Gate.name b.Circuit.gate,
         a.Circuit.qubits = b.Circuit.qubits)
      in
      Hashtbl.replace table key
        (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
    end
  done;
  List.filter (fun (_, c) -> c >= 2)
    (Hashtbl.fold (fun k c acc -> (k, c) :: acc) table [])

let paqoc_config (base : Config.t) =
  {
    base with
    Config.use_zx = false;
    use_synthesis = false;
    regroup = true;
    partition = { Partition.qubit_limit = 2; op_limit = 6 };
    regroup_partition = { Partition.qubit_limit = 2; op_limit = 6 };
    regroup_widths = [ 2 ];
    commutation_reorder = false;
    match_global_phase = false;
  }

(* The PAQOC config for [circuit]: pattern mining informs the grouping
   budget — with frequent patterns present, PAQOC invests in deeper
   program-aware groups. *)
let paqoc_config_for config circuit =
  let patterns = mine_patterns circuit in
  let cfg = paqoc_config config in
  if List.length patterns >= 3 then
    { cfg with Config.partition = { Partition.qubit_limit = 2; op_limit = 8 };
               regroup_partition = { Partition.qubit_limit = 2; op_limit = 8 } }
  else cfg

let paqoc_like =
  { configure = Some paqoc_config_for; flow = Pipeline.epoc_flow }
let compile_paqoc_like session circuit = compile paqoc_like session circuit

(* --- lookup by name --------------------------------------------------------- *)

(* The flows by the names the CLI's --flow and the serve protocol's
   "flow" field accept. *)
let flows =
  [
    ("epoc", epoc);
    ("gate", gate_based);
    ("accqoc", accqoc_like);
    ("paqoc", paqoc_like);
  ]

let find name =
  match List.assoc_opt name flows with
  | Some named -> Ok named
  | None -> Error (Printf.sprintf "unknown flow %S" name)
