(** Greedy circuit partitioning (paper Algorithm 1) and the
    post-synthesis regrouping step.

    A block is a contiguous-in-dependency-order run of gates confined
    to a bounded qubit set.  The same routine implements both
    partitioning passes of the paper: the pre-synthesis partition
    (qubit_limit = the synthesis size, e.g. 3) and the post-synthesis
    regrouping of VUGs and CNOTs into QOC-sized unitaries. *)

open Epoc_circuit

type block = {
  qubits : int list;  (** sorted global qubit indices *)
  ops : Circuit.op list;  (** program order, global indices *)
}

val block_qubit_count : block -> int
val block_op_count : block -> int

(** Local circuit of a block: qubits remapped to [0, k). *)
val block_circuit : block -> Circuit.t

val block_unitary : block -> Epoc_linalg.Mat.t

(** Map a local circuit back onto the block's global qubits. *)
val circuit_on_block_qubits : block -> Circuit.t -> n:int -> Circuit.t

type config = {
  qubit_limit : int;  (** max qubits per block (paper: up to 8) *)
  op_limit : int;  (** max gates per block, bounds unitary computation *)
}

val default_config : config

(** Greedy gate scan.  Soundness invariant: a gate appended to an
    earlier block commutes with every later block because later blocks
    never touch the gate's qubits.

    [coupling] makes the scan architecture-aware: pairs are the
    device's coupling graph (global qubit indices).  Merges are then
    restricted to unions whose induced coupling subgraph is connected,
    and each op charges its largest intra-op hop distance (floored at
    1) against [op_limit] instead of a flat 1 — distant gates consume
    budget proportional to the interaction routing they imply, so
    blocks stay topologically tight.  Single-op blocks are exempt from
    the connectivity restriction (a gate must land somewhere; the QOC
    layer bridges unrouted pairs with virtual couplings).  Without
    [coupling], behaviour is the historical topology-blind scan,
    unchanged.

    @raise Invalid_argument when either limit is below 1. *)
val partition :
  ?config:config -> ?coupling:(int * int) list -> Circuit.t -> block list

(** The paper's GroupQubits procedure: seed a group with a qubit and
    its interaction neighbours, capped at the limit.  Exposed for
    completeness and used in tests; {!partition} subsumes it. *)
val group_qubits : ?limit:int -> Circuit.t -> int list list

(** Reassemble blocks into a flat circuit; used for validation. *)
val reassemble : n:int -> block list -> Circuit.t

(** Whether the concatenation of blocks reproduces the circuit exactly
    per qubit (no reordering across shared qubits). *)
val preserves_order : Circuit.t -> block list -> bool

(** Turn a partition back into a circuit of opaque grouped unitaries;
    this is the form handed to QOC. *)
val to_grouped_circuit : n:int -> block list -> Circuit.t

(** {1 Stage counters} *)

(** Trace counters of a partition, in this order: [blocks],
    [max_block_qubits], [max_block_ops], [total_ops]. *)
val counters : block list -> (string * int) list
