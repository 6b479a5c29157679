(** Synthesis facade used by the EPOC pipeline.

    {!vug_form} rewrites any circuit into VUG+CNOT form directly; it is
    both the fallback when the search does not converge and the
    baseline the synthesized candidate must beat, so
    {!synthesize_block} always returns a circuit equivalent to its
    input — typed solver failures degrade to the direct form rather
    than aborting the block.

    {!min_cnots} lower-bounds the CNOT count of any two-qubit circuit
    QSearch could accept; when the direct form already meets it,
    {!synthesize_block} skips the search (see DESIGN.md §4l). *)

open Epoc_circuit

type source = Synthesized | Fallback

type block_result = {
  circuit : Circuit.t;  (** VUG + CNOT form, equivalent to the input *)
  source : source;
  distance : float;  (** instantiation distance (0 for fallback) *)
  expansions : int;
  prunes : int;  (** QSearch nodes dropped at the CNOT cap *)
  open_max : int;  (** QSearch open-set high-water mark (0 = no search) *)
  failure : string option;
      (** why the search fell back when it did so abnormally (deadline,
          injected fault); [None] for a clean search or width cutoff *)
  certified : bool;
      (** the search was skipped because {!min_cnots} shows the direct
          form cannot be beaten; always a [Fallback] *)
}

(** Lower every entangling gate to CX and fuse single-qubit runs. *)
val vug_form : Circuit.t -> Circuit.t

val cx_count : Circuit.t -> int

(** Minimum CNOT count (0-3) of a two-qubit unitary, from the
    Shende-Markov-Bullock trace criterion on
    [gamma(U) = U (Y(x)Y) U^T (Y(x)Y)] with [U] scaled into SU(4).  The
    tests use a residual tolerance of 1e-2, which makes the result a
    lower bound over every unitary within Hilbert-Schmidt distance
    {!certified_threshold} of [U]; near a class boundary it returns the
    smaller count.

    @raise Invalid_argument unless the input is 4x4. *)
val min_cnots : Epoc_linalg.Mat.t -> int

(** Largest QSearch success threshold (1e-8) for which {!min_cnots} is
    a proven lower bound; {!synthesize_block} only skips searches run
    at or below it. *)
val certified_threshold : float

(** Synthesize one partition block (local indices).  The synthesized
    candidate is only accepted when the search converged below
    threshold {e and} it improves on the direct VUG form (fewer CNOTs,
    or equal CNOTs and lower depth); every other path — width cutoff,
    exhausted search, expired [budget], injected [fault] — degrades to
    the direct form, never raises.

    On a block of at most two qubits the search is skipped, and the
    direct form returned with [certified = true], when the direct form
    has at most [min_cnots] CNOTs (0 for one qubit) and depth at most
    [2 * cx + 1]: a QSearch template with [c] CNOTs has depth [2c + 1],
    so the acceptance rule could never pick the search result and the
    output is the same as after a search. *)
val synthesize_block :
  ?options:Qsearch.options ->
  ?max_search_qubits:int ->
  ?rng:Random.State.t ->
  ?budget:Epoc_budget.t ->
  ?fault:Epoc_fault.spec ->
  ?site:string ->
  Circuit.t ->
  block_result

(** Hilbert-Schmidt verification helper for callers and tests. *)
val verify : eps:float -> Circuit.t -> block_result -> bool

(** {1 Stage counters} *)

(** Trace counters of a batch of per-block runs, in this order:
    [blocks], [synthesized] (the search beat the direct form),
    [fallback], [certified] (fallbacks whose search {!min_cnots}
    skipped), summed [expansions] and [prunes], and [open_max], the
    largest open-set high-water mark. *)
val counters : block_result list -> (string * int) list
