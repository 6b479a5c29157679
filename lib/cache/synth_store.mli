(** Persistent synthesis store: fingerprint-keyed cache of synthesized
    per-block circuits (VUG + CNOT structure plus attempt metadata).

    QSearch dominates cold compile time; its outcome for a block is a
    pure function of the block unitary and the search options, so a
    warm recompile of the same (or an overlapping) benchmark family can
    skip synthesis entirely by replaying the stored circuit.  Keys are
    the same quantized, global-phase-canonical
    {!Epoc_pulse.Library.fingerprint} the pulse store uses; a hit is
    verified against the stored unitary before being trusted.

    Records that carry a [failure] (deadline expiry, injected fault)
    are never stored — an abnormal fallback must be re-attempted, not
    replayed.  Replayed results zero the search counters ([expansions],
    [prunes], [open_max]) so warm-run telemetry shows no QSearch
    activity; the cold run's counts are kept in the record as
    schema-versioned attempt metadata.

    Second instance of {!Persistent.Make} (the first is the pulse
    {!Store}); same on-disk guarantees — versioned header, quarantine,
    torn-write skip, locked atomic merge-flush. *)

open Epoc_linalg
open Epoc_circuit
open Epoc_synthesis

(** Version of the on-disk record format, written into the header line. *)
val schema_version : int

type entry = {
  unitary : Mat.t;  (** canonical-phase block unitary, for hit verification *)
  circuit : Circuit.t;  (** the synthesized VUG + CNOT circuit *)
  source : Synthesis.source;
  distance : float;  (** instantiation distance of the original attempt *)
  expansions : int;  (** original QSearch expansions (attempt metadata) *)
  prunes : int;  (** original QSearch prunes (attempt metadata) *)
}

type t

(** [open_dir dir] creates [dir] if needed and loads every valid record.
    [match_global_phase] (default [true]) must agree with the library
    convention of the runs the store serves. *)
val open_dir : ?match_global_phase:bool -> string -> t

(** Exact lookup by block unitary (up to global phase when the store
    matches phases). *)
val find : t -> Mat.t -> entry option

(** Queue a synthesis outcome for persistence, keyed by the block
    unitary [u].  No-op when the result carries a [failure], or when an
    entry with an equal unitary is already held.  Thread-safe; nothing
    touches the disk until {!flush}. *)
val record : t -> Mat.t -> Synthesis.block_result -> unit

(** Replay a stored entry for [block] (the local block circuit whose
    unitary found it) as a block result: the stored source, zeroed
    search counters (no QSearch ran), no failure.  A [Synthesized]
    entry replays its stored circuit; a [Fallback] entry re-derives
    {!Synthesis.vug_form} of [block], because lookups match up to
    global phase and the stored direct form may be another block's
    gate list. *)
val to_block_result : block:Circuit.t -> entry -> Synthesis.block_result

(** Persist pending records under the in-process and on-disk locks,
    merging with concurrent writers' appends. *)
val flush : t -> unit

(** Number of distinct entries currently held in memory. *)
val entry_count : t -> int

(** Number of records queued but not yet flushed. *)
val pending_count : t -> int

(** Number of records read from disk when the store was opened. *)
val loaded_count : t -> int

(** Number of unreadable lines skipped when the store was opened. *)
val skipped_count : t -> int

(** Number of distinct records on disk after the last {!flush} (see
    {!Store.merged_count}). *)
val merged_count : t -> int
