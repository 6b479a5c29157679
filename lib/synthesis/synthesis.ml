(* Synthesis facade used by the EPOC pipeline.

   [vug_form] rewrites any circuit into VUG+CNOT form directly (single
   qubit runs fused into U3 gates, entangling gates lowered to CX); it is
   both the fallback when the search does not converge and the baseline the
   synthesized candidate must beat.

   [min_cnots] is a closed-form lower bound on the CNOT count QSearch can
   reach on a two-qubit block; [synthesize_block] skips the search when
   that bound shows the direct form cannot be beaten. *)

open Epoc_linalg
open Epoc_circuit

type source = Synthesized | Fallback

type block_result = {
  circuit : Circuit.t; (* VUG + CNOT form, equivalent to the input *)
  source : source;
  distance : float; (* instantiation distance (0 for fallback) *)
  expansions : int;
  prunes : int; (* QSearch nodes dropped at the CNOT cap *)
  open_max : int; (* QSearch open-set high-water mark (0 = no search) *)
  failure : string option;
      (* why the search fell back when it did so abnormally (deadline,
         injected fault); [None] for a clean search or width cutoff *)
  certified : bool; (* search skipped: the direct form is provably optimal *)
}

(* Lower every entangling gate to CX and fuse single-qubit runs. *)
let vug_form (c : Circuit.t) =
  let lowered = Lower.to_zx_basis c in
  let cx_only =
    Circuit.of_ops (Circuit.n_qubits lowered)
      (List.concat_map
         (fun (op : Circuit.op) ->
           match (op.Circuit.gate, op.Circuit.qubits) with
           | Gate.CZ, [ a; b ] ->
               [
                 { Circuit.gate = Gate.H; qubits = [ b ] };
                 { Circuit.gate = Gate.CX; qubits = [ a; b ] };
                 { Circuit.gate = Gate.H; qubits = [ b ] };
               ]
           | _ -> [ op ])
         (Circuit.ops lowered))
  in
  Peephole.optimize ~aggressive:true cx_only

let cx_count c = Circuit.count_gate "cx" c

(* --- CNOT-count oracle ----------------------------------------------------

   Shende-Markov-Bullock (PRA 69, 062321, 2004): for U in SU(4) let
   gamma(U) = U (Y(x)Y) U^T (Y(x)Y).  U needs 0 CNOTs iff gamma = +-I, at
   most 1 iff tr gamma = 0 and gamma^2 = -I, at most 2 iff tr gamma is real,
   and 3 otherwise.  The four SU(4) representatives of U differ by a factor
   in {+-1, +-i}, which flips the sign of gamma; every test below is
   sign-invariant.

   Tolerance.  QSearch accepts a circuit V when hs_distance U V < t
   (t = 1e-8 by default).  Aligning V's global phase, ||U - V||_F =
   sqrt(8 t) =: e.  det(U^dag V) = exp(i th) with |th| <= pi e, so the SU(4)
   representatives are within eta = e (1 + pi/2) in Frobenius norm; gamma
   is quadratic in U with unitary factors, so ||d gamma||_F <= 2 eta +
   eta^2.  Each residual moves by at most twice that (|tr A| <= 2 ||A||_F
   on 4x4, and d(gamma^2) = gamma d + d gamma + d^2): 2.9e-3 at t = 1e-8.
   [oracle_tolerance] = 1e-2 leaves a 3x margin, so every unitary within
   the threshold ball of a k-CNOT circuit passes the test for k and
   [min_cnots] is a lower bound on what QSearch can accept.  Near a class
   boundary the smaller count wins, which only means the search runs. *)

let oracle_tolerance = 1e-2

(* the QSearch success threshold the tolerance above was derived for *)
let certified_threshold = 1e-8

let yy = Mat.kron (Gate.matrix Gate.Y) (Gate.matrix Gate.Y)

let min_cnots (u : Mat.t) =
  if Mat.rows u <> 4 || Mat.cols u <> 4 then
    invalid_arg "Synthesis.min_cnots: need a 4x4 unitary";
  (* det = c0 of the monic characteristic polynomial for n = 4 *)
  let det = (Poly.characteristic u).(0) in
  let su = Mat.scale (Cx.cis (-.Cx.arg det /. 4.0)) u in
  let gamma = Mat.mul su (Mat.mul yy (Mat.mul (Mat.transpose su) yy)) in
  let id = Mat.identity 4 in
  let tr = Mat.trace gamma in
  let near_zero m = Mat.frobenius_norm m <= oracle_tolerance in
  if near_zero (Mat.sub gamma id) || near_zero (Mat.add gamma id) then 0
  else if
    Cx.norm tr <= oracle_tolerance && near_zero (Mat.add (Mat.mul gamma gamma) id)
  then 1
  else if Float.abs (Cx.im tr) <= oracle_tolerance then 2
  else 3

(* Whether QSearch provably cannot beat [direct] on a block of [n] <= 2
   qubits with unitary [target].  A template with c CNOTs has depth 2c+1
   (one VUG layer, then a CNOT and a VUG layer per CNOT), and QSearch
   cannot accept fewer than [min_cnots] CNOTs, so when the direct form has
   at most that many CNOTs and no more depth the acceptance rule of
   [synthesize_block] can never pick the search result. *)
let direct_form_optimal ~options ~n target direct =
  let cx = cx_count direct in
  options.Qsearch.threshold <= certified_threshold
  && cx <= (if n = 1 then 0 else min_cnots (Lazy.force target))
  && Circuit.depth direct <= (2 * cx) + 1

(* Synthesize one partition block (local indices).  The result is always
   equivalent to the input: the synthesized candidate is only accepted when
   its instantiation converged below threshold *and* it improves on the
   direct VUG form (fewer CNOTs, or equal CNOTs and lower depth).  When the
   CNOT-count oracle shows no search result could be accepted, the search
   is skipped and the direct form returned as [certified]. *)
let synthesize_block ?(options = Qsearch.default_options)
    ?(max_search_qubits = 2) ?(rng = Random.State.make [| 17 |]) ?budget ?fault
    ?site (block : Circuit.t) =
  let fallback = vug_form block in
  let direct ?(expansions = 0) ?(prunes = 0) ?(open_max = 0) ?failure
      ?(certified = false) () =
    { circuit = fallback; source = Fallback; distance = 0.0; expansions;
      prunes; open_max; failure; certified }
  in
  let n = Circuit.n_qubits block in
  let target = lazy (Circuit.unitary block) in
  if n > max_search_qubits then
    (* wider targets are priced out of the numerical search by default
       (generic 3-qubit unitaries need ~14 CNOT layers); the direct VUG
       form is used instead *)
    direct ()
  else if n <= 2 && direct_form_optimal ~options ~n target fallback then
    direct ~certified:true ()
  else
    match
      Qsearch.synthesize_r ~options ~rng ?budget ?fault ?site (Lazy.force target)
    with
    | Ok outcome ->
        let better =
          cx_count outcome.Qsearch.circuit < cx_count fallback
          || (cx_count outcome.Qsearch.circuit = cx_count fallback
             && Circuit.depth outcome.Qsearch.circuit < Circuit.depth fallback)
        in
        if better then
          {
            circuit = outcome.Qsearch.circuit;
            source = Synthesized;
            distance = outcome.Qsearch.distance;
            expansions = outcome.Qsearch.expansions;
            prunes = outcome.Qsearch.prunes;
            open_max = outcome.Qsearch.open_max;
            failure = None;
            certified = false;
          }
        else
          direct ~expansions:outcome.Qsearch.expansions
            ~prunes:outcome.Qsearch.prunes ~open_max:outcome.Qsearch.open_max ()
    | Error (Epoc_error.Synthesis_exhausted { expansions; prunes; open_max; _ })
      ->
        (* budget ran dry: same degradation as before the typed channel
           (direct VUG form), telemetry preserved from the error payload *)
        direct ~expansions ~prunes ~open_max ()
    | Error e ->
        (* deadline or injected fault: fall back to the direct VUG form —
           always available, needs no search — and record why *)
        direct ~failure:(Epoc_error.to_string e) ()

(* Hilbert-Schmidt verification helper for callers and tests. *)
let verify ~eps (block : Circuit.t) (result : block_result) =
  Mat.hs_distance (Circuit.unitary block) (Circuit.unitary result.circuit) < eps

(* --- stage counters ------------------------------------------------------ *)

(* Trace counters of a batch of per-block synthesis runs, for the pass
   pipeline's trace sink (lib/epoc): blocks, how many the search beat
   the direct form on, fallbacks, fallbacks whose search the oracle
   skipped, summed search effort and the largest open-set high-water
   mark. *)
let counters (results : block_result list) =
  let count p = List.length (List.filter p results) in
  let sum f = List.fold_left (fun acc br -> acc + f br) 0 results in
  [
    ("blocks", List.length results);
    ("synthesized", count (fun br -> br.source = Synthesized));
    ("fallback", count (fun br -> br.source = Fallback));
    ("certified", count (fun br -> br.certified));
    ("expansions", sum (fun br -> br.expansions));
    ("prunes", sum (fun br -> br.prunes));
    ("open_max", List.fold_left (fun acc br -> max acc br.open_max) 0 results);
  ]
