(* Greedy circuit partitioning (paper Algorithm 1) and the post-synthesis
   regrouping step.

   A block is a contiguous-in-dependency-order run of gates confined to a
   bounded qubit set.  The greedy scan assigns each gate to the open block
   of its qubits when the union stays within the qubit budget, otherwise it
   closes the involved blocks and opens a fresh one.  Soundness invariant:
   a gate appended to an earlier block commutes with every later block
   because later blocks never touch the gate's qubits (their current-block
   pointers still point at the earlier block).

   The same routine implements both partitioning passes of the paper:
   the pre-synthesis partition (qubit_limit = the synthesis size, e.g. 3)
   and the post-synthesis regrouping of VUGs and CNOTs into QOC-sized
   unitaries. *)

open Epoc_circuit

type block = {
  qubits : int list; (* sorted global qubit indices *)
  ops : Circuit.op list; (* program order, global indices *)
}

let block_qubit_count b = List.length b.qubits
let block_op_count b = List.length b.ops

(* Local circuit of a block: qubits remapped to [0, k). *)
let block_circuit b =
  let table = List.mapi (fun i q -> (q, i)) b.qubits in
  let f q = List.assoc q table in
  Circuit.of_ops (List.length b.qubits)
    (List.map
       (fun (op : Circuit.op) -> { op with Circuit.qubits = List.map f op.Circuit.qubits })
       b.ops)

let block_unitary b = Circuit.unitary (block_circuit b)

(* Map a local circuit back onto the block's global qubits. *)
let circuit_on_block_qubits b (local : Circuit.t) ~n =
  let table = List.mapi (fun i q -> (i, q)) b.qubits in
  let f q = List.assoc q table in
  Circuit.of_ops n
    (List.map
       (fun (op : Circuit.op) -> { op with Circuit.qubits = List.map f op.Circuit.qubits })
       (Circuit.ops local))

type config = {
  qubit_limit : int; (* max qubits per block (paper: up to 8, default 3) *)
  op_limit : int; (* max gates per block, bounds unitary computation *)
}

let default_config = { qubit_limit = 3; op_limit = 64 }

(* mutable open block during the scan; ops carry their global sequence
   number so merged blocks can restore program order *)
type open_block = {
  mutable bq : int list; (* sorted *)
  mutable seq_ops : (int * Circuit.op) list; (* any order; sorted at the end *)
  mutable cost : int; (* distance-weighted op cost charged against op_limit *)
  mutable closed : bool;
  mutable index : int; (* output order *)
}

let union_sorted a b = List.sort_uniq compare (a @ b)

(* --- coupling-graph helpers (architecture-aware partitioning) ----------- *)

(* All-pairs hop distances of a coupling graph, as a query function.
   [m] covers every circuit qubit and every coupling endpoint; a pair
   with no connecting path reports distance [m] (an effectively
   prohibitive op cost, so such gates end up in singleton blocks). *)
let coupling_distances ~m coupling =
  let adj = Array.make m [] in
  List.iter
    (fun (a, b) ->
      if a >= 0 && a < m && b >= 0 && b < m && a <> b then begin
        adj.(a) <- b :: adj.(a);
        adj.(b) <- a :: adj.(b)
      end)
    coupling;
  let dist = Array.make_matrix m m (-1) in
  for s = 0 to m - 1 do
    let d = dist.(s) in
    d.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if d.(v) < 0 then begin
            d.(v) <- d.(u) + 1;
            Queue.add v q
          end)
        adj.(u)
    done
  done;
  fun a b ->
    if a < 0 || a >= m || b < 0 || b >= m then m
    else if dist.(a).(b) < 0 then m
    else dist.(a).(b)

(* Whether the induced coupling subgraph on [qubits] (sorted) is
   connected; singleton and empty sets count as connected. *)
let subset_connected coupling qubits =
  match qubits with
  | [] | [ _ ] -> true
  | first :: _ ->
      let inside q = List.mem q qubits in
      let seen = ref [ first ] in
      let frontier = ref [ first ] in
      while !frontier <> [] do
        let next =
          List.concat_map
            (fun u ->
              List.filter_map
                (fun (a, b) ->
                  if a = u && inside b && not (List.mem b !seen) then Some b
                  else if b = u && inside a && not (List.mem a !seen) then
                    Some a
                  else None)
                coupling)
            !frontier
        in
        let next = List.sort_uniq compare next in
        seen := List.sort_uniq compare (next @ !seen);
        frontier := next
      done;
      List.for_all (fun q -> List.mem q !seen) qubits

(* Cost one op charges against [op_limit]: 1 when no coupling graph is
   given (the historical pure op count), else the largest hop distance
   between any two of the op's qubits, floored at 1 — a two-qubit gate
   across the device consumes budget proportional to the interaction
   routing it implies, so distant gates close blocks sooner and
   regrouping prefers topologically tight unitaries. *)
let op_cost dist (op : Circuit.op) =
  match dist with
  | None -> 1
  | Some d ->
      let rec pairs_max acc = function
        | [] | [ _ ] -> acc
        | q :: rest ->
            pairs_max
              (List.fold_left (fun m q' -> max m (d q q')) acc rest)
              rest
      in
      pairs_max 1 (List.sort compare op.Circuit.qubits)

(* Soundness of the scan:
   - appending a gate to the open block holding all its qubits is safe:
     later blocks never touch those qubits (their pointers still name this
     block), so the gate commutes past them;
   - merging several holder blocks into the latest of them is safe exactly
     when every holder is "fully current" (each of its qubits still points
     at it): then no block created in between touches any of their qubits,
     so the earlier holders' ops commute forward to the merge position. *)
let partition ?(config = default_config) ?coupling (c : Circuit.t) =
  if config.qubit_limit < 1 then invalid_arg "Partition: qubit_limit < 1";
  if config.op_limit < 1 then invalid_arg "Partition: op_limit < 1";
  let dist =
    match coupling with
    | None -> None
    | Some pairs ->
        let m =
          List.fold_left
            (fun m (a, b) -> max m (max a b + 1))
            (Circuit.n_qubits c) pairs
        in
        Some (coupling_distances ~m pairs)
  in
  let all_blocks = ref [] in
  let counter = ref 0 in
  let fresh qs seq op =
    let b =
      {
        bq = qs;
        seq_ops = [ (seq, op) ];
        cost = op_cost dist op;
        closed = false;
        index = !counter;
      }
    in
    incr counter;
    all_blocks := b :: !all_blocks;
    b
  in
  let current : (int, open_block) Hashtbl.t = Hashtbl.create 16 in
  let fully_current b =
    List.for_all
      (fun q ->
        match Hashtbl.find_opt current q with Some b' -> b' == b | None -> false)
      b.bq
  in
  List.iteri
    (fun seq (op : Circuit.op) ->
      let qs = List.sort compare op.Circuit.qubits in
      let holders =
        List.sort_uniq
          (fun a b -> compare a.index b.index)
          (List.filter_map (fun q -> Hashtbl.find_opt current q) qs)
      in
      let total_qubits =
        List.fold_left (fun acc b -> union_sorted acc b.bq) qs holders
      in
      let this_cost = op_cost dist op in
      let total_cost =
        this_cost + List.fold_left (fun acc b -> acc + b.cost) 0 holders
      in
      (* With a coupling graph, merged blocks must stay connected on the
         device: a disconnected union has no entangling path inside the
         block, so its unitary could only be realized by routing outside
         the block.  Single-op blocks are exempt (a gate must land
         somewhere; the QOC layer bridges it with virtual couplings). *)
      let union_connected =
        match coupling with
        | None -> true
        | Some pairs -> subset_connected pairs total_qubits
      in
      let mergeable =
        List.for_all (fun b -> (not b.closed) && fully_current b) holders
        && List.length total_qubits <= config.qubit_limit
        && total_cost <= config.op_limit && union_connected
      in
      match (holders, mergeable) with
      | [], _ ->
          let b = fresh qs seq op in
          List.iter (fun q -> Hashtbl.replace current q b) qs
      | hs, true ->
          (* merge every holder into the latest one *)
          let target = List.nth hs (List.length hs - 1) in
          List.iter
            (fun b ->
              if b != target then begin
                target.seq_ops <- b.seq_ops @ target.seq_ops;
                target.bq <- union_sorted target.bq b.bq;
                target.cost <- target.cost + b.cost;
                b.seq_ops <- [];
                b.cost <- 0;
                b.closed <- true
              end)
            hs;
          target.bq <- union_sorted target.bq qs;
          target.seq_ops <- (seq, op) :: target.seq_ops;
          target.cost <- target.cost + this_cost;
          List.iter (fun q -> Hashtbl.replace current q target) target.bq
      | hs, false ->
          (* close every involved block and start a new one; a gate wider
             than the qubit budget simply becomes its own block *)
          List.iter (fun b -> b.closed <- true) hs;
          let b = fresh qs seq op in
          List.iter (fun q -> Hashtbl.replace current q b) qs)
    (Circuit.ops c);
  let blocks = List.filter (fun b -> b.seq_ops <> []) (List.rev !all_blocks) in
  List.map
    (fun b ->
      let ops =
        List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) b.seq_ops)
      in
      { qubits = b.bq; ops })
    blocks

(* The paper's GroupQubits procedure: seed a group with a qubit and its
   interaction neighbours, capped at the limit.  Exposed for completeness
   and used in tests; the gate-scan partitioner above subsumes it. *)
let group_qubits ?(limit = default_config.qubit_limit) (c : Circuit.t) =
  let remaining = ref (List.init (Circuit.n_qubits c) Fun.id) in
  let groups = ref [] in
  while !remaining <> [] do
    match !remaining with
    | [] -> ()
    | q :: rest ->
        let nbs = List.filter (fun x -> List.mem x rest) (Circuit.neighbors c q) in
        let take =
          let rec cut n = function
            | [] -> []
            | _ when n = 0 -> []
            | x :: tl -> x :: cut (n - 1) tl
          in
          cut (limit - 1) nbs
        in
        let group = List.sort compare (q :: take) in
        remaining := List.filter (fun x -> not (List.mem x group)) !remaining;
        groups := group :: !groups
  done;
  List.rev !groups

(* Reassemble blocks into a flat circuit; used for validation. *)
let reassemble ~n blocks =
  Circuit.of_ops n (List.concat_map (fun b -> b.ops) blocks)

(* Validation: the concatenation of blocks must reproduce the circuit
   exactly as a gate list (no reordering across shared qubits). *)
let preserves_order (c : Circuit.t) blocks =
  (* for each qubit, the subsequence of ops touching it must be identical *)
  let per_qubit ops q =
    List.filter (fun (op : Circuit.op) -> List.mem q op.Circuit.qubits) ops
  in
  let flat = List.concat_map (fun b -> b.ops) blocks in
  List.for_all
    (fun q -> per_qubit (Circuit.ops c) q = per_qubit flat q)
    (List.init (Circuit.n_qubits c) Fun.id)

(* Turn a partition back into a circuit of opaque grouped unitaries; this
   is the form handed to QOC. *)
let to_grouped_circuit ~n blocks =
  Circuit.of_ops n
    (List.map
       (fun b ->
         {
           Circuit.gate =
             Gate.Unitary
               {
                 name = Fmt.str "blk%d" (List.length b.qubits);
                 matrix = block_unitary b;
               };
           qubits = b.qubits;
         })
       blocks)

(* --- stage counters ------------------------------------------------------ *)

(* Trace counters of one partitioning (or regrouping) run, for the pass
   pipeline's trace sink (lib/epoc). *)
let counters blocks =
  let max_of f = List.fold_left (fun acc b -> max acc (f b)) 0 blocks in
  [
    ("blocks", List.length blocks);
    ("max_block_qubits", max_of block_qubit_count);
    ("max_block_ops", max_of block_op_count);
    ("total_ops", List.fold_left (fun acc b -> acc + block_op_count b) 0 blocks);
  ]
