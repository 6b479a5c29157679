open Epoc_linalg
open Epoc_circuit
open Epoc_synthesis

let op gate qubits = { Circuit.gate; qubits }

let fast_options =
  {
    Qsearch.default_options with
    Qsearch.max_cnots = 4;
    max_expansions = 12;
    instantiate_options =
      {
        Instantiate.default_options with
        Instantiate.max_iterations = 250;
        restarts = 1;
      };
  }

(* --- template ---------------------------------------------------------- *)

let test_template_param_count () =
  let t = Template.root 2 in
  Alcotest.(check int) "root params" 6 (Template.param_count t);
  match Template.successors t with
  | s :: _ ->
      Alcotest.(check int) "successor params" 12 (Template.param_count s);
      Alcotest.(check int) "successor cnots" 1 (Template.cnot_count s)
  | [] -> Alcotest.fail "no successors"

let test_template_successor_count () =
  Alcotest.(check int) "2q pairs" 2
    (List.length (Template.successors (Template.root 2)));
  Alcotest.(check int) "3q pairs" 6
    (List.length (Template.successors (Template.root 3)))

let test_template_circuit_shape () =
  let t = List.hd (Template.successors (Template.root 2)) in
  let c = Template.to_circuit t (Array.make (Template.param_count t) 0.1) in
  (* 2 initial U3 + CX + 2 U3 *)
  Alcotest.(check int) "ops" 5 (Circuit.gate_count c);
  Alcotest.(check int) "cx" 1 (Circuit.count_gate "cx" c)

(* --- instantiate -------------------------------------------------------- *)

let test_instantiate_single_qubit () =
  (* a single U3 template must hit any 1q unitary exactly *)
  let target = Gate.matrix (Gate.U3 (0.73, 1.91, -0.42)) in
  let r = Instantiate.instantiate target (Template.root 1) in
  Alcotest.(check bool)
    (Printf.sprintf "distance %.3g" r.Instantiate.distance)
    true
    (r.Instantiate.distance < 1e-9)

let test_instantiate_identity () =
  let r = Instantiate.instantiate (Mat.identity 4) (Template.root 2) in
  Alcotest.(check bool) "identity reachable" true (r.Instantiate.distance < 1e-9)

let test_gradient_matches_slope () =
  (* finite-difference gradient should predict first-order change *)
  let target = Gate.matrix Gate.CX in
  let t = List.hd (Template.successors (Template.root 2)) in
  let p = Array.init (Template.param_count t) (fun i -> 0.3 +. (0.1 *. float_of_int i)) in
  let g = Instantiate.gradient target t p in
  let d0 = Instantiate.distance target t p in
  let h = 1e-5 in
  let p' = Array.mapi (fun i v -> v -. (h *. g.(i))) p in
  let d1 = Instantiate.distance target t p' in
  let gnorm2 = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 g in
  if gnorm2 > 1e-10 then
    Alcotest.(check bool) "descent direction decreases distance" true (d1 < d0)

(* --- qsearch ------------------------------------------------------------ *)

let check_synthesis name target max_cnots =
  let r = Qsearch.synthesize ~options:{ fast_options with Qsearch.max_cnots } target in
  Alcotest.(check bool)
    (Printf.sprintf "%s converged (dist %.3g, %d cnots)" name r.Qsearch.distance
       r.Qsearch.cnots)
    true r.Qsearch.converged;
  Alcotest.(check bool)
    (name ^ " circuit matches target")
    true
    (Mat.hs_distance target (Circuit.unitary r.Qsearch.circuit) < 1e-6)

let test_qsearch_cnot () = check_synthesis "cx" (Gate.matrix Gate.CX) 3

let test_qsearch_cz () = check_synthesis "cz" (Gate.matrix Gate.CZ) 3

let test_qsearch_swapless () =
  (* a generic 2-qubit unitary requires up to 3 CNOTs *)
  let c =
    Circuit.of_ops 2
      [
        op (Gate.RY 0.7) [ 0 ]; op Gate.CX [ 0; 1 ]; op (Gate.RZ 1.2) [ 1 ];
        op Gate.CX [ 1; 0 ]; op (Gate.RX 0.4) [ 0 ]; op Gate.CZ [ 0; 1 ];
      ]
  in
  check_synthesis "generic 2q" (Circuit.unitary c) 3

let test_qsearch_single_qubit_direct () =
  let r = Qsearch.synthesize (Gate.matrix Gate.H) in
  Alcotest.(check bool) "h" true r.Qsearch.converged;
  Alcotest.(check int) "no cnots" 0 r.Qsearch.cnots

let test_qsearch_reports_depth_reduction () =
  (* 6 entangling gates collapse to at most 3 CNOTs after synthesis *)
  let c =
    Circuit.of_ops 2
      [
        op Gate.CX [ 0; 1 ]; op Gate.CZ [ 0; 1 ]; op Gate.CX [ 1; 0 ];
        op (Gate.RZ 0.3) [ 0 ]; op Gate.CX [ 0; 1 ]; op Gate.CZ [ 1; 0 ];
        op Gate.CX [ 0; 1 ];
      ]
  in
  let target = Circuit.unitary c in
  let r = Qsearch.synthesize ~options:fast_options target in
  Alcotest.(check bool) "converged" true r.Qsearch.converged;
  Alcotest.(check bool)
    (Printf.sprintf "fewer cnots: %d" r.Qsearch.cnots)
    true (r.Qsearch.cnots <= 3)

(* --- synthesis facade --------------------------------------------------- *)

let test_vug_form_equivalence () =
  let c =
    Circuit.of_ops 3
      [
        op Gate.H [ 0 ]; op Gate.SWAP [ 0; 1 ]; op Gate.T [ 1 ];
        op Gate.CZ [ 1; 2 ]; op (Gate.RY 0.9) [ 2 ]; op Gate.CX [ 0; 2 ];
      ]
  in
  let v = Synthesis.vug_form c in
  Alcotest.(check bool) "equivalent" true (Circuit.equal_unitary ~eps:1e-6 c v);
  List.iter
    (fun (o : Circuit.op) ->
      Alcotest.(check bool)
        ("vug form op " ^ Gate.name o.Circuit.gate)
        true
        (Gate.arity o.Circuit.gate = 1 || Gate.name o.Circuit.gate = "cx"))
    (Circuit.ops v)

let test_synthesize_block_equivalence () =
  let st = Random.State.make [| 5 |] in
  for i = 0 to 4 do
    let b = Circuit.Builder.create 2 in
    for _ = 0 to 5 + i do
      (match Random.State.int st 4 with
      | 0 -> Circuit.Builder.add b (Gate.RZ (Random.State.float st 6.2)) [ Random.State.int st 2 ]
      | 1 -> Circuit.Builder.add b (Gate.RY (Random.State.float st 6.2)) [ Random.State.int st 2 ]
      | 2 -> Circuit.Builder.add b Gate.CX [ 0; 1 ]
      | _ -> Circuit.Builder.add b Gate.CX [ 1; 0 ])
    done;
    let block = Circuit.Builder.to_circuit b in
    let r = Synthesis.synthesize_block ~options:fast_options block in
    Alcotest.(check bool)
      (Printf.sprintf "block %d equivalent (%s)" i
         (match r.Synthesis.source with
         | Synthesis.Synthesized -> "synthesized"
         | Synthesis.Fallback -> "fallback"))
      true
      (Synthesis.verify ~eps:1e-6 block r)
  done

let test_synthesize_block_never_worse () =
  (* deep repetitive block: synthesis must not return more CNOTs than the
     direct VUG form *)
  let ops =
    List.concat
      (List.init 5 (fun _ -> [ op Gate.CX [ 0; 1 ]; op (Gate.RZ 0.2) [ 1 ] ]))
  in
  let block = Circuit.of_ops 2 ops in
  let r = Synthesis.synthesize_block ~options:fast_options block in
  let direct = Synthesis.vug_form block in
  Alcotest.(check bool) "not worse" true
    (Synthesis.cx_count r.Synthesis.circuit <= Synthesis.cx_count direct)

(* --- CNOT-count oracle ------------------------------------------------------ *)

let gaussian st =
  (* Box-Muller *)
  let u1 = Float.max 1e-300 (Random.State.float st 1.0) in
  let u2 = Random.State.float st 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* Haar-random unitary: Gram-Schmidt on a complex Ginibre matrix. *)
let haar st dim =
  let cols =
    Array.init dim (fun _ ->
        Array.init dim (fun _ -> Cx.make (gaussian st) (gaussian st)))
  in
  let dot a b =
    Array.fold_left Cx.add Cx.zero (Array.map2 (fun x y -> Cx.mul (Cx.conj x) y) a b)
  in
  for j = 0 to dim - 1 do
    for k = 0 to j - 1 do
      let p = dot cols.(k) cols.(j) in
      cols.(j) <- Array.map2 (fun x y -> Cx.sub x (Cx.mul p y)) cols.(j) cols.(k)
    done;
    let nrm = sqrt (Cx.re (dot cols.(j) cols.(j))) in
    cols.(j) <- Array.map (Cx.scale (1.0 /. nrm)) cols.(j)
  done;
  Mat.init dim dim (fun r c -> cols.(c).(r))

let pauli g = Gate.matrix g

(* exp(i (a XX + b YY + c ZZ)): the three terms commute. *)
let canonical a b c =
  let term t m = Epoc_linalg.Expm.expi_hermitian (Mat.kron (pauli m) (pauli m)) (-.t) in
  Mat.mul (term a Gate.X) (Mat.mul (term b Gate.Y) (term c Gate.Z))

let local st = Mat.kron (haar st 2) (haar st 2)

(* A random unitary of CNOT class [k], dressed in random local gates and
   a random global phase; coordinates stay away from class boundaries. *)
let random_of_class st k =
  let pick lo hi = lo +. Random.State.float st (hi -. lo) in
  let a, b, c =
    match k with
    | 0 -> (0.0, 0.0, 0.0)
    | 1 -> (Float.pi /. 4.0, 0.0, 0.0)
    | 2 -> (pick 0.2 0.75, pick 0.05 0.15, 0.0)
    | _ -> (pick 0.4 0.75, pick 0.2 0.35, pick 0.05 0.15)
  in
  Mat.scale
    (Cx.cis (Random.State.float st 6.28))
    (Mat.mul (local st) (Mat.mul (canonical a b c) (local st)))

let gate_unitary ops = Circuit.unitary (Circuit.of_ops 2 ops)

let test_min_cnots_exact_classes () =
  let st = Random.State.make [| 23 |] in
  let cases =
    [
      ("identity", Mat.identity 4, 0);
      ("local", local st, 0);
      ("local with phase", Mat.scale (Cx.cis 1.1) (local st), 0);
      ("cx", pauli Gate.CX, 1);
      ("cz", pauli Gate.CZ, 1);
      ("reversed cx dressed", Mat.mul (local st) (gate_unitary [ op Gate.CX [ 1; 0 ] ]), 1);
      ("iswap", pauli Gate.ISWAP, 2);
      ("dcx", gate_unitary [ op Gate.CX [ 0; 1 ]; op Gate.CX [ 1; 0 ] ], 2);
      ("cphase", pauli (Gate.CPhase 0.7), 2);
      ("rzz", pauli (Gate.RZZ 0.4), 2);
      ("swap", pauli Gate.SWAP, 3);
    ]
    @ List.init 5 (fun i -> (Printf.sprintf "haar %d" i, haar st 4, 3))
  in
  List.iter
    (fun (name, u, k) -> Alcotest.(check int) name k (Synthesis.min_cnots u))
    cases;
  Alcotest.check_raises "2x2 input rejected"
    (Invalid_argument "Synthesis.min_cnots: need a 4x4 unitary") (fun () ->
      ignore (Synthesis.min_cnots (pauli Gate.H)))

(* The class read off the canonical Weyl coordinates: local (all zero),
   CNOT-like (pi/4, 0, 0), one zero coordinate (two CNOTs), else three. *)
let weyl_class u =
  let c1, c2, c3 = Epoc_qoc.Weyl.coordinates u in
  let tol = 1e-3 in
  if c1 < tol then 0
  else if Float.abs (c1 -. (Float.pi /. 4.0)) < tol && c2 < tol then 1
  else if c3 < tol then 2
  else 3

let test_min_cnots_matches_weyl () =
  let st = Random.State.make [| 31 |] in
  for i = 0 to 79 do
    let k = i mod 4 in
    let u = random_of_class st k in
    Alcotest.(check int) (Printf.sprintf "sample %d: weyl class" i) k (weyl_class u);
    Alcotest.(check int) (Printf.sprintf "sample %d: oracle" i) k
      (Synthesis.min_cnots u)
  done;
  for i = 0 to 9 do
    let u = haar st 4 in
    Alcotest.(check int) (Printf.sprintf "haar %d" i) (weyl_class u)
      (Synthesis.min_cnots u)
  done

(* Lower bound over QSearch's acceptance ball: any unitary within HS
   distance [certified_threshold] of a k-CNOT unitary still reads <= k. *)
let test_min_cnots_threshold_ball () =
  let st = Random.State.make [| 47 |] in
  let t = Synthesis.certified_threshold in
  for i = 0 to 59 do
    let k = i mod 3 in
    let u = random_of_class st k in
    (* V = U W diag(e^{i eps th}) W^dag with mean-zero th: the HS distance
       is 1 - |sum_j e^{i eps th_j}| / 4, scaled by bisection to just
       under the threshold *)
    let th = Array.init 4 (fun _ -> gaussian st) in
    let mean = Array.fold_left ( +. ) 0.0 th /. 4.0 in
    let th = Array.map (fun x -> x -. mean) th in
    let dist eps =
      let sum =
        Array.fold_left (fun acc x -> Cx.add acc (Cx.cis (eps *. x))) Cx.zero th
      in
      1.0 -. (Cx.norm sum /. 4.0)
    in
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 80 do
      let mid = 0.5 *. (!lo +. !hi) in
      if dist mid < 0.98 *. t then lo := mid else hi := mid
    done;
    let w = haar st 4 in
    let d = Mat.init 4 4 (fun r c -> if r = c then Cx.cis (!lo *. th.(r)) else Cx.zero) in
    let v = Mat.mul u (Mat.mul w (Mat.mul d (Mat.adjoint w))) in
    let hs = Mat.hs_distance u v in
    Alcotest.(check bool)
      (Printf.sprintf "sample %d: distance %.3g just under %.0g" i hs t)
      true
      (hs < t && hs > 0.5 *. t);
    Alcotest.(check bool)
      (Printf.sprintf "sample %d: perturbed %d-CNOT unitary reads <= %d" i k k)
      true
      (Synthesis.min_cnots v <= k)
  done

(* Differential: synthesize_block returns exactly what a full search
   followed by the acceptance rule returns, on every block of <= 2 qubits
   of the builtin benchmarks (raw and ZX-optimized) and of seeded random
   5-6-qubit circuits. *)
let reference_block block =
  let direct = Synthesis.vug_form block in
  match
    Qsearch.synthesize_r ~rng:(Random.State.make [| 17 |]) (Circuit.unitary block)
  with
  | Ok o ->
      let c = o.Qsearch.circuit in
      if
        Synthesis.cx_count c < Synthesis.cx_count direct
        || Synthesis.cx_count c = Synthesis.cx_count direct
           && Circuit.depth c < Circuit.depth direct
      then c
      else direct
  | Error _ -> direct

let test_certified_skip_differential () =
  let circuits =
    List.map snd (Epoc_benchmarks.Benchmarks.suite ())
    @ List.init 4 (fun i ->
          Epoc_benchmarks.Benchmarks.random_circuit ~seed:(100 + i) ~n:(5 + (i mod 2))
            ~length:16)
  in
  let blocks =
    List.concat_map
      (fun c ->
        let zx = (Epoc_zx.Zx.optimize c).Epoc_zx.Zx.circuit in
        List.concat_map
          (fun c -> List.map Epoc_partition.Partition.block_circuit (Epoc_partition.Partition.partition c))
          [ c; zx ])
      circuits
    |> List.filter (fun b -> Circuit.n_qubits b <= 2)
  in
  (* the raw and ZX-optimized partitions share many blocks *)
  let blocks =
    List.sort_uniq compare
      (List.map (fun b -> (Circuit.n_qubits b, Circuit.ops b)) blocks)
  in
  let certified = ref 0 and mismatches = ref [] in
  List.iteri
    (fun i (n, ops) ->
      let block = Circuit.of_ops n ops in
      let r = Synthesis.synthesize_block block in
      if r.Synthesis.certified then incr certified;
      if Circuit.ops r.Synthesis.circuit <> Circuit.ops (reference_block block) then
        mismatches := i :: !mismatches)
    blocks;
  Alcotest.(check (list int)) "blocks whose result differs from the search" []
    (List.rev !mismatches);
  let searched = List.length blocks - !certified in
  Alcotest.(check bool)
    (Printf.sprintf "both paths exercised (%d certified, %d searched)" !certified
       searched)
    true
    (!certified > 0 && searched > 0)

(* The skip is reported: a certified result is a fallback with no search
   telemetry, and the stage counters count it. *)
let test_certified_report () =
  let r = Synthesis.synthesize_block (Circuit.of_ops 2 [ op Gate.CX [ 0; 1 ] ]) in
  Alcotest.(check bool) "cx certified" true r.Synthesis.certified;
  Alcotest.(check bool) "fallback source" true (r.Synthesis.source = Synthesis.Fallback);
  Alcotest.(check int) "no expansions" 0 r.Synthesis.expansions;
  let swap = Synthesis.synthesize_block (Circuit.of_ops 2 [ op Gate.SWAP [ 0; 1 ] ]) in
  Alcotest.(check bool) "swap (3 cx, the bound) certified" true swap.Synthesis.certified;
  let loose =
    Synthesis.synthesize_block
      ~options:{ fast_options with Qsearch.threshold = 1e-6 }
      (Circuit.of_ops 2 [ op Gate.CX [ 0; 1 ] ])
  in
  Alcotest.(check bool) "looser threshold than certified: searched" false
    loose.Synthesis.certified;
  Alcotest.(check (option int)) "certified counter" (Some 2)
    (List.assoc_opt "certified" (Synthesis.counters [ r; swap; loose ]))

(* --- qcheck -------------------------------------------------------------- *)

let arb_2q_block =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "seed=%d" s)
    QCheck.Gen.(int_bound 10_000)

let random_2q_block seed =
  let st = Random.State.make [| seed |] in
  let b = Circuit.Builder.create 2 in
  for _ = 0 to 3 + Random.State.int st 6 do
    match Random.State.int st 5 with
    | 0 -> Circuit.Builder.add b (Gate.RZ (Random.State.float st 6.2)) [ Random.State.int st 2 ]
    | 1 -> Circuit.Builder.add b (Gate.RX (Random.State.float st 6.2)) [ Random.State.int st 2 ]
    | 2 -> Circuit.Builder.add b Gate.H [ Random.State.int st 2 ]
    | 3 -> Circuit.Builder.add b Gate.CX [ 0; 1 ]
    | _ -> Circuit.Builder.add b Gate.CX [ 1; 0 ]
  done;
  Circuit.Builder.to_circuit b

let prop_block_synthesis_sound =
  QCheck.Test.make ~name:"synthesize_block is sound" ~count:10 arb_2q_block
    (fun seed ->
      let block = random_2q_block seed in
      let r = Synthesis.synthesize_block ~options:fast_options block in
      Synthesis.verify ~eps:1e-5 block r)

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_block_synthesis_sound ]

let () =
  Alcotest.run "synthesis"
    [
      ( "template",
        [
          Alcotest.test_case "param count" `Quick test_template_param_count;
          Alcotest.test_case "successor count" `Quick test_template_successor_count;
          Alcotest.test_case "circuit shape" `Quick test_template_circuit_shape;
        ] );
      ( "instantiate",
        [
          Alcotest.test_case "single qubit exact" `Quick test_instantiate_single_qubit;
          Alcotest.test_case "identity" `Quick test_instantiate_identity;
          Alcotest.test_case "gradient descent direction" `Quick
            test_gradient_matches_slope;
        ] );
      ( "qsearch",
        [
          Alcotest.test_case "cx" `Quick test_qsearch_cnot;
          Alcotest.test_case "cz" `Quick test_qsearch_cz;
          Alcotest.test_case "generic 2q" `Quick test_qsearch_swapless;
          Alcotest.test_case "single qubit" `Quick test_qsearch_single_qubit_direct;
          Alcotest.test_case "depth reduction" `Quick
            test_qsearch_reports_depth_reduction;
        ] );
      ( "facade",
        [
          Alcotest.test_case "vug form equivalence" `Quick test_vug_form_equivalence;
          Alcotest.test_case "block equivalence" `Quick
            test_synthesize_block_equivalence;
          Alcotest.test_case "never worse" `Quick test_synthesize_block_never_worse;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "exact classes" `Quick test_min_cnots_exact_classes;
          Alcotest.test_case "agrees with weyl coordinates" `Quick
            test_min_cnots_matches_weyl;
          Alcotest.test_case "lower bound over the threshold ball" `Quick
            test_min_cnots_threshold_ball;
          Alcotest.test_case "certified skip is reported" `Quick
            test_certified_report;
          Alcotest.test_case "skip matches the search (differential)" `Quick
            test_certified_skip_differential;
        ] );
      ("properties", qcheck_cases);
    ]
