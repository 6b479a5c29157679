open Epoc_circuit
open Epoc_qasm

let parse s = Qasm.of_string s

let header = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"

let test_minimal () =
  let c = parse (header ^ "qreg q[2];\nh q[0];\ncx q[0],q[1];\n") in
  Alcotest.(check int) "qubits" 2 (Circuit.n_qubits c);
  Alcotest.(check int) "gates" 2 (Circuit.gate_count c)

let test_all_builtin_gates () =
  let c =
    parse
      (header
     ^ "qreg q[3];\n\
        x q[0]; y q[0]; z q[0]; h q[0]; s q[0]; sdg q[0]; t q[0]; tdg q[0];\n\
        sx q[0]; rx(0.5) q[0]; ry(0.5) q[1]; rz(0.5) q[2]; u1(0.3) q[0];\n\
        u2(0.1,0.2) q[1]; u3(0.1,0.2,0.3) q[2]; p(1.0) q[0];\n\
        cx q[0],q[1]; cz q[1],q[2]; cy q[0],q[2]; ch q[0],q[1];\n\
        swap q[0],q[1]; crz(0.4) q[0],q[1]; cu1(0.2) q[1],q[2]; cp(0.2) q[0],q[1];\n\
        rxx(0.3) q[0],q[1]; rzz(0.3) q[1],q[2];\n\
        ccx q[0],q[1],q[2]; cswap q[0],q[1],q[2];\n")
  in
  Alcotest.(check int) "gate count" 28 (Circuit.gate_count c)

let test_parameter_expressions () =
  let c =
    parse
      (header
     ^ "qreg q[1];\n\
        rz(pi/2) q[0];\nrz(-pi/4) q[0];\nrz(2*pi) q[0];\nrz(pi/2 + pi/4) q[0];\n\
        rz(cos(0.0)) q[0];\nrz(sqrt(4.0)) q[0];\nrz(1.5e-1) q[0];\n")
  in
  let angles =
    List.filter_map
      (fun (op : Circuit.op) ->
        match op.Circuit.gate with Gate.RZ a -> Some a | _ -> None)
      (Circuit.ops c)
  in
  let expect =
    [ Float.pi /. 2.0; -.Float.pi /. 4.0; 2.0 *. Float.pi;
      3.0 *. Float.pi /. 4.0; 1.0; 2.0; 0.15 ]
  in
  List.iter2 (fun a e -> Alcotest.(check (float 1e-12)) "angle" e a) angles expect

let test_register_broadcast () =
  let c = parse (header ^ "qreg q[3];\nh q;\n") in
  Alcotest.(check int) "broadcast h" 3 (Circuit.gate_count c);
  let c2 = parse (header ^ "qreg a[3];\nqreg b[3];\ncx a,b;\n") in
  Alcotest.(check int) "broadcast cx" 3 (Circuit.gate_count c2);
  (* mixed: single bit against register *)
  let c3 = parse (header ^ "qreg a[1];\nqreg b[3];\ncx a[0],b;\n") in
  Alcotest.(check int) "mixed broadcast" 3 (Circuit.gate_count c3)

let test_multiple_registers_offsets () =
  let c = parse (header ^ "qreg a[2];\nqreg b[2];\nx b[1];\n") in
  match Circuit.ops c with
  | [ { Circuit.gate = Gate.X; qubits = [ 3 ] } ] -> ()
  | _ -> Alcotest.fail "expected x on global qubit 3"

let test_custom_gate_definition () =
  let c =
    parse
      (header
     ^ "qreg q[2];\n\
        gate mygate(theta) a,b { rz(theta) a; cx a,b; rz(-theta) b; }\n\
        mygate(0.7) q[0],q[1];\n")
  in
  Alcotest.(check int) "expanded gates" 3 (Circuit.gate_count c);
  match Circuit.ops c with
  | [ { Circuit.gate = Gate.RZ a; qubits = [ 0 ] };
      { Circuit.gate = Gate.CX; qubits = [ 0; 1 ] };
      { Circuit.gate = Gate.RZ b; qubits = [ 1 ] } ] ->
      Alcotest.(check (float 1e-12)) "theta" 0.7 a;
      Alcotest.(check (float 1e-12)) "-theta" (-0.7) b
  | _ -> Alcotest.fail "unexpected expansion"

let test_nested_gate_definitions () =
  let c =
    parse
      (header
     ^ "qreg q[3];\n\
        gate g1 a,b { cx a,b; }\n\
        gate g2 a,b,c { g1 a,b; g1 b,c; h a; }\n\
        g2 q[0],q[1],q[2];\n")
  in
  Alcotest.(check int) "nested expansion" 3 (Circuit.gate_count c)

let test_measure_barrier_ignored () =
  let c =
    parse
      (header
     ^ "qreg q[2];\ncreg c[2];\nh q[0];\nbarrier q;\nmeasure q -> c;\n\
        measure q[0] -> c[0];\n")
  in
  Alcotest.(check int) "only h remains" 1 (Circuit.gate_count c)

let test_comments () =
  let c =
    parse
      (header
     ^ "// line comment\nqreg q[1];\n/* block\ncomment */\nh q[0]; // trailing\n")
  in
  Alcotest.(check int) "comments ignored" 1 (Circuit.gate_count c)

let test_errors () =
  let expect_fail src =
    match parse src with
    | exception Qasm.Parse_error _ -> ()
    | _ -> Alcotest.fail ("expected parse error for: " ^ src)
  in
  expect_fail (header ^ "qreg q[1];\nnonexistent q[0];\n");
  expect_fail (header ^ "qreg q[1];\nh q[5];\n");
  expect_fail (header ^ "qreg q[2];\nif (c==1) x q[0];\n");
  expect_fail (header ^ "qreg q[1];\nrz(undefined_param) q[0];\n");
  expect_fail (header ^ "h q[0];\n") (* no qreg *)

(* Parse errors name the line they were found on. *)
let error_message src =
  match parse src with
  | exception Qasm.Parse_error m -> m
  | _ -> Alcotest.fail ("expected parse error for: " ^ src)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_errors_located () =
  let m = error_message (header ^ "qreg q[1];\n\nnonexistent q[0];\n") in
  Alcotest.(check bool) ("statement error located: " ^ m) true
    (String.starts_with ~prefix:"line 5: " m);
  let m = error_message (header ^ "qreg q[1];\nrz(1.2.3) q[0];\n") in
  Alcotest.(check bool) ("lexer error located: " ^ m) true
    (String.starts_with ~prefix:"line 4: " m)

(* Gate parameters must be finite angles: an infinite or NaN parameter is a
   located parse error, whether written directly, as an overflowing
   literal, or produced inside a gate definition's body. *)
let test_non_finite_parameters () =
  let cases =
    [
      ("qreg q[2];\nh q[0];\nrz(1/0) q[1];\n", 5, "+infinity");
      ("qreg q[1];\nrx(-1/0) q[0];\n", 4, "-infinity");
      ("qreg q[1];\nrz(0/0) q[0];\n", 4, "NaN");
      ("qreg q[1];\nu3(0.1, 1e999, 0) q[0];\n", 4, "+infinity");
      ("qreg q[1];\nrz(sqrt(-1)) q[0];\n", 4, "NaN");
      ("gate g(a) x { rz(1/a) x; }\nqreg q[1];\ng(0) q[0];\n", 5, "+infinity");
    ]
  in
  List.iter
    (fun (body, line, what) ->
      let m = error_message (header ^ body) in
      Alcotest.(check bool) ("located: " ^ m) true
        (String.starts_with ~prefix:(Printf.sprintf "line %d: " line) m);
      Alcotest.(check bool) ("names the value: " ^ m) true (contains ~sub:what m))
    cases;
  (* large but finite angles are still accepted *)
  let c = parse (header ^ "qreg q[1];\nrz(1e300) q[0];\n") in
  Alcotest.(check int) "finite angle kept" 1 (Circuit.gate_count c)

(* The CLI turns unreadable input, unwritable output files and bad
   programs into exit 1 with a message on stderr. *)
let cli =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/epoc_cli.exe"

let run_cli args =
  let err = Filename.temp_file "epoc_cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s >/dev/null 2>%s" cli
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote err))
  in
  let ic = open_in_bin err in
  let msg = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, msg)

let test_cli_input_errors () =
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "epoc-no-such-input.qasm" in
  List.iter
    (fun cmd ->
      let code, msg = run_cli [ cmd; missing ] in
      Alcotest.(check int) (cmd ^ ": missing file exits 1") 1 code;
      Alcotest.(check bool) (cmd ^ ": message names the file: " ^ msg) true
        (contains ~sub:missing msg))
    [ "compile"; "report"; "zx"; "ir" ];
  (* an unwritable output file is reported by name and exits 1 *)
  let unwritable = "/nonexistent-epoc-dir/out.json" in
  List.iter
    (fun args ->
      let label = String.concat " " args in
      let code, msg = run_cli (args @ [ unwritable ]) in
      Alcotest.(check int) (label ^ ": unwritable output exits 1") 1 code;
      Alcotest.(check bool) (label ^ ": message names the file: " ^ msg) true
        (contains ~sub:unwritable msg))
    [
      [ "compile"; "bench:bell"; "--export-ir" ];
      [ "compile"; "bench:bell"; "--trace-chrome" ];
      [ "report"; "bench:bell"; "--trace-chrome" ];
    ];
  let bad = Filename.temp_file "epoc_nonfinite" ".qasm" in
  let oc = open_out_bin bad in
  output_string oc (header ^ "qreg q[1];\nrz(1/0) q[0];\n");
  close_out oc;
  let code, msg = run_cli [ "compile"; bad ] in
  Sys.remove bad;
  Alcotest.(check int) "non-finite parameter exits 1" 1 code;
  Alcotest.(check bool) ("located parse error: " ^ msg) true
    (String.starts_with ~prefix:"parse error: line 4: " msg)

let test_roundtrip_writer () =
  let c =
    parse (header ^ "qreg q[3];\nh q[0];\ncx q[0],q[1];\nrz(0.25) q[2];\nccx q[0],q[1],q[2];\n")
  in
  let again = parse (Qasm.to_string_qasm c) in
  Alcotest.(check bool) "roundtrip equivalent" true
    (Circuit.equal_unitary ~eps:1e-9 c again)

let test_benchmark_suite_serializes () =
  (* every builtin benchmark survives a QASM write/parse roundtrip *)
  List.iter
    (fun (name, c) ->
      if Circuit.n_qubits c <= 6 then begin
        let again = parse (Qasm.to_string_qasm c) in
        Alcotest.(check bool)
          (name ^ " roundtrip")
          true
          (Circuit.equal_unitary ~eps:1e-7 c again)
      end)
    (Epoc_benchmarks.Benchmarks.suite ())

let () =
  Alcotest.run "qasm"
    [
      ( "parse",
        [
          Alcotest.test_case "minimal" `Quick test_minimal;
          Alcotest.test_case "all builtin gates" `Quick test_all_builtin_gates;
          Alcotest.test_case "parameter expressions" `Quick
            test_parameter_expressions;
          Alcotest.test_case "register broadcast" `Quick test_register_broadcast;
          Alcotest.test_case "register offsets" `Quick
            test_multiple_registers_offsets;
          Alcotest.test_case "custom gate" `Quick test_custom_gate_definition;
          Alcotest.test_case "nested gates" `Quick test_nested_gate_definitions;
          Alcotest.test_case "measure/barrier" `Quick test_measure_barrier_ignored;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "errors are located" `Quick test_errors_located;
          Alcotest.test_case "non-finite parameters" `Quick
            test_non_finite_parameters;
        ] );
      ( "cli",
        [ Alcotest.test_case "input errors exit 1" `Quick test_cli_input_errors ]
      );
      ( "writer",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_writer;
          Alcotest.test_case "benchmark suite roundtrip" `Quick
            test_benchmark_suite_serializes;
        ] );
    ]
