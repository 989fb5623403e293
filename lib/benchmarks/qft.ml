module G = Qec_circuit.Gate
module C = Qec_circuit.Circuit

let circuit ?(with_swaps = false) n =
  if n < 1 then invalid_arg "Qft.circuit: n < 1";
  let b = C.Builder.create ~name:(Printf.sprintf "qft%d" n) ~num_qubits:n () in
  for i = 0 to n - 1 do
    C.Builder.add b (G.H i);
    for j = i + 1 to n - 1 do
      (* pi / 2^(j-i), exact for every distance: [1 lsl k] wraps at k >= 62. *)
      let angle = Float.ldexp Float.pi (i - j) in
      C.Builder.add b (G.Cphase (j, i, angle))
    done
  done;
  if with_swaps then
    for i = 0 to (n / 2) - 1 do
      C.Builder.add b (G.Swap (i, n - 1 - i))
    done;
  C.Builder.finish b
