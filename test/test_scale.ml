(* Paper-scale known-answer tests: pin the exact schedule the compiler
   produces for QFT-100, BV-64, and a large RevLib MCT circuit on both
   the braid and lookahead backends, plus the braid schedule of the
   deepest Table-2 RevLib circuit (urf5_158: 160k gates, 84k rounds of
   nearly one CX each, where per-round overhead dominates), at small code
   distance (d = 5) so
   the whole file stays inside CI time. Cycle counts are deterministic
   functions of the circuit, the fixed seed, and d -- any drift here is
   a real scheduling change, not noise. A wall-clock budget assertion
   (override with AUTOBRAID_SCALE_BUDGET_S) guards the hot paths these
   circuits exercise: if the bitset frontier, packed interference graph
   or arena router regress, this file times out long before the full
   bench sweep would notice. *)

module S = Autobraid.Scheduler
module L = Qec_lookahead.Lookahead_scheduler
module B = Qec_benchmarks

(* Small d keeps per-round cycle arithmetic cheap without changing the
   round structure: d scales cycles, not the schedule. *)
let timing = Qec_surface.Timing.make ~d:5 ()

let budget_s () =
  match Sys.getenv_opt "AUTOBRAID_SCALE_BUDGET_S" with
  | Some s -> (try float_of_string s with _ -> 240.)
  | None -> 240.

let check_int = Alcotest.(check int)

(* Known answers, computed once at d = 5 with the default seed. The
   lookahead backend is never worse than braid by construction, so its
   pinned cycle count must be <= the braid one; [None] pins braid only. *)
type expect = {
  name : string;
  circuit : unit -> Qec_circuit.Circuit.t;
  braid_cycles : int;
  braid_rounds : int;
  lookahead_cycles : int option;
}

let expectations =
  [
    { name = "qft100";
      circuit = (fun () -> B.Qft.circuit 100);
      braid_cycles = 5840; braid_rounds = 585; lookahead_cycles = Some 5670 };
    { name = "bv64";
      circuit = (fun () -> B.Bv.circuit 64);
      braid_cycles = 640; braid_rounds = 65; lookahead_cycles = Some 640 };
    { name = "urf2_277";
      circuit = (fun () -> B.Building_blocks.by_name "urf2_277");
      braid_cycles = 92355; braid_rounds = 11270;
      lookahead_cycles = Some 92355 };
    { name = "urf5_158";
      circuit = (fun () -> B.Building_blocks.by_name "urf5_158");
      braid_cycles = 698315; braid_rounds = 84450; lookahead_cycles = None };
  ]

let elapsed = ref 0.

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  elapsed := !elapsed +. (Unix.gettimeofday () -. t0);
  r

let test_braid_known_answer e () =
  let c = e.circuit () in
  let r = timed (fun () -> S.run timing c) in
  check_int (e.name ^ " braid cycles") e.braid_cycles r.S.total_cycles;
  check_int (e.name ^ " braid rounds") e.braid_rounds r.S.rounds

let test_lookahead_known_answer e lookahead_cycles () =
  let c = e.circuit () in
  let r, _trace, _stats = timed (fun () -> L.run_traced timing c) in
  check_int (e.name ^ " lookahead cycles") lookahead_cycles r.S.total_cycles;
  if r.S.total_cycles > e.braid_cycles then
    Alcotest.failf "%s: lookahead (%d cycles) worse than braid (%d)" e.name
      r.S.total_cycles e.braid_cycles

let test_wall_budget () =
  (* Runs last: the scheduler time accumulated by the known-answer tests
     above must fit the budget. This is the regression tripwire for the
     hot-path rewrites -- the seed compiler fits comfortably, so a
     failure means a superlinear slowdown crept back in. *)
  let budget = budget_s () in
  if !elapsed > budget then
    Alcotest.failf "scale tests took %.1f s, budget %.1f s (override with \
                    AUTOBRAID_SCALE_BUDGET_S)" !elapsed budget

let () =
  Alcotest.run "qec_scale"
    [
      ( "braid known answers",
        List.map
          (fun e ->
            Alcotest.test_case e.name `Slow (test_braid_known_answer e))
          expectations );
      ( "lookahead known answers",
        List.filter_map
          (fun e ->
            Option.map
              (fun cycles ->
                Alcotest.test_case e.name `Slow
                  (test_lookahead_known_answer e cycles))
              e.lookahead_cycles)
          expectations );
      ( "wall budget",
        [ Alcotest.test_case "within budget" `Slow test_wall_budget ] );
    ]
