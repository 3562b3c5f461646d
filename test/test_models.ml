(* The protocol library (Models): every model's invariants hold under
   bounded sat-checking, every network is deadlock-free under
   exhaustive exploration at several domain counts, every system
   refines its behavioural specification (and back — they are trace
   equivalent), and the compiled successor engine agrees with the
   interpreter byte for byte on each network. *)

open Csp
module M = Models

let check_bool = Alcotest.(check bool)

let domain_counts = [ 1; 2; 4 ]

let cfg_of defs = Step.config ~sampler:(Sampler.nat_bound 2) defs

let assert_holds ?(depth = 5) defs p spec =
  match Sat.check ~depth (cfg_of defs) p spec with
  | Sat.Holds _ -> ()
  | Sat.Fails { trace } -> Alcotest.failf "invariant refuted on %a" Trace.pp trace

let assert_equivalent ?(depth = 5) defs ~impl ~spec =
  let cfg = cfg_of defs in
  (match Equiv.trace_refines ~depth cfg ~impl ~spec with
  | Ok () -> ()
  | Error t -> Alcotest.failf "impl ⋢ spec: disallowed trace %a" Trace.pp t);
  match Equiv.trace_refines ~depth cfg ~impl:spec ~spec:impl with
  | Ok () -> ()
  | Error t -> Alcotest.failf "spec ⋢ impl: missing trace %a" Trace.pp t

(* Exhaustive exploration: complete (nothing truncated) and
   deadlock-free, sequentially and at every domain count. *)
let assert_deadlock_free ?(max_states = 20_000) defs network =
  let seq = Lts.explore ~max_states (cfg_of defs) network in
  check_bool "exploration complete" true seq.Lts.complete;
  Alcotest.(check (list int)) "no deadlock states" [] (Lts.deadlock_states seq);
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let par = Lts.explore ~max_states ~pool (cfg_of defs) network in
          check_bool
            (Printf.sprintf "identical at %d domain(s)" domains)
            true
            (String.equal (Lts.to_dot par) (Lts.to_dot seq))))
    domain_counts

let assert_compiled_identical ?(max_states = 20_000) defs network =
  let seq = Test_support.interpreted ~max_states (cfg_of defs) network in
  let cfg = cfg_of defs in
  let compiled = Compiled.compile cfg network in
  let com = Lts.explore ~max_states ~compiled cfg network in
  check_bool "compiled exploration identical" true
    (Lts.num_states com = Lts.num_states seq
    && Lts.num_transitions com = Lts.num_transitions seq
    && com.Lts.complete = seq.Lts.complete
    && List.equal Int.equal (Lts.deadlock_states com) (Lts.deadlock_states seq)
    && String.equal (Lts.to_dot com) (Lts.to_dot seq))

let assert_well_guarded defs =
  check_bool "well guarded" true (Result.is_ok (Defs.well_guarded defs))

(* One suite per model, all from the same recipe. *)
let model_suite name defs network system spec invariants =
  [
    Alcotest.test_case (name ^ ": well guarded") `Quick (fun () ->
        assert_well_guarded defs);
    Alcotest.test_case (name ^ ": invariants hold") `Quick (fun () ->
        List.iter (fun inv -> assert_holds defs network inv) invariants);
    Alcotest.test_case (name ^ ": deadlock-free at 1/2/4 domains") `Quick
      (fun () -> assert_deadlock_free defs network);
    Alcotest.test_case (name ^ ": trace-equivalent to spec") `Quick (fun () ->
        assert_equivalent defs ~impl:system ~spec);
    Alcotest.test_case (name ^ ": compiled = interpreted") `Quick (fun () ->
        assert_compiled_identical defs network);
  ]

let sliding_window =
  let m = M.Sliding_window.default in
  model_suite "sliding-window w=2" m.M.Sliding_window.defs
    m.M.Sliding_window.network m.M.Sliding_window.system
    m.M.Sliding_window.spec m.M.Sliding_window.invariants
  @ [
      Alcotest.test_case "sliding-window w=1: degenerates to the buffer" `Quick
        (fun () ->
          let m = M.Sliding_window.make ~w:1 in
          assert_equivalent m.M.Sliding_window.defs
            ~impl:m.M.Sliding_window.system ~spec:m.M.Sliding_window.spec;
          List.iter
            (fun inv ->
              assert_holds m.M.Sliding_window.defs m.M.Sliding_window.network
                inv)
            m.M.Sliding_window.invariants);
      Alcotest.test_case "sliding-window w=3: still deadlock-free" `Quick
        (fun () ->
          let m = M.Sliding_window.make ~w:3 in
          assert_deadlock_free m.M.Sliding_window.defs
            m.M.Sliding_window.network);
    ]

let token_ring =
  let m = M.Token_ring.default in
  model_suite "token-ring n=3" m.M.Token_ring.defs m.M.Token_ring.network
    m.M.Token_ring.system m.M.Token_ring.spec m.M.Token_ring.invariants
  @ [
      Alcotest.test_case "token-ring n=4: deadlock-free, spec-equivalent"
        `Quick (fun () ->
          let m = M.Token_ring.make ~n:4 in
          assert_deadlock_free m.M.Token_ring.defs m.M.Token_ring.network;
          assert_equivalent ~depth:8 m.M.Token_ring.defs
            ~impl:m.M.Token_ring.system ~spec:m.M.Token_ring.spec);
    ]

let leader =
  let m = M.Leader.default in
  model_suite "leader n=3" m.M.Leader.defs m.M.Leader.network m.M.Leader.system
    m.M.Leader.spec m.M.Leader.invariants
  @ [
      Alcotest.test_case "leader n=4: the maximal id still wins" `Quick
        (fun () ->
          let m = M.Leader.make ~n:4 in
          assert_deadlock_free m.M.Leader.defs m.M.Leader.network;
          List.iter
            (fun inv -> assert_holds m.M.Leader.defs m.M.Leader.network inv)
            m.M.Leader.invariants);
    ]

let commit =
  let m = M.Commit.default in
  model_suite "two-phase commit n=2" m.M.Commit.defs m.M.Commit.network
    m.M.Commit.system m.M.Commit.spec m.M.Commit.invariants
  @ [
      Alcotest.test_case "commit n=1: single participant" `Quick (fun () ->
          let m = M.Commit.make ~n:1 in
          assert_deadlock_free m.M.Commit.defs m.M.Commit.network;
          assert_equivalent m.M.Commit.defs ~impl:m.M.Commit.system
            ~spec:m.M.Commit.spec);
    ]

(* Choreographies: deadlock-free by construction, and the projected
   network replays exactly the global interaction sequence. *)
let choreo =
  let check_choreo (c : M.Choreo.t) =
    assert_well_guarded c.M.Choreo.defs;
    assert_deadlock_free c.M.Choreo.defs c.M.Choreo.network;
    assert_equivalent ~depth:6 c.M.Choreo.defs ~impl:c.M.Choreo.network
      ~spec:c.M.Choreo.global;
    assert_compiled_identical c.M.Choreo.defs c.M.Choreo.network
  in
  [
    Alcotest.test_case "generated choreographies project soundly" `Quick
      (fun () ->
        List.iter
          (fun seed ->
            List.iter
              (fun (roles, length) ->
                check_choreo (M.Choreo.generate ~roles ~length ~seed))
              [ (2, 2); (2, 3); (3, 3); (3, 4) ])
          [ 0; 1; 7; 42; 1981 ]);
    Alcotest.test_case "self-sends are rejected" `Quick (fun () ->
        Alcotest.check_raises "self-send"
          (Invalid_argument "Choreo.make: step 0 is a self-send") (fun () ->
            ignore
              (M.Choreo.make ~roles:2
                 ~steps:[ { M.Choreo.frm = 0; dst = 0; value = 1 } ])));
    Alcotest.test_case "generation is a pure function of the arguments"
      `Quick (fun () ->
        let a = M.Choreo.generate ~roles:3 ~length:4 ~seed:42 in
        let b = M.Choreo.generate ~roles:3 ~length:4 ~seed:42 in
        check_bool "same steps" true (a.M.Choreo.steps = b.M.Choreo.steps));
  ]

let () =
  Alcotest.run "models"
    [
      ("sliding_window", sliding_window);
      ("token_ring", token_ring);
      ("leader", leader);
      ("commit", commit);
      ("choreo", choreo);
    ]
