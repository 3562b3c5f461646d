(* The compiled successor engine: flat-table exploration must be
   byte-identical to the interpreter — state numbering, transition
   order, truncation/deadlock bookkeeping and DOT — at any domain
   count, with or without lazy fallback materialisation, and the
   compiled simulator walk must replay the interpreted one. *)

open Csp
module Gen = Csp_testkit.Gen
module Scenario = Csp_testkit.Scenario

let domain_counts =
  let base = [ 1; 2; 4 ] in
  match Sys.getenv_opt "CSP_TEST_DOMAINS" with
  | None -> base
  | Some s -> (
    match int_of_string_opt s with
    | Some d when d > 1 && not (List.mem d base) -> base @ [ d ]
    | _ -> base)

let transition_equal (a : Lts.transition) (b : Lts.transition) =
  a.Lts.source = b.Lts.source
  && a.Lts.target = b.Lts.target
  && a.Lts.visible = b.Lts.visible
  && Event.equal a.Lts.event b.Lts.event

(* Stronger than test_parallel's check: the transition *list* must
   match element for element, not only the sorted DOT rendering. *)
let lts_identical (seq : Lts.t) (com : Lts.t) =
  Lts.num_states com = Lts.num_states seq
  && Lts.num_transitions com = Lts.num_transitions seq
  && com.Lts.complete = seq.Lts.complete
  && com.Lts.initial = seq.Lts.initial
  && Array.for_all2 Process.equal com.Lts.states seq.Lts.states
  && List.for_all2 transition_equal com.Lts.transitions seq.Lts.transitions
  && Array.for_all2 Bool.equal com.Lts.truncated seq.Lts.truncated
  && List.equal Int.equal (Lts.deadlock_states com) (Lts.deadlock_states seq)
  && String.equal (Lts.to_dot com) (Lts.to_dot seq)

(* ---- QCheck differential: generated scenarios ------------------------ *)

let compiled_identical_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"compiled explore: identical numbering, transitions and DOT"
       Gen.scenario
       (fun sc ->
         let fresh_cfg () =
           Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs
         in
         let p = Process.ref_ sc.Scenario.main in
         let seq = Lts.explore ~max_states:300 (fresh_cfg ()) p in
         let cfg = fresh_cfg () in
         let compiled = Compiled.compile cfg p in
         let com = Lts.explore ~max_states:300 ~compiled cfg p in
         lts_identical seq com))

(* The fallback path: a compile budget far below the reachable state
   count leaves most rows unmaterialised, so exploration must lazily
   materialise them — and still be identical. *)
let compiled_fallback_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:25
       ~name:"compiled explore under tiny budget: fallback is identical"
       Gen.scenario
       (fun sc ->
         let fresh_cfg () =
           Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs
         in
         let p = Process.ref_ sc.Scenario.main in
         let seq = Lts.explore ~max_states:300 (fresh_cfg ()) p in
         let cfg = fresh_cfg () in
         let compiled = Compiled.compile ~budget:1 cfg p in
         let com = Lts.explore ~max_states:300 ~compiled cfg p in
         lts_identical seq com))

(* ---- determinism across domain counts -------------------------------- *)

let test_philosophers_identical_any_domains () =
  let ph = Paper.Philosophers.make ~n:3 ~left_handed_last:false () in
  let fresh_cfg () =
    Step.config ~sampler:(Sampler.nat_bound 3) ph.Paper.Philosophers.defs
  in
  let net = ph.Paper.Philosophers.network in
  let seq = Lts.explore ~max_states:5000 (fresh_cfg ()) net in
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let cfg = fresh_cfg () in
          (* budget below the state space so the parallel fallback
             materialisation path runs, not just the compiled prefix *)
          let compiled = Compiled.compile ~budget:2 cfg net in
          let com = Lts.explore ~max_states:5000 ~pool ~compiled cfg net in
          Alcotest.(check bool)
            (Printf.sprintf "philosophers identical at %d domains" domains)
            true (lts_identical seq com);
          Alcotest.(check bool)
            "lazy rows were materialised" true
            (Compiled.fallbacks compiled > 0)))
    domain_counts

(* ---- truncation and deadlock bookkeeping ----------------------------- *)

let counter_defs =
  Defs.empty
  |> Defs.define_array "count" "n" Vset.Nat
       (Process.Output
          ( Chan_expr.simple "tick",
            Expr.Var "n",
            Process.call "count" (Expr.Add (Expr.Var "n", Expr.int 1)) ))

let test_truncation_identical () =
  let p = Process.call "count" (Expr.int 0) in
  let cfg () = Step.config ~sampler:(Sampler.nat_bound 2) counter_defs in
  let seq = Lts.explore ~max_states:5 (cfg ()) p in
  let c = cfg () in
  (* the compile runs past the explore bound: ids beyond max_states
     exist in the automaton but must not leak into the exploration *)
  let compiled = Compiled.compile ~budget:20 c p in
  let com = Lts.explore ~max_states:5 ~compiled c p in
  Alcotest.(check bool) "identical truncated system" true
    (lts_identical seq com);
  Alcotest.(check bool) "incomplete" false com.Lts.complete;
  Alcotest.(check (list int)) "cut state flagged" [ 4 ]
    (Lts.truncated_states com);
  Alcotest.(check (list int)) "no deadlock false positive" []
    (Lts.deadlock_states com)

let test_deadlock_identical () =
  let defs =
    Defs.empty
    |> Defs.define "once"
         (Process.Output (Chan_expr.simple "a", Expr.int 0, Process.Stop))
  in
  let p = Process.ref_ "once" in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) defs in
  let compiled = Compiled.compile cfg p in
  let com = Lts.explore ~max_states:10 ~compiled cfg p in
  Alcotest.(check bool) "complete" true com.Lts.complete;
  Alcotest.(check (list int)) "STOP is deadlocked" [ 1 ]
    (Lts.deadlock_states com)

(* ---- the automaton itself -------------------------------------------- *)

let test_compiled_tables () =
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) Paper.Protocol.defs in
  let compiled = Compiled.compile cfg Paper.Protocol.network in
  Alcotest.(check bool) "states assigned" true (Compiled.n_states compiled > 0);
  Alcotest.(check int) "all rows materialised within budget"
    (Compiled.n_states compiled) (Compiled.n_rows compiled);
  Alcotest.(check int) "no fallbacks within budget" 0
    (Compiled.fallbacks compiled);
  Alcotest.(check bool) "events interned" true (Compiled.n_events compiled > 0);
  Alcotest.(check bool) "compile time recorded" true
    (Compiled.compile_ms compiled >= 0.0);
  (* flat rows agree with the interpreter on every compiled state *)
  let seq = Lts.explore ~max_states:2000 cfg Paper.Protocol.network in
  Alcotest.(check int) "compiled prefix covers the exploration"
    (Lts.num_states seq) (Compiled.n_states compiled);
  let root = Compiled.root compiled in
  let by_compiled = Compiled.transitions_i compiled root
  and by_interpreter = Step.transitions_i cfg root in
  Alcotest.(check bool) "row = interpreter list" true
    (List.for_all2
       (fun (e1, v1, q1) (e2, v2, q2) ->
         Event.equal e1 e2 && Step.vis_equal v1 v2 && Proc.equal q1 q2)
       by_compiled by_interpreter)

(* states outside the automaton delegate to the interpreter *)
let test_off_automaton_fallback () =
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) Paper.Protocol.defs in
  let compiled = Compiled.compile cfg Paper.Protocol.network in
  let other = Proc.intern Paper.Protocol.protocol in
  let by_compiled = Compiled.transitions_i compiled other
  and by_interpreter = Step.transitions_i cfg other in
  Alcotest.(check bool) "off-automaton state answered identically" true
    (List.for_all2
       (fun (e1, v1, q1) (e2, v2, q2) ->
         Event.equal e1 e2 && Step.vis_equal v1 v2 && Proc.equal q1 q2)
       by_compiled by_interpreter)

(* ---- truncation, pinned once for every explorer ---------------------- *)

(* The bounded exploration at [k] must be [full] restricted to its first
   [k] states: the same numbering, exactly the transitions with both
   endpoints below [k] (in order), [truncated] exactly on the sources
   of cut edges, [complete] iff no edge is cut.  [full] may itself be
   bounded: its own truncated states keep their cut edges. *)
let restriction_of (full : Lts.t) k (l : Lts.t) =
  let n = min k (Lts.num_states full) in
  let from_kept = List.filter (fun tr -> tr.Lts.source < n) full.Lts.transitions in
  let kept = List.filter (fun tr -> tr.Lts.target < n) from_kept in
  let truncated = Array.init n (fun i -> full.Lts.truncated.(i)) in
  List.iter
    (fun tr -> if tr.Lts.target >= n then truncated.(tr.Lts.source) <- true)
    from_kept;
  Lts.num_states l = n
  && Array.length l.Lts.truncated = n
  && l.Lts.initial = full.Lts.initial
  && Array.for_all2 Process.equal l.Lts.states (Array.sub full.Lts.states 0 n)
  && List.equal transition_equal l.Lts.transitions kept
  && Lts.num_transitions l = List.length kept
  && Array.for_all2 Bool.equal l.Lts.truncated truncated
  && l.Lts.complete = not (Array.exists Fun.id truncated)

(* 1 domain, plus CSP_TEST_DOMAINS (2 when unset) *)
let truncation_domains =
  match Option.bind (Sys.getenv_opt "CSP_TEST_DOMAINS") int_of_string_opt with
  | Some d when d > 1 -> [ 1; d ]
  | _ -> [ 1; 2 ]

(* Every k from 1 to (states + 1), through every way of running the
   loop: a fresh table, a replay over a fully compiled table and one
   over a budget-1 table (each replay also grows it by fallbacks), at
   each domain count.  [bound] caps [full] for open-ended scenarios. *)
let truncation_pinned ?(bound = 5000) mk_cfg p =
  let full = Lts.explore ~max_states:bound (mk_cfg ()) p in
  let ks = List.init (min (Lts.num_states full + 1) bound) (fun i -> i + 1) in
  List.for_all
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let pool = if domains > 1 then Some pool else None in
          let fresh k = Lts.explore ~max_states:k ?pool (mk_cfg ()) p in
          let replay budget =
            let cfg = mk_cfg () in
            let compiled = Compiled.compile ?budget cfg p in
            fun k -> Lts.explore ~max_states:k ?pool ~compiled cfg p
          in
          List.for_all
            (fun explore ->
              List.for_all (fun k -> restriction_of full k (explore k)) ks)
            [ fresh; replay None; replay (Some 1) ]))
    truncation_domains

let truncation_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10
       ~name:"every bound k: explore k = unbounded explore restricted to k"
       Gen.scenario
       (fun sc ->
         truncation_pinned ~bound:60
           (fun () -> Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs)
           (Process.ref_ sc.Scenario.main)))

let test_truncation_models () =
  let ph = Paper.Philosophers.make ~n:3 ~left_handed_last:true () in
  let sw = Models.Sliding_window.make ~w:2 in
  List.iter
    (fun (label, defs, nat, p) ->
      Alcotest.(check bool) label true
        (truncation_pinned
           (fun () -> Step.config ~sampler:(Sampler.nat_bound nat) defs)
           p))
    [
      ("philosophers-3", ph.Paper.Philosophers.defs, 3, ph.Paper.Philosophers.network);
      ( "sliding-window w=2",
        sw.Models.Sliding_window.defs,
        2,
        sw.Models.Sliding_window.network );
    ]

(* The counter abstraction runs the same loop with abstract successors. *)
let test_truncation_counter () =
  let fam = Abstraction.Family.workers.Abstraction.Family.fam in
  let explore k = (Abstraction.Counter.explore ~max_states:k fam ~n:4).Abstraction.Counter.lts in
  let full = explore 4000 in
  Alcotest.(check bool) "workers-4 abstract space complete" true full.Lts.complete;
  for k = 1 to Lts.num_states full + 1 do
    Alcotest.(check bool)
      (Printf.sprintf "workers-4 abstract, k=%d" k)
      true
      (restriction_of full k (explore k))
  done

(* ---- engine cache, runner and bisimulation --------------------------- *)

let test_engine_compile_cached () =
  let eng = Engine.create ~nat_bound:2 Paper.Protocol.defs in
  let c1 = Engine.compile eng Paper.Protocol.network in
  let c2 = Engine.compile eng Paper.Protocol.network in
  Alcotest.(check bool) "same automaton object" true (c1 == c2);
  let c3 = Engine.compile (Engine.with_depth eng 9) Paper.Protocol.network in
  Alcotest.(check bool) "with_depth shares the cache" true (c1 == c3)

let test_runner_compiled_identical () =
  let eng = Engine.create ~nat_bound:2 ~seed:7 Paper.Protocol.defs in
  let p = Paper.Protocol.protocol in
  let interp = Csp_sim.Runner.run_engine ~max_steps:200 eng p in
  let compiled = Engine.compile eng p in
  let fast = Csp_sim.Runner.run_engine ~max_steps:200 ~compiled eng p in
  Alcotest.(check bool) "same trace" true
    (List.equal Event.equal interp.Csp_sim.Runner.trace
       fast.Csp_sim.Runner.trace);
  Alcotest.(check bool) "same stop reason" true
    (interp.Csp_sim.Runner.stop = fast.Csp_sim.Runner.stop);
  Alcotest.(check bool) "same final state" true
    (Process.equal interp.Csp_sim.Runner.final fast.Csp_sim.Runner.final)

let test_bisim_compiler_same_answer () =
  let eng = Engine.create ~nat_bound:2 Paper.Protocol.defs in
  let cfg = Engine.step_config eng in
  let compiler = Engine.compile eng in
  let p = Paper.Protocol.protocol and q = Paper.Protocol.network in
  let plain = Bisim.weak_equivalent cfg p q
  and routed = Bisim.weak_equivalent ~compiler cfg p q in
  Alcotest.(check bool) "weak_equivalent unchanged" plain routed;
  let plain_s = Bisim.equivalent cfg p p
  and routed_s = Bisim.equivalent ~compiler cfg p p in
  Alcotest.(check bool) "equivalent unchanged" plain_s routed_s

let () =
  Alcotest.run "compiled"
    [
      ( "differential",
        [
          compiled_identical_qcheck;
          compiled_fallback_qcheck;
          Alcotest.test_case "philosophers identical at 1/2/4 domains" `Quick
            test_philosophers_identical_any_domains;
        ] );
      ( "truncation",
        [
          Alcotest.test_case "truncated system identical" `Quick
            test_truncation_identical;
          Alcotest.test_case "deadlocks survive" `Quick test_deadlock_identical;
          truncation_qcheck;
          Alcotest.test_case "every bound on philosophers-3, sliding-window w=2"
            `Quick test_truncation_models;
          Alcotest.test_case "every bound on the workers-4 counter abstraction"
            `Quick test_truncation_counter;
        ] );
      ( "tables",
        [
          Alcotest.test_case "flat rows" `Quick test_compiled_tables;
          Alcotest.test_case "off-automaton fallback" `Quick
            test_off_automaton_fallback;
        ] );
      ( "integration",
        [
          Alcotest.test_case "engine cache" `Quick test_engine_compile_cached;
          Alcotest.test_case "runner identical" `Quick
            test_runner_compiled_identical;
          Alcotest.test_case "bisim compiler" `Quick
            test_bisim_compiler_same_answer;
        ] );
    ]
