(* The compiled successor engine: flat-table exploration over vector
   rows must be byte-identical to the interpreter — state numbering,
   the [Proc] of every state, transition order, truncation/deadlock
   bookkeeping and DOT — at any domain count, with or without lazy
   fallback materialisation, and the compiled simulator walk must
   replay the interpreted one.  The interpreter reference is the same
   loop with rows from [Step.transitions_i] on the whole state
   ([Test_support.interpreted]). *)

open Csp
module Gen = Csp_testkit.Gen
module Scenario = Csp_testkit.Scenario

let interpreted = Test_support.interpreted
let interpreted_raw = Test_support.interpreted_raw

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
         let seq = interpreted ~max_states:300 (fresh_cfg ()) p in
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
         let seq = interpreted ~max_states:300 (fresh_cfg ()) p in
         let cfg = fresh_cfg () in
         let compiled = Compiled.compile ~budget:1 cfg p in
         let com = Lts.explore ~max_states:300 ~compiled cfg p in
         lts_identical seq com))

(* ---- vector rows ≡ interpreter rows ----------------------------------- *)

(* Same numbering, the physically same [Proc] per state, the same
   transition list in the same order, the same truncation. *)
let raw_identical (a : Compiled.raw) (b : Compiled.raw) =
  let tr_equal (s1, e1, v1, t1) (s2, e2, v2, t2) =
    Int.equal s1 s2 && Event.equal e1 e2 && Bool.equal v1 v2 && Int.equal t1 t2
  in
  Int.equal a.Compiled.raw_initial b.Compiled.raw_initial
  && Array.length a.Compiled.raw_states = Array.length b.Compiled.raw_states
  && Array.for_all2 Proc.equal a.Compiled.raw_states b.Compiled.raw_states
  && List.equal tr_equal a.Compiled.raw_transitions b.Compiled.raw_transitions
  && Bool.equal a.Compiled.raw_complete b.Compiled.raw_complete
  && Array.for_all2 Bool.equal a.Compiled.raw_truncated b.Compiled.raw_truncated

(* The canonical form: every target [Vector.successors] hands back is
   the decomposition of its own term, on every state reached within
   [bound]. *)
let canonical_everywhere ?(bound = 2000) cfg p =
  let vt = Vector.create cfg in
  let seen = Vector.Tbl.create 64 and queue = Queue.create () in
  let root = Vector.decompose vt (Proc.intern p) in
  Vector.Tbl.add seen root ();
  Queue.add root queue;
  let ok = ref true in
  while !ok && (not (Queue.is_empty queue)) && Vector.Tbl.length seen < bound do
    List.iter
      (fun (_, _, w) ->
        if not (Vector.equal w (Vector.decompose vt (Vector.build w))) then
          ok := false
        else if not (Vector.Tbl.mem seen w) then begin
          Vector.Tbl.add seen w ();
          Queue.add w queue
        end)
      (Vector.successors vt (Queue.pop queue))
  done;
  !ok

(* Fresh configurations on both sides: neither run may coast on the
   other's caches. *)
let vector_matches ?(max_states = 2000) mk_cfg p =
  raw_identical
    (interpreted_raw ~max_states (mk_cfg ()) p)
    (Compiled.explore ~max_states (mk_cfg ()) (Proc.intern p))
  && canonical_everywhere ~bound:max_states (mk_cfg ()) p

let vector_qcheck =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:50
       ~name:"vector rows = interpreter rows on generated scenarios"
       Gen.scenario
       (fun sc ->
         vector_matches ~max_states:300
           (fun () -> Step.config ~sampler:(Sampler.nat_bound 2) sc.Scenario.defs)
           (Process.ref_ sc.Scenario.main)))

let test_vector_presets () =
  let sw = Models.Sliding_window.make ~w:2
  and tr = Models.Token_ring.make ~n:3
  and le = Models.Leader.make ~n:3
  and wk = Models.Workers.make ~n:4
  and cm = Models.Commit.make ~n:2
  and mu = Paper.Multiplier.default
  and ph = Paper.Philosophers.make ~n:3 ~left_handed_last:true ()
  and ps = Paper.Philosophers.make ~n:3 ~left_handed_last:false ()
  and chain_defs, chain = Paper.Copier.chain_defs 4 in
  List.iter
    (fun (label, defs, nat, p) ->
      Alcotest.(check bool) label true
        (vector_matches (fun () -> Step.config ~sampler:(Sampler.nat_bound nat) defs) p))
    [
      ("sliding-window w=2 network", sw.Models.Sliding_window.defs, 2,
       sw.Models.Sliding_window.network);
      ("sliding-window w=2 system", sw.Models.Sliding_window.defs, 2,
       sw.Models.Sliding_window.system);
      ("token-ring n=3 system", tr.Models.Token_ring.defs, 2, tr.Models.Token_ring.system);
      ("leader n=3 system", le.Models.Leader.defs, 3, le.Models.Leader.system);
      ("workers n=4", wk.Models.Workers.defs, 2, wk.Models.Workers.network);
      ("commit n=2 system", cm.Models.Commit.defs, 2, cm.Models.Commit.system);
      ("multiplier network", mu.Paper.Multiplier.defs, 2, mu.Paper.Multiplier.network);
      ("multiplier (hidden)", mu.Paper.Multiplier.defs, 2, mu.Paper.Multiplier.multiplier);
      ("philosophers-3 lefty", ph.Paper.Philosophers.defs, 3, ph.Paper.Philosophers.network);
      ("philosophers-3 symmetric", ps.Paper.Philosophers.defs, 3, ps.Paper.Philosophers.network);
      ("copier network", Paper.Copier.defs, 2, Paper.Copier.network);
      ("protocol network", Paper.Protocol.defs, 2, Paper.Protocol.network);
      ("protocol (hidden wire)", Paper.Protocol.defs, 2, Paper.Protocol.protocol);
      ("copier chain-4 (Hide-topped)", chain_defs, 2, chain);
    ]

let parse_defs src =
  match Csp_syntax.Parser.parse_file src with
  | Ok f -> f.Csp_syntax.Parser.defs
  | Error e -> Alcotest.failf "parse: %s" e

let check_vector ?(nat = 2) label src main =
  let defs = parse_defs src in
  Alcotest.(check bool) label true
    (vector_matches
       (fun () -> Step.config ~sampler:(Sampler.nat_bound nat) defs)
       (Process.ref_ main))

(* The root is a leaf whose successor is [Par]-topped: the skeleton
   grows by re-decomposition after the first move. *)
let test_vector_prefix_before_par () =
  check_vector "prefix before the Par"
    "p = a!0 -> b!1 -> p\n\
     q = b?x:{0..1} -> c!x -> q\n\
     net = go!0 -> (p [ {a, b} || {b, c} ] q)\n"
    "net"

(* [x]'s successor is [Par]-topped, and the grafted state is reached by
   two paths (a then b, b then a): both must land on one key. *)
let test_vector_two_paths () =
  let src =
    "u = c!0 -> u\n\
     v = d!0 -> v\n\
     n = u [ {c} || {d} ] v\n\
     x = a!0 -> n | a!1 -> (u [ {c} || {d} ] v)\n\
     y = b!0 -> STOP\n\
     main = x [ {a, c, d} || {b} ] y\n"
  in
  check_vector "grafted state reached by two paths" src "main";
  let defs = parse_defs src in
  let cfg = Step.config ~sampler:(Sampler.nat_bound 2) defs in
  Alcotest.(check int) "one state per term"
    (Lts.num_states (interpreted cfg (Process.ref_ "main")))
    (Lts.num_states (Lts.explore cfg (Process.ref_ "main")))

(* The sender's value lies outside the nat-bound-2 sample: only the
   passive side's [sync_on] (any declared value) lets the pair move. *)
let test_vector_input_beyond_sample () =
  check_vector "input sync beyond the sample"
    "s = c!5 -> s\n\
     r = c?x:NAT -> d!x -> r\n\
     main = s [ {c} || {c, d} ] r\n"
    "main"

(* Self-loops on both sides reach the same term: the interpreter keeps
   one transition, and so must the change lists (no-op changes are
   dropped, or the two derivations would look different). *)
let test_vector_self_loops () =
  let src =
    "p = tick!0 -> p\n\
     q = tick!0 -> q\n\
     shared = p [ {tick} || {tock} ] q\n\
     apart = p [ {a} || {b} ] q\n"
  in
  check_vector "self-loop, partner syncs" src "shared";
  check_vector "self-loops, neither alphabet" src "apart"

(* Unguarded recursion below a Par raises as the interpreter does. *)
let test_vector_unproductive () =
  let defs = parse_defs "loop = loop\nmain = a!0 -> STOP [ {a} || {b} ] loop\n" in
  let outcome f =
    match f () with
    | (_ : Compiled.raw) -> None
    | exception Step.Unproductive n -> Some n
  in
  let cfg () = Step.config ~sampler:(Sampler.nat_bound 2) defs in
  let p = Process.ref_ "main" in
  let by_interpreter = outcome (fun () -> interpreted_raw (cfg ()) p)
  and by_vector = outcome (fun () -> Compiled.explore (cfg ()) (Proc.intern p)) in
  Alcotest.(check (option string)) "interpreter raises" (Some "loop") by_interpreter;
  Alcotest.(check (option string)) "vector raises the same" by_interpreter by_vector

(* ---- determinism across domain counts -------------------------------- *)

let test_philosophers_identical_any_domains () =
  let ph = Paper.Philosophers.make ~n:3 ~left_handed_last:false () in
  let fresh_cfg () =
    Step.config ~sampler:(Sampler.nat_bound 3) ph.Paper.Philosophers.defs
  in
  let net = ph.Paper.Philosophers.network in
  let seq = interpreted ~max_states:5000 (fresh_cfg ()) net in
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
  let seq = interpreted ~max_states:5 (cfg ()) p in
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
  let seq = interpreted ~max_states:2000 cfg Paper.Protocol.network in
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

(* Every k from 1 to (states + 1), through every way of running the
   loop: the interpreter rows and the vector rows on a fresh table, a
   replay over a fully compiled table and one over a budget-1 table
   (each replay also grows it by fallbacks).  [full] is the
   interpreter's; [bound] caps it for open-ended scenarios. *)
let truncation_pinned ?(bound = 5000) mk_cfg p =
  let full = interpreted ~max_states:bound (mk_cfg ()) p in
  let ks = List.init (min (Lts.num_states full + 1) bound) (fun i -> i + 1) in
  let by_interpreter k = interpreted ~max_states:k (mk_cfg ()) p in
  let by_vector k = Lts.explore ~max_states:k (mk_cfg ()) p in
  let replay budget =
    let cfg = mk_cfg () in
    let compiled = Compiled.compile ?budget cfg p in
    fun k -> Lts.explore ~max_states:k ~compiled cfg p
  in
  List.for_all
    (fun explore -> List.for_all (fun k -> restriction_of full k (explore k)) ks)
    [ by_interpreter; by_vector; replay None; replay (Some 1) ]

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
      ( "vector",
        [
          vector_qcheck;
          Alcotest.test_case "Models and Paper presets" `Quick test_vector_presets;
          Alcotest.test_case "prefix before the Par" `Quick
            test_vector_prefix_before_par;
          Alcotest.test_case "grafted state reached by two paths" `Quick
            test_vector_two_paths;
          Alcotest.test_case "input sync beyond the sample" `Quick
            test_vector_input_beyond_sample;
          Alcotest.test_case "self-loops fold into one transition" `Quick
            test_vector_self_loops;
          Alcotest.test_case "unguarded recursion raises" `Quick
            test_vector_unproductive;
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
