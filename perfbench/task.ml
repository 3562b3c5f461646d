(* One benchmark task per process.

   [task.exe render DIR] writes the rendered model inputs to DIR and
   parse-checks them together with the example files (the set-up step).

   [task.exe run TASK --inputs DIR [--trace] [--spawn-s T]] runs one task
   the way the matching one-shot [cspc] subcommand does — same library
   calls, same order — and prints one JSON line with its verdict and the
   facts the known-answer table is checked against.  With [--trace],
   each call into a library module is wrapped in a span and its counter
   movement is taken with [Obs.delta_snapshot]; the spans, deltas and GC
   totals are added to the JSON line.  [--spawn-s] is the parent's
   wall-clock time at spawn: span times are given relative to it, so the
   process start-up before [main] is attributed too.

   Paths are relative to the repository root, where [examples/] is. *)

open Csp
module Parser = Csp_syntax.Parser
module Printer = Csp_syntax.Printer
module Json = Csp_persist.Json
module Family = Abstraction.Family

(* ---- spans ------------------------------------------------------------ *)

let tracing = ref false

type span = {
  sid : int;
  parent : int;
  name : string;
  t0 : float;
  mutable t1 : float;
  mutable deltas : (string * int) list;
}

let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let now () = Unix.gettimeofday ()

(* [call name f]: run [f] as one call into a library layer.  Untraced it
   is [f ()]; traced it records a span (parent = the enclosing call) and,
   unless [deltas] is false, the counters [f] moved.  [Obs.delta_snapshot]
   does not nest, so only leaf calls take deltas. *)
let call ?(deltas = true) name f =
  if not !tracing then f ()
  else begin
    let sid = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { sid; parent; name; t0 = now (); t1 = 0.; deltas = [] } in
    stack := sid :: !stack;
    let finish () =
      s.t1 <- now ();
      stack := List.tl !stack;
      spans := s :: !spans
    in
    match if deltas then Obs.delta_snapshot f else (f (), []) with
    | r, moved ->
      s.deltas <- moved;
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* ---- inputs ----------------------------------------------------------- *)

(* Every rendered file defines its processes under fixed names:
   [net] the network, [sys] the concealed system and [spec] the
   reference behaviour (where the model has them). *)
let render_defs ?(extra = []) defs procs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printer.defs defs);
  Buffer.add_char buf '\n';
  List.iter
    (fun (n, p) -> Buffer.add_string buf (Printf.sprintf "%s = %s\n" n (Printer.process p)))
    procs;
  List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) extra;
  Buffer.contents buf

let rendered () =
  let workers n =
    let m = Models.Workers.make ~n in
    render_defs m.Models.Workers.defs [ ("net", m.Models.Workers.network) ]
  in
  let phils ~lefty n =
    let m = Paper.Philosophers.make ~left_handed_last:lefty ~n () in
    render_defs m.Paper.Philosophers.defs [ ("net", m.Paper.Philosophers.network) ]
  in
  let commit n =
    let m = Models.Commit.make ~n in
    render_defs m.Models.Commit.defs
      [
        ("net", m.Models.Commit.network);
        ("sys", m.Models.Commit.system);
        ("spec", m.Models.Commit.spec);
      ]
  in
  let ring n =
    let m = Models.Token_ring.make ~n in
    render_defs m.Models.Token_ring.defs
      [
        ("net", m.Models.Token_ring.network);
        ("sys", m.Models.Token_ring.system);
        ("spec", m.Models.Token_ring.spec);
      ]
  in
  let window w =
    let m = Models.Sliding_window.make ~w in
    render_defs m.Models.Sliding_window.defs
      [ ("sys", m.Models.Sliding_window.system); ("spec", m.Models.Sliding_window.spec) ]
  in
  let chain n =
    let defs, net = Paper.Copier.chain_defs n in
    render_defs defs [ ("net", net) ]
  in
  [
    ("workers-10.csp", workers 10);
    ("workers-12.csp", workers 12);
    ("chain-7.csp", chain 7);
    ("phil-5-lefty.csp", phils ~lefty:true 5);
    ("phil-5-sym.csp", phils ~lefty:false 5);
    ("phil-4-lefty.csp", phils ~lefty:true 4);
    ("commit-6.csp", commit 6);
    ("commit-4.csp", commit 4);
    ("ring-10.csp", ring 10);
    ("window-2.csp", window 2);
    ("window-3.csp", window 3);
    ( "copier.csp",
      render_defs Paper.Copier.defs [] ~extra:[ "assert copier sat input <= output" ] );
  ]

let examples_dir = "examples"
let examples = [ "protocol.csp"; "multiplier.csp"; "sliding_window.csp" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () -> output_string oc s

let parse_or_fail path text =
  match Parser.parse_file text with
  | Ok f -> f
  | Error m -> failwith (Printf.sprintf "%s: %s" path m)

let render dir =
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  List.iter
    (fun (name, text) ->
      let path = Filename.concat dir name in
      write_file path text;
      ignore (parse_or_fail path (read_file path)))
    (rendered ());
  List.iter
    (fun name ->
      let path = Filename.concat examples_dir name in
      ignore (parse_or_fail path (read_file path)))
    examples

(* ---- tasks ------------------------------------------------------------ *)

(* A task's answer: its verdict class plus the facts the known-answer
   table checks, and the lines a user would read. *)
type answer = { verdict : string; facts : (string * Json.t) list; lines : string list }

(* [inp] is the directory of the rendered inputs. *)
let load inp name =
  let path = Filename.concat (if List.mem name examples then examples_dir else inp) name in
  let text = call "io.read" (fun () -> read_file path) in
  let file = call "syntax.parse" (fun () -> parse_or_fail path text) in
  (file, String.length text)

let proc file name =
  match Defs.lookup file.Parser.defs name with
  | Some _ -> Process.ref_ name
  | None -> failwith ("process " ^ name ^ " is not defined")

(* As [cspc graph FILE -p net --nat N --max-states M]. *)
let graph inp file_name ~nat_bound ~max_states =
  let file, bytes = load inp file_name in
  let p = proc file "net" in
  let eng = call "engine.create" (fun () -> Engine.create ~nat_bound file.Parser.defs) in
  let compiled = call "compiled.compile" (fun () -> Engine.compile ~budget:max_states eng p) in
  let lts =
    call "lts.explore" (fun () ->
        Lts.explore ~max_states ?pool:(Engine.pool eng) ~compiled (Engine.step_config eng) p)
  in
  let deadlocks, complete =
    call "lts.verdict" (fun () -> (List.length (Lts.deadlock_states lts), lts.Lts.complete))
  in
  let verdict =
    if deadlocks > 0 then "deadlock" else if complete then "deadlock-free" else "undecided"
  in
  {
    verdict;
    facts =
      [
        ("states", Json.int (Lts.num_states lts));
        ("transitions", Json.int (Lts.num_transitions lts));
        ("deadlocks", Json.int deadlocks);
        ("complete", Json.Bool complete);
        ("source_bytes", Json.int bytes);
      ];
    lines =
      [
        Printf.sprintf "%d states, %d transitions%s; deadlock states: %d" (Lts.num_states lts)
          (Lts.num_transitions lts)
          (if complete then "" else " (truncated)")
          deadlocks;
      ];
  }

let tables_of file =
  let invariants =
    List.filter_map
      (function Parser.Assert_plain (n, a) -> Some (n, a) | _ -> None)
      file.Parser.decls
  in
  let array_invariants =
    List.filter_map
      (function Parser.Assert_array (q, x, m, a) -> Some (q, (x, m, a)) | _ -> None)
      file.Parser.decls
  in
  Tactic.tables ~invariants ~array_invariants ()

(* Traced, the proof is still the one call [cspc prove] makes,
   [Tactic.prove_and_check], in a span of its own.  Its checking share
   comes from the [check] spans [Check.check] records itself: Obs is
   switched on for the call only, and each of those spans becomes a
   [proof.check] child, so the call's self time is the search.  Obs
   gives event times from an origin it does not export; it is found
   from an enclosing span whose start is also read with [Obs.now_ns]. *)
let prove_traced ~tables ctx j =
  Obs.clear_events ();
  Obs.set_enabled true;
  let a0 = ref 0. in
  let r =
    Fun.protect ~finally:(fun () -> Obs.set_enabled false) @@ fun () ->
    call "proof.prove" (fun () ->
        a0 := Obs.now_ns ();
        Obs.span ~cat:"perfbench" "prove" (fun () -> Tactic.prove_and_check ~tables ctx j))
  in
  let parent = (List.hd !spans).sid in
  let evs = Obs.events () in
  (match List.find_opt (fun e -> e.Obs.cat = "perfbench") evs with
  | None -> ()
  | Some anchor ->
    let origin = !a0 -. anchor.Obs.ts_ns in
    List.iter
      (fun e ->
        if e.Obs.cat = "proof" && e.Obs.name = "check" then begin
          let sid = !next_id in
          incr next_id;
          let t0 = (origin +. e.Obs.ts_ns) /. 1e9 in
          spans :=
            { sid; parent; name = "proof.check"; t0; t1 = t0 +. (e.Obs.dur_ns /. 1e9); deltas = [] }
            :: !spans
        end)
      evs);
  Obs.clear_events ();
  r

(* As [cspc prove FILE]. *)
let prove inp file_name =
  let file, bytes = load inp file_name in
  let tables = tables_of file in
  let ctx = Sequent.context file.Parser.defs in
  let proved = ref 0 and failed = ref 0 and tested = ref 0 in
  let lines =
    List.map
      (fun decl ->
        let name, judgment =
          match decl with
          | Parser.Assert_plain (n, a) -> (n, Sequent.Holds (Process.ref_ n, a))
          | Parser.Assert_array (q, x, m, a) -> (q ^ "[]", Sequent.Holds_all (q, x, m, a))
        in
        let r =
          if !tracing then prove_traced ~tables ctx judgment
          else Tactic.prove_and_check ~tables ctx judgment
        in
        match r with
        | Ok (proof, report) ->
          incr proved;
          tested := !tested + Check.tested_obligations report;
          Printf.sprintf "PROVED %s: %d rules" name (Proof.size proof)
        | Error m ->
          incr failed;
          Printf.sprintf "FAILED %s: %s" name m)
      file.Parser.decls
  in
  {
    verdict = (if !failed = 0 then "proved" else "undecided");
    facts =
      [
        ("proved", Json.int !proved);
        ("failed", Json.int !failed);
        ("tested_obligations", Json.int !tested);
        ("source_bytes", Json.int bytes);
      ];
    lines;
  }

(* As [cspc check FILE]: every declared assertion, bounded. *)
let check inp file_name =
  let file, bytes = load inp file_name in
  let eng = call "engine.create" (fun () -> Engine.create ~nat_bound:3 file.Parser.defs) in
  let fails = ref 0 and holds = ref 0 in
  let run p a =
    match call "sat.check" (fun () -> Sat.check_engine eng p a) with
    | Sat.Fails _ as o ->
      incr fails;
      Format.asprintf "%a" Sat.pp_outcome o
    | Sat.Holds _ as o ->
      incr holds;
      Format.asprintf "%a" Sat.pp_outcome o
  in
  let lines =
    List.concat_map
      (function
        | Parser.Assert_plain (n, a) -> [ n ^ ": " ^ run (proc file n) a ]
        | Parser.Assert_array (q, x, m, a) ->
          List.map
            (fun v ->
              let p = Process.Ref (q, Some (Expr.Const v)) in
              q ^ ": " ^ run p (Assertion.subst_var x (Term.Const v) a))
            (Sampler.sample eng.Engine.sampler m))
      file.Parser.decls
  in
  {
    verdict = (if !fails > 0 then "fails" else "holds");
    facts =
      [ ("holds", Json.int !holds); ("fails", Json.int !fails); ("source_bytes", Json.int bytes) ];
    lines;
  }

(* As [cspc refine FILE sys spec --depth D]. *)
let refine inp file_name ~depth =
  let file, bytes = load inp file_name in
  let eng = call "engine.create" (fun () -> Engine.create ~depth ~nat_bound:3 file.Parser.defs) in
  let impl = proc file "sys" and spec = proc file "spec" in
  match
    call "equiv.refine" (fun () -> Equiv.trace_refines ~depth (Engine.step_config eng) ~impl ~spec)
  with
  | Ok () ->
    {
      verdict = "refines";
      facts = [ ("source_bytes", Json.int bytes) ];
      lines = [ Printf.sprintf "sys trace-refines spec up to depth %d" depth ];
    }
  | Error s ->
    {
      verdict = "not-refines";
      facts = [ ("source_bytes", Json.int bytes) ];
      lines = [ "NOT a refinement: sys allows " ^ Csp_trace.Trace.to_string s ];
    }

(* As [cspc prove --family FORMULA --model M --depth D]. *)
let family model formula ~depth =
  let fam = match Family.find model with Some f -> f | None -> failwith ("no family " ^ model) in
  let f =
    match Abstraction.Formula.of_string formula with Ok f -> f | Error m -> failwith m
  in
  match call "family.check" (fun () -> Family.check_family ~depth fam ~formula:f) with
  | Error m -> failwith m
  | Ok o ->
    {
      verdict = (if o.Family.certified then "certified" else "undecided");
      facts = [];
      lines = String.split_on_char '\n' (Format.asprintf "%a" Family.pp_outcome o);
    }

(* As [cspc parse FILE]: the cheapest one-shot command. *)
let parse inp file_name =
  let file, bytes = load inp file_name in
  {
    verdict = "parsed";
    facts =
      [
        ("definitions", Json.int (List.length (Defs.names file.Parser.defs)));
        ("assertions", Json.int (List.length file.Parser.decls));
        ("source_bytes", Json.int bytes);
      ];
    lines = [];
  }

let tasks =
  [
    ("parse-protocol", fun i -> parse i "protocol.csp");
    ("workers-10", fun i -> graph i "workers-10.csp" ~nat_bound:3 ~max_states:20000);
    ("workers-12", fun i -> graph i "workers-12.csp" ~nat_bound:3 ~max_states:20000);
    ("chain-7", fun i -> graph i "chain-7.csp" ~nat_bound:3 ~max_states:20000);
    ("phil-5-lefty", fun i -> graph i "phil-5-lefty.csp" ~nat_bound:5 ~max_states:20000);
    ("phil-5-sym", fun i -> graph i "phil-5-sym.csp" ~nat_bound:5 ~max_states:20000);
    ("commit-6", fun i -> graph i "commit-6.csp" ~nat_bound:3 ~max_states:20000);
    ("ring-10", fun i -> graph i "ring-10.csp" ~nat_bound:3 ~max_states:20000);
    ("prove-protocol", fun i -> prove i "protocol.csp");
    ("check-multiplier", fun i -> check i "multiplier.csp");
    ("prove-window", fun i -> prove i "sliding_window.csp");
    ("refine-window-2-d12", fun i -> refine i "window-2.csp" ~depth:12);
    ("refine-window-3-d12", fun i -> refine i "window-3.csp" ~depth:12);
    ("refine-commit-6-d10", fun i -> refine i "commit-6.csp" ~depth:10);
    ("family-leader-d16", fun _ -> family "leader" "n >= 2" ~depth:16);
    ("family-ring-d16", fun _ -> family "token-ring" "n >= 2" ~depth:16);
    ("family-workers-d6", fun _ -> family "workers" "n <= 64" ~depth:6);
    ("family-workers-d8", fun _ -> family "workers" "n <= 64" ~depth:8);
    ("check-copier-must-fail", fun i -> check i "copier.csp");
  ]

(* ---- output ----------------------------------------------------------- *)

(* Times are printed in microseconds since the parent's spawn time:
   small numbers, so the printer's 12 significant digits keep them
   exact to the clock's resolution. *)
let us_since spawn_s t = Json.Num ((t -. spawn_s) *. 1e6)

let span_json spawn_s s =
  Json.Obj
    [
      ("id", Json.int s.sid);
      ("parent", Json.int s.parent);
      ("name", Json.str s.name);
      ("t0_us", us_since spawn_s s.t0);
      ("t1_us", us_since spawn_s s.t1);
      ("deltas", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) s.deltas));
    ]

let run_task id inp ~spawn_s =
  let start = now () in
  let f =
    match List.assoc_opt id tasks with Some f -> f | None -> failwith ("unknown task " ^ id)
  in
  let a = call ~deltas:false "task" (fun () -> f inp) in
  let fields =
    [
      ("task", Json.str id);
      ("verdict", Json.str a.verdict);
      ("facts", Json.Obj a.facts);
      ("lines", Json.Arr (List.map Json.str a.lines));
    ]
  in
  let traced =
    if not !tracing then []
    else begin
      let g = Gc.quick_stat () in
      [
        ("main_us", us_since spawn_s start);
        ("end_us", us_since spawn_s (now ()));
        ("spans", Json.Arr (List.rev_map (span_json spawn_s) !spans));
        ( "gc",
          Json.Obj
            [
              ("minor_words", Json.Num g.Gc.minor_words);
              ("major_collections", Json.int g.Gc.major_collections);
              ( "top_heap_mb",
                Json.Num (float_of_int (g.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.) );
            ] );
      ]
    end
  in
  print_endline (Json.to_string (Json.Obj (fields @ traced)))

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  match args with
  | [ "render"; dir ] -> render dir
  | "run" :: id :: rest ->
    tracing := List.mem "--trace" rest;
    let dir = Option.value ~default:"." (opt "--inputs" rest) in
    let spawn_s = Option.fold ~none:0. ~some:float_of_string (opt "--spawn-s" rest) in
    run_task id dir ~spawn_s
  | _ ->
    prerr_endline "usage: task.exe (render DIR | run TASK --inputs DIR [--trace] [--spawn-s T])";
    exit 2
