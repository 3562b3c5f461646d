module Event = Csp_trace.Event
module Channel = Csp_trace.Channel
module Process = Csp_lang.Process
module Proc = Csp_lang.Proc
module Obs = Csp_obs.Obs

type state = int

type transition = {
  source : state;
  event : Event.t;
  visible : bool;
  target : state;
}

type t = {
  initial : state;
  states : Process.t array;
  transitions : transition list;
  complete : bool;
  n_transitions : int;
  truncated : bool array;
}

let make ?truncated ~initial ~states ~transitions ~complete () =
  let truncated =
    match truncated with
    | Some a -> a
    | None -> Array.make (Array.length states) false
  in
  {
    initial;
    states;
    transitions;
    complete;
    n_transitions = List.length transitions;
    truncated;
  }

(* The one explorer lives in {!Compiled}: it numbers states over a
   flat table, and its raw result carries the same fields in the same
   discovery order; packaging it is projection only. *)
let of_raw (r : Compiled.raw) =
  {
    initial = r.Compiled.raw_initial;
    states = Array.map Proc.to_process r.Compiled.raw_states;
    transitions =
      List.map
        (fun (source, event, visible, target) ->
          { source; event; visible; target })
        r.Compiled.raw_transitions;
    complete = r.Compiled.raw_complete;
    n_transitions = List.length r.Compiled.raw_transitions;
    truncated = r.Compiled.raw_truncated;
  }

(* Without a matching automaton the loop runs on a fresh table. *)
let explore ?(max_states = 2000) ?pool:_ ?compiled cfg p =
  let p = Proc.intern p in
  of_raw
    (match compiled with
    | Some c when Proc.equal (Compiled.root c) p ->
      Compiled.explore_raw ~max_states c
    | _ -> Compiled.explore ~max_states cfg p)

let num_states t = Array.length t.states
let num_transitions t = t.n_transitions
let truncated_states t = List.filter (fun i -> t.truncated.(i)) (List.init (num_states t) Fun.id)

let deadlock_states t =
  let has_out = Array.make (num_states t) false in
  List.iter (fun tr -> has_out.(tr.source) <- true) t.transitions;
  (* a state whose outgoing transitions were dropped at the state bound
     is not deadlocked — it has moves the exploration did not record *)
  List.filter
    (fun i -> (not has_out.(i)) && not t.truncated.(i))
    (List.init (num_states t) Fun.id)

module Src_event_tbl = Hashtbl.Make (struct
  type t = state * Event.t

  let equal (s1, e1) (s2, e2) = Int.equal s1 s2 && Event.equal e1 e2
  let hash (s, e) = ((s * 31) + Event.hash e) land max_int
end)

let is_deterministic t =
  let seen = Src_event_tbl.create 64 in
  List.for_all
    (fun tr ->
      (not tr.visible)
      ||
      let key = (tr.source, tr.event) in
      match Src_event_tbl.find_opt seen key with
      | Some target -> Int.equal target tr.target
      | None ->
        Src_event_tbl.add seen key tr.target;
        true)
    t.transitions

let reachable_channels t =
  let seen = ref Channel.Set.empty and out = ref [] in
  List.iter
    (fun tr ->
      let c = tr.event.Event.chan in
      if not (Channel.Set.mem c !seen) then begin
        seen := Channel.Set.add c !seen;
        out := c :: !out
      end)
    t.transitions;
  List.rev !out

let dot_escape s = String.concat "\\\"" (String.split_on_char '"' s)

(* Deterministic ordering for DOT output: BFS numbering is already a
   function of the process alone, and edges are emitted sorted — so
   the same process yields byte-identical graphs across runs. *)
let transition_compare a b =
  let c = Int.compare a.source b.source in
  if c <> 0 then c
  else
    let c = Int.compare a.target b.target in
    if c <> 0 then c
    else
      let c = Event.compare a.event b.event in
      if c <> 0 then c else Bool.compare a.visible b.visible

let to_dot ?(name = "lts") t =
  Obs.span ~cat:"export" "to_dot"
    ~args:(fun () -> [ ("states", Obs.Int (num_states t)) ])
  @@ fun () ->
  let buf = Buffer.create 1024 in
  let n = num_states t in
  let dead = Array.make n false in
  List.iter (fun i -> dead.(i) <- true) (deadlock_states t);
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=LR;\n" name);
  Buffer.add_string buf
    (Printf.sprintf "  n%d [style=bold];\n" t.initial);
  for i = 0 to n - 1 do
    if dead.(i) then
      Buffer.add_string buf (Printf.sprintf "  n%d [shape=doublecircle];\n" i)
  done;
  (* truncated states are drawn dashed: their outgoing edges were cut
     at the state bound, so the picture under-reports their moves *)
  for i = 0 to n - 1 do
    if t.truncated.(i) then
      Buffer.add_string buf
        (Printf.sprintf "  n%d [shape=circle, style=dashed];\n" i)
  done;
  Array.iteri
    (fun i _ ->
      if (not dead.(i)) && (not t.truncated.(i)) && i <> t.initial then
        Buffer.add_string buf (Printf.sprintf "  n%d [shape=circle];\n" i))
    t.states;
  List.iter
    (fun tr ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%s\"%s];\n" tr.source tr.target
           (dot_escape (Event.to_string tr.event))
           (if tr.visible then "" else ", style=dashed")))
    (List.sort transition_compare t.transitions);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
