module Event = Csp_trace.Event
module Proc = Csp_lang.Proc
module Pool = Csp_parallel.Pool
module Obs = Csp_obs.Obs

let compiles = Obs.Counter.make "compiled.compiles"
let states_compiled = Obs.Counter.make "compiled.states"
let fallback_rows = Obs.Counter.make "compiled.fallbacks"
let compile_ms_gauge = Obs.Gauge.make "compiled.compile_ms"
let compile_timer = Obs.Timer.make "compiled.compile"

module Int_tbl = Hashtbl.Make (Int)

module Event_tbl = Hashtbl.Make (struct
  type t = Event.t

  let equal = Event.equal
  let hash = Event.hash
end)

(* The flat automaton.  State ids are dense ints in BFS discovery
   order from the root; successor rows live in one shared packed pool
   (CSR layout: [row_off]/[row_len] slice [pk_*]).  [row_off.(s) = -1]
   marks a state whose row is not materialised yet.  All arrays are
   amortised-doubling growable (OCaml 5.1 has no Dynarray). *)
type t = {
  cfg : Step.config;
  mutable nodes : Proc.t array;  (* state id -> interned node *)
  mutable n_states : int;
  cid_of : int Int_tbl.t;  (* node id -> state id *)
  mutable row_off : int array;
  mutable row_len : int array;
  mutable pk_event : int array;
  mutable pk_target : int array;
  mutable pk_visible : Bytes.t;
  mutable pk_len : int;
  mutable events : Event.t array;
  mutable n_events : int;
  eid_of : int Event_tbl.t;
  mutable n_fallbacks : int;
  mutable ms : float;
}

let root t = t.nodes.(0)
let config t = t.cfg
let n_states t = t.n_states
let n_transitions t = t.pk_len
let n_events t = t.n_events
let fallbacks t = t.n_fallbacks
let compile_ms t = t.ms

let n_rows t =
  let n = ref 0 in
  for s = 0 to t.n_states - 1 do
    if t.row_off.(s) >= 0 then incr n
  done;
  !n

let grow_int a len fill =
  let b = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_states t n =
  if n > Array.length t.nodes then begin
    t.nodes <- grow_int t.nodes n t.nodes.(0);
    t.row_off <- grow_int t.row_off n (-1);
    t.row_len <- grow_int t.row_len n 0
  end

let ensure_pool t n =
  if n > Array.length t.pk_event then begin
    t.pk_event <- grow_int t.pk_event n 0;
    t.pk_target <- grow_int t.pk_target n 0;
    let b = Bytes.make (max n (2 * Bytes.length t.pk_visible)) '\000' in
    Bytes.blit t.pk_visible 0 b 0 t.pk_len;
    t.pk_visible <- b
  end

let intern_event t e =
  match Event_tbl.find_opt t.eid_of e with
  | Some i -> i
  | None ->
    let i = t.n_events in
    if i >= Array.length t.events then t.events <- grow_int t.events (i + 1) e;
    t.events.(i) <- e;
    Event_tbl.add t.eid_of e i;
    t.n_events <- i + 1;
    i

let intern_state t (q : Proc.t) =
  match Int_tbl.find_opt t.cid_of (Proc.id q) with
  | Some s -> s
  | None ->
    let s = t.n_states in
    ensure_states t (s + 1);
    t.nodes.(s) <- q;
    t.row_off.(s) <- -1;
    t.row_len.(s) <- 0;
    Int_tbl.add t.cid_of (Proc.id q) s;
    t.n_states <- s + 1;
    s

(* Pack one state's transition list.  Target interning may assign
   fresh ids (and grow the state arrays); event/visibility/target go
   into parallel pools so the row is three cache-friendly int walks at
   query time. *)
let append_row t s ts =
  let len = List.length ts in
  ensure_pool t (t.pk_len + len);
  t.row_off.(s) <- t.pk_len;
  t.row_len.(s) <- len;
  List.iter
    (fun (e, vis, q') ->
      let k = t.pk_len in
      t.pk_event.(k) <- intern_event t e;
      t.pk_target.(k) <- intern_state t q';
      Bytes.set t.pk_visible k
        (match (vis : Step.visibility) with
        | Step.Visible -> '\001'
        | Step.Hidden -> '\000');
      t.pk_len <- k + 1)
    ts

(* A row materialised after {!compile} returned: a fallback, and the
   ids it assigns are compiled states too. *)
let append_fallback t s ts =
  t.n_fallbacks <- t.n_fallbacks + 1;
  Obs.Counter.incr fallback_rows;
  let before = t.n_states in
  append_row t s ts;
  Obs.Counter.add states_compiled (t.n_states - before)

let materialise t s =
  if t.row_off.(s) < 0 then
    append_fallback t s (Step.transitions_i t.cfg t.nodes.(s))

let create cfg (root : Proc.t) =
  let t =
    {
      cfg;
      nodes = Array.make 64 root;
      n_states = 0;
      cid_of = Int_tbl.create 64;
      row_off = Array.make 64 (-1);
      row_len = Array.make 64 0;
      pk_event = Array.make 256 0;
      pk_target = Array.make 256 0;
      pk_visible = Bytes.make 256 '\000';
      pk_len = 0;
      events = Array.make 16 (Event.vi "compiled-sentinel" 0);
      n_events = 0;
      eid_of = Event_tbl.create 16;
      n_fallbacks = 0;
      ms = 0.0;
    }
  in
  ignore (intern_state t root);
  t

(* ---- the explorer ------------------------------------------------------ *)

(* Telemetry (observation only — never read back into exploration). *)
let layers_explored = Obs.Counter.make "lts.layers"
let states_numbered = Obs.Counter.make "lts.states"

(* The one exploration loop.  A FIFO over numbered states: [order]
   (number -> table id) is itself the queue, so states are expanded in
   discovery order, i.e. BFS layer order.  A state whose row the table
   lacks gets it from [row] first.  Row targets are numbered in row
   order until [max_states] states are numbered; then numbering stops.
   That is the whole definition of truncation — {!project} reads the
   recorded transitions and the truncated states off the numbering.
   The root is always numbered.  [count] attributes numbered states
   and BFS layers to the [lts.*] counters: a compile pass is not an
   exploration.  Returns the numbering: [order], its length, and
   [visited] (table id -> number, -1 = unnumbered). *)
let bfs ~max_states ~count ~row t =
  let visited = ref (Array.make (max 64 t.n_states) (-1)) in
  let order = ref (Array.make 64 0) in
  let n = ref 0 in
  let number s =
    (!visited).(s) <- !n;
    if !n >= Array.length !order then order := grow_int !order (!n + 1) 0;
    (!order).(!n) <- s;
    incr n;
    if count then Obs.Counter.incr states_numbered
  in
  number 0;
  (* a layer starts at the first state numbered after the previous
     layer filled up *)
  let head = ref 0 and layer_start = ref 0 and layer_end = ref 1 in
  while !head < !n do
    let i = !head in
    let s = (!order).(i) in
    incr head;
    if count && i = !layer_start then Obs.Counter.incr layers_explored;
    if t.row_off.(s) < 0 then row s;
    if t.n_states > Array.length !visited then
      visited := grow_int !visited t.n_states (-1);
    let k = ref t.row_off.(s) in
    let stop = !k + t.row_len.(s) in
    while !k < stop && !n < max_states do
      if (!visited).(t.pk_target.(!k)) < 0 then number t.pk_target.(!k);
      incr k
    done;
    if i + 1 = !layer_end && !n > !layer_end then begin
      layer_start := !layer_end;
      layer_end := !n
    end
  done;
  (!order, !n, !visited)

type raw = {
  raw_initial : int;
  raw_states : Proc.t array;
  raw_transitions : (int * Event.t * bool * int) list;
  raw_complete : bool;
  raw_truncated : bool array;
}

(* The numbered part of the table as an exploration: a row edge is
   recorded iff both its endpoints are numbered; a numbered state with
   an edge to an unnumbered target is truncated (it has a move the
   exploration dropped, so it must not read as a deadlock); the
   exploration is complete iff no state is truncated. *)
let project t (order, n, visited) =
  let truncated = Array.make n false in
  let transitions = ref [] in
  for i = n - 1 downto 0 do
    let off = t.row_off.(order.(i)) in
    for k = off + t.row_len.(order.(i)) - 1 downto off do
      let j = visited.(t.pk_target.(k)) in
      if j >= 0 then
        transitions :=
          ( i,
            t.events.(t.pk_event.(k)),
            Bytes.get t.pk_visible k <> '\000',
            j )
          :: !transitions
      else truncated.(i) <- true
    done
  done;
  {
    raw_initial = 0;
    raw_states = Array.init n (fun i -> t.nodes.(order.(i)));
    raw_transitions = !transitions;
    raw_complete = not (Array.exists Fun.id truncated);
    raw_truncated = truncated;
  }

(* Rows the table lacks come from [successors] when given, else from
   the interpreter — at more than one domain through a speculative
   {!Frontier} session, opened at the first missing row, so a replay
   over rows that all exist never starts one.  [cap] bounds what
   speculation may claim. *)
let with_successors ?pool ?successors ~cap t f =
  match (successors, pool) with
  | Some get, _ -> f get
  | None, Some pool when Pool.domains pool > 1 ->
    let session = ref None in
    let get q =
      let fs =
        match !session with
        | Some fs -> fs
        | None ->
          let fs = Frontier.start ~pool ~cap t.cfg in
          session := Some fs;
          Frontier.prefetch fs q;
          fs
      in
      Frontier.get fs q
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Frontier.stop !session)
      (fun () -> f get)
  | None, _ -> f (Step.transitions_i t.cfg)

let run ~max_states ?pool ?successors ~fallback t =
  with_successors ?pool ?successors ~cap:max_states t @@ fun get ->
  let row s =
    let ts = get t.nodes.(s) in
    if fallback then append_fallback t s ts else append_row t s ts
  in
  project t (bfs ~max_states ~count:true ~row t)

let explore ?(max_states = 2000) ?pool ?successors cfg root =
  Obs.span ~cat:"explore" "explore"
    ~args:(fun () -> [ ("max_states", Obs.Int max_states) ])
  @@ fun () -> run ~max_states ?pool ?successors ~fallback:false (create cfg root)

let explore_raw ?(max_states = 2000) ?pool t =
  Obs.span ~cat:"explore" "explore-compiled"
    ~args:(fun () -> [ ("max_states", Obs.Int max_states) ])
  @@ fun () -> run ~max_states ?pool ~fallback:true t

(* A compile is the same loop run to [budget] states without counting
   as an exploration: it materialises the rows of the first [budget]
   states in BFS order, and assigns ids to their targets. *)
let compile ?(budget = 200_000) ?pool cfg p =
  Obs.Counter.incr compiles;
  Obs.span ~cat:"compiled" "compile"
    ~args:(fun () -> [ ("budget", Obs.Int budget) ])
  @@ fun () ->
  let t0 = Obs.now_ns () in
  let t = create cfg (Proc.intern p) in
  if budget > 0 then
    with_successors ?pool ~cap:budget t (fun get ->
        ignore
          (bfs ~max_states:budget ~count:false
             ~row:(fun s -> append_row t s (get t.nodes.(s)))
             t));
  Obs.Counter.add states_compiled t.n_states;
  let ms = (Obs.now_ns () -. t0) /. 1e6 in
  t.ms <- ms;
  Obs.Gauge.set compile_ms_gauge ms;
  Obs.Timer.observe_ns compile_timer (ms *. 1e6);
  t

let row_transitions t s =
  let off = t.row_off.(s) in
  List.init t.row_len.(s) (fun i ->
      let k = off + i in
      ( t.events.(t.pk_event.(k)),
        (if Bytes.get t.pk_visible k = '\000' then Step.Hidden
         else Step.Visible),
        t.nodes.(t.pk_target.(k)) ))

let transitions_i t q =
  match Int_tbl.find_opt t.cid_of (Proc.id q) with
  | None -> Step.transitions_i t.cfg q
  | Some s ->
    materialise t s;
    row_transitions t s
