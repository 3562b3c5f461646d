module Event = Csp_trace.Event
module Proc = Csp_lang.Proc
module Obs = Csp_obs.Obs

let compiles = Obs.Counter.make "compiled.compiles"
let states_compiled = Obs.Counter.make "compiled.states"
let fallback_rows = Obs.Counter.make "compiled.fallbacks"
let compile_ms_gauge = Obs.Gauge.make "compiled.compile_ms"
let compile_timer = Obs.Timer.make "compiled.compile"

module Int_tbl = Hashtbl.Make (Int)

(* The flat automaton.  State ids are dense ints in BFS discovery
   order from the root; successor rows live in one shared packed pool
   (CSR layout: [row_off]/[row_len] slice [pk_*]).  [row_off.(s) = -1]
   marks a state whose row is not materialised yet.  All arrays are
   amortised-doubling growable (OCaml 5.1 has no Dynarray).  Event ids
   are the {!Vector} context's. *)
type t = {
  cfg : Step.config;
  mutable nodes : Proc.t array;  (* state id -> interned node *)
  mutable n_states : int;
  cid_of : int Int_tbl.t;  (* node id -> state id *)
  vec : Vector.t;
  vid_of : int Vector.Tbl.t;  (* canonical form -> state id *)
  mutable vecs : Vector.state option array;  (* state id -> canonical form *)
  mutable row_off : int array;
  mutable row_len : int array;
  mutable pk_event : int array;
  mutable pk_target : int array;
  mutable pk_visible : Bytes.t;
  mutable pk_len : int;
  mutable n_fallbacks : int;
  mutable ms : float;
}

let root t = t.nodes.(0)
let config t = t.cfg
let n_states t = t.n_states
let n_transitions t = t.pk_len
let n_events t = Vector.n_events t.vec
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
    t.row_len <- grow_int t.row_len n 0;
    t.vecs <- grow_int t.vecs n None
  end

let ensure_pool t n =
  if n > Array.length t.pk_event then begin
    t.pk_event <- grow_int t.pk_event n 0;
    t.pk_target <- grow_int t.pk_target n 0;
    let b = Bytes.make (max n (2 * Bytes.length t.pk_visible)) '\000' in
    Bytes.blit t.pk_visible 0 b 0 t.pk_len;
    t.pk_visible <- b
  end

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

(* The canonical form of a state: recorded when the state was reached
   through a vector row, else decomposed once from its node. *)
let vector_of t s =
  match t.vecs.(s) with
  | Some v -> v
  | None ->
    let v = Vector.decompose t.vec t.nodes.(s) in
    t.vecs.(s) <- Some v;
    Vector.Tbl.replace t.vid_of v s;
    v

(* A vector-row target of source [src]: a table lookup; the [Proc.t]
   is built once, when the state is new, sharing [src]'s subterms. *)
let intern_vector t (src, u) v =
  match Vector.Tbl.find_opt t.vid_of v with
  | Some s -> s
  | None ->
    let s = intern_state t (Vector.build ~like:(src, u) v) in
    t.vecs.(s) <- Some v;
    Vector.Tbl.add t.vid_of v s;
    s

(* Pack one state's row of (event id, visibility, target id) triples
   into the parallel pools, so the row is three cache-friendly int
   walks at query time. *)
let append_row t s row =
  let len = List.length row in
  ensure_pool t (t.pk_len + len);
  t.row_off.(s) <- t.pk_len;
  t.row_len.(s) <- len;
  List.iter
    (fun (eid, vis, target) ->
      let k = t.pk_len in
      t.pk_event.(k) <- eid;
      t.pk_target.(k) <- target;
      Bytes.set t.pk_visible k
        (match (vis : Step.visibility) with
        | Step.Visible -> '\001'
        | Step.Hidden -> '\000');
      t.pk_len <- k + 1)
    row

(* The row source of the loop: [successors] when given (a function of
   the state alone, on its node), else the state's vector row.  Target
   ids are assigned in row order either way. *)
let row_source ?successors t =
  match successors with
  | Some get ->
    fun s ->
      append_row t s
        (List.map
           (fun (e, vis, q) -> (Vector.event_id t.vec e, vis, intern_state t q))
           (get t.nodes.(s)))
  | None ->
    fun s ->
      let u = vector_of t s in
      let src = (t.nodes.(s), u) in
      append_row t s
        (List.map
           (fun (eid, vis, v) -> (eid, vis, intern_vector t src v))
           (Vector.successors t.vec u))

(* A row materialised after {!compile} returned: a fallback, and the
   ids it assigns are compiled states too. *)
let as_fallback t row s =
  t.n_fallbacks <- t.n_fallbacks + 1;
  Obs.Counter.incr fallback_rows;
  let before = t.n_states in
  row s;
  Obs.Counter.add states_compiled (t.n_states - before)

let materialise t s = if t.row_off.(s) < 0 then as_fallback t (row_source t) s

let create cfg (root : Proc.t) =
  let t =
    {
      cfg;
      nodes = Array.make 64 root;
      n_states = 0;
      cid_of = Int_tbl.create 64;
      vec = Vector.create cfg;
      vid_of = Vector.Tbl.create 64;
      vecs = Array.make 64 None;
      row_off = Array.make 64 (-1);
      row_len = Array.make 64 0;
      pk_event = Array.make 256 0;
      pk_target = Array.make 256 0;
      pk_visible = Bytes.make 256 '\000';
      pk_len = 0;
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
            Vector.event t.vec t.pk_event.(k),
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

let run ~max_states ?successors ~fallback t =
  let row = row_source ?successors t in
  let row = if fallback then as_fallback t row else row in
  project t (bfs ~max_states ~count:true ~row t)

let explore ?(max_states = 2000) ?successors cfg root =
  Obs.span ~cat:"explore" "explore"
    ~args:(fun () -> [ ("max_states", Obs.Int max_states) ])
  @@ fun () -> run ~max_states ?successors ~fallback:false (create cfg root)

let explore_raw ?(max_states = 2000) t =
  Obs.span ~cat:"explore" "explore-compiled"
    ~args:(fun () -> [ ("max_states", Obs.Int max_states) ])
  @@ fun () -> run ~max_states ~fallback:true t

(* A compile is the same loop run to [budget] states without counting
   as an exploration: it materialises the rows of the first [budget]
   states in BFS order, and assigns ids to their targets. *)
let compile ?(budget = 200_000) cfg p =
  Obs.Counter.incr compiles;
  Obs.span ~cat:"compiled" "compile"
    ~args:(fun () -> [ ("budget", Obs.Int budget) ])
  @@ fun () ->
  let t0 = Obs.now_ns () in
  let t = create cfg (Proc.intern p) in
  if budget > 0 then
    ignore (bfs ~max_states:budget ~count:false ~row:(row_source t) t);
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
      ( Vector.event t.vec t.pk_event.(k),
        (if Bytes.get t.pk_visible k = '\000' then Step.Hidden
         else Step.Visible),
        t.nodes.(t.pk_target.(k)) ))

let transitions_i t q =
  match Int_tbl.find_opt t.cid_of (Proc.id q) with
  | None -> Step.transitions_i t.cfg q
  | Some s ->
    materialise t s;
    row_transitions t s
