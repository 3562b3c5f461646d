module Value = Csp_trace.Value
module Channel = Csp_trace.Channel
module Event = Csp_trace.Event
module Trace = Csp_trace.Trace
module Expr = Csp_lang.Expr
module Vset = Csp_lang.Vset
module Chan_expr = Csp_lang.Chan_expr
module Valuation = Csp_lang.Valuation
module Process = Csp_lang.Process
module Defs = Csp_lang.Defs
module Proc = Csp_lang.Proc
module Step = Csp_semantics.Step
module Lts = Csp_semantics.Lts
module Compiled = Csp_semantics.Compiled
module Obs = Csp_obs.Obs

type family = {
  name : string;
  context : Process.t option;
  replicas : (string * Process.t * (int -> int)) list;
  defs : Defs.t;
  sync_bases : string list;
  cutoff : int;
}

type count = Fin of int | Omega

type result = {
  lts : Lts.t;
  legend : (int * Process.t) list;
  quotient_states : int;
  omega_collapses : int;
}

let c_states = Obs.Counter.make "abstraction.quotient_states"
let c_collapses = Obs.Counter.make "abstraction.collapses"

(* ---- local offers, with direction ------------------------------------- *)

type dir = Send | Recv

let opposite a b =
  match (a, b) with Send, Recv | Recv, Send -> true | _ -> false

(* Communication capabilities of a sequential local process: unlike
   {!Step.transitions_i}, offers keep the send/receive distinction,
   which the pairwise rendezvous rule needs (two receives must not
   pair).  Templates are closed and index-erased, so channel and
   message expressions evaluate under the empty valuation. *)
let offers_fn ~bound ~unfold_fuel cfg =
  let cache : (int, (dir * Event.t * Proc.t) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let rec go fuel p =
    if fuel < 0 then
      raise (Step.Unproductive "Counter: unguarded family template");
    match Proc.node p with
    | Proc.Stop -> []
    | Proc.Output (ce, e, k) ->
      let c = Chan_expr.eval Valuation.empty ce in
      let v = Expr.eval Valuation.empty e in
      [ (Send, Event.make c v, k) ]
    | Proc.Input (ce, x, m, k) ->
      let c = Chan_expr.eval Valuation.empty ce in
      List.map
        (fun v -> (Recv, Event.make c v, Proc.subst_value x v k))
        (Vset.enumerate_bounded ~bound m)
    | Proc.Choice (a, b) -> go fuel a @ go fuel b
    | Proc.Ref (nm, arg) -> go (fuel - 1) (Step.unfold_i cfg nm arg)
    | Proc.Par _ | Proc.Hide _ ->
      invalid_arg "Counter: family templates must be sequential"
  in
  fun p ->
    match Hashtbl.find_opt cache (Proc.id p) with
    | Some o -> o
    | None ->
      let o = go unfold_fuel p in
      Hashtbl.add cache (Proc.id p) o;
      o

(* ---- abstract states --------------------------------------------------- *)

type astate = { actx : Proc.t option; counts : (Proc.t * count) list }

(* Exploration context: deterministic numbering of local states in
   discovery order (stable across runs, unlike the global intern ids),
   the legend, and the ω-saturation counter. *)
type ectx = {
  nums : (int, int) Hashtbl.t;  (* Proc.id → local-state number *)
  mutable legend_rev : (int * Process.t) list;
  mutable next : int;
  mutable collapses : int;
  cutoff : int;
}

let number ec p =
  match Hashtbl.find_opt ec.nums (Proc.id p) with
  | Some i -> i
  | None ->
    let i = ec.next in
    ec.next <- i + 1;
    Hashtbl.add ec.nums (Proc.id p) i;
    ec.legend_rev <- (i, Proc.to_process p) :: ec.legend_rev;
    i

let canon ec counts =
  (* number first, in list order: sort comparators run in unspecified
     order, and discovery numbering must not depend on it *)
  List.iter (fun (s, _) -> ignore (number ec s)) counts;
  List.sort (fun (a, _) (b, _) -> compare (number ec a) (number ec b)) counts

let render ec st =
  let b = Buffer.create 32 in
  Buffer.add_string b "<";
  (match st.actx with
  | Some c -> Buffer.add_string b (Printf.sprintf "c%d" (number ec c))
  | None -> Buffer.add_char b '-');
  Buffer.add_string b " |";
  List.iter
    (fun (s, cnt) ->
      Buffer.add_string b
        (Printf.sprintf " s%d^%s" (number ec s)
           (match cnt with Fin n -> string_of_int n | Omega -> "w")))
    st.counts;
  Buffer.add_string b ">";
  Buffer.contents b

(* ---- counted-multiset operations --------------------------------------- *)

let lookup s m =
  List.find_map (fun (t, c) -> if Proc.equal s t then Some c else None) m

let remove s m = List.filter (fun (t, _) -> not (Proc.equal s t)) m
let set s c m = (s, c) :: remove s m

let inc ec s m =
  match lookup s m with
  | None -> set s (Fin 1) m
  | Some (Fin n) ->
    if n + 1 > ec.cutoff then (
      ec.collapses <- ec.collapses + 1;
      set s Omega m)
    else set s (Fin (n + 1)) m
  | Some Omega -> m

(* ω − 1 is ω or exactly the cutoff: both successors are produced, so
   the abstraction stays an over-approximation whichever the concrete
   count was. *)
let dec_variants ec s m =
  match lookup s m with
  | None -> []
  | Some (Fin 1) -> [ remove s m ]
  | Some (Fin n) -> [ set s (Fin (n - 1)) m ]
  | Some Omega -> [ m; set s (Fin ec.cutoff) m ]

let available_twice = function Fin n -> n >= 2 | Omega -> true

(* decrement the same local state twice *)
let dec2_variants ec s m =
  match lookup s m with
  | None | Some (Fin 1) -> []
  | Some (Fin n) ->
    if n = 2 then [ remove s m ] else [ set s (Fin (n - 2)) m ]
  | Some Omega ->
    (* ω − 2 ∈ {ω, cutoff, cutoff − 1} (dropping counts that hit 0) *)
    [ m; set s (Fin ec.cutoff) m ]
    @
    if ec.cutoff >= 2 then [ set s (Fin (ec.cutoff - 1)) m ]
    else [ remove s m ]

(* ---- successor relation ------------------------------------------------ *)

let successors ec offers sync_bases st =
  let is_sync (ev : Event.t) =
    List.mem (Channel.base ev.Event.chan) sync_bases
  in
  let ctx_offers =
    match st.actx with Some c -> offers c | None -> []
  in
  let acc = ref [] in
  let emit ev st' = acc := (ev, st') :: !acc in
  (* solo context steps *)
  List.iter
    (fun (_, ev, k) ->
      if not (is_sync ev) then
        emit ev { st with actx = Some k })
    ctx_offers;
  (* solo replica steps *)
  List.iter
    (fun (s, _) ->
      List.iter
        (fun (_, ev, k) ->
          if not (is_sync ev) then
            List.iter
              (fun m -> emit ev { st with counts = canon ec (inc ec k m) })
              (dec_variants ec s st.counts))
        (offers s))
    st.counts;
  (* context ↔ replica rendezvous *)
  List.iter
    (fun (dc, ev, kc) ->
      if is_sync ev then
        List.iter
          (fun (s, _) ->
            List.iter
              (fun (dr, ev', kr) ->
                if is_sync ev' && Event.equal ev ev' && opposite dc dr then
                  List.iter
                    (fun m ->
                      emit ev
                        { actx = Some kc; counts = canon ec (inc ec kr m) })
                    (dec_variants ec s st.counts))
              (offers s))
          st.counts)
    ctx_offers;
  (* replica ↔ replica rendezvous, distinct local states *)
  let rec pairs = function
    | [] -> ()
    | (s1, _) :: rest ->
      List.iter
        (fun (s2, _) ->
          List.iter
            (fun (d1, ev1, k1) ->
              if is_sync ev1 then
                List.iter
                  (fun (d2, ev2, k2) ->
                    if is_sync ev2 && Event.equal ev1 ev2 && opposite d1 d2
                    then
                      List.iter
                        (fun m ->
                          List.iter
                            (fun m' ->
                              emit ev1
                                {
                                  st with
                                  counts =
                                    canon ec (inc ec k2 (inc ec k1 m'));
                                })
                            (dec_variants ec s2 m))
                        (dec_variants ec s1 st.counts))
                  (offers s2))
            (offers s1))
        rest;
      pairs rest
  in
  pairs st.counts;
  (* replica ↔ replica rendezvous within one local state (needs two
     occupants) *)
  List.iter
    (fun (s, cnt) ->
      if available_twice cnt then
        let os = offers s in
        List.iter
          (fun (d1, ev1, k1) ->
            if is_sync ev1 then
              List.iter
                (fun (d2, ev2, k2) ->
                  (* orientation: sender first, to avoid emitting each
                     pairing twice *)
                  match (d1, d2) with
                  | Send, Recv when is_sync ev2 && Event.equal ev1 ev2 ->
                    List.iter
                      (fun m ->
                        emit ev1
                          {
                            st with
                            counts = canon ec (inc ec k2 (inc ec k1 m));
                          })
                      (dec2_variants ec s st.counts)
                  | _ -> ())
                os)
          os)
    st.counts;
  List.rev !acc

(* ---- exploration ------------------------------------------------------- *)

let saturate ec r =
  if r > ec.cutoff then (
    ec.collapses <- ec.collapses + 1;
    Omega)
  else Fin r

let initial_state ec (fam : family) ~n =
  let actx = Option.map Proc.intern fam.context in
  (* number the context first, then the templates in declaration
     order, so renderings are a function of the family alone *)
  (match actx with Some c -> ignore (number ec c) | None -> ());
  let counts =
    List.fold_left
      (fun m (_, tmpl, count_of) ->
        let r = count_of n in
        if r <= 0 then m
        else
          let s = Proc.intern tmpl in
          ignore (number ec s);
          match lookup s m with
          | None -> set s (saturate ec r) m
          | Some (Fin prev) -> set s (saturate ec (prev + r)) m
          | Some Omega -> m)
      [] fam.replicas
  in
  { actx; counts = canon ec counts }

let fresh_ectx (fam : family) =
  {
    nums = Hashtbl.create 64;
    legend_rev = [];
    next = 0;
    collapses = 0;
    cutoff = fam.cutoff;
  }

let initial_signature (fam : family) ~n =
  let ec = fresh_ectx fam in
  render ec (initial_state ec fam ~n)

(* The one explorer ({!Csp_semantics.Compiled}) with abstract
   successors: each abstract state is keyed by the interned [Ref] node
   naming its rendering, and [astates] maps the key back.  Rendering
   numbers local states as a side effect, so successors are rendered
   in order, as they are generated. *)
let explore ?(max_states = 4000) ?(bound = 2) ?(unfold_fuel = 64)
    (fam : family) ~n =
  if fam.cutoff < 1 then invalid_arg "Counter.explore: cutoff must be >= 1";
  let cfg = Step.config ~unfold_fuel fam.defs in
  let offers = offers_fn ~bound ~unfold_fuel cfg in
  let ec = fresh_ectx fam in
  let astates : (int, astate) Hashtbl.t = Hashtbl.create 256 in
  let key st =
    let k = Proc.ref_ (render ec st) None in
    Hashtbl.replace astates (Proc.id k) st;
    k
  in
  let successors k =
    List.map
      (fun (ev, st') -> (ev, Step.Visible, key st'))
      (successors ec offers fam.sync_bases (Hashtbl.find astates (Proc.id k)))
  in
  let lts =
    Lts.of_raw
      (Compiled.explore ~max_states ~successors cfg
         (key (initial_state ec fam ~n)))
  in
  let quotient_states = Lts.num_states lts in
  Obs.Counter.add c_states quotient_states;
  Obs.Counter.add c_collapses ec.collapses;
  {
    lts;
    legend = List.rev ec.legend_rev;
    quotient_states;
    omega_collapses = ec.collapses;
  }

(* ---- trace queries on explicit LTSs ------------------------------------ *)

let successor_array (lts : Lts.t) =
  let succs = Array.make (Array.length lts.Lts.states) [] in
  List.iter
    (fun (t : Lts.transition) -> succs.(t.Lts.source) <- t :: succs.(t.Lts.source))
    lts.Lts.transitions;
  Array.map List.rev succs

module IntSet = Set.Make (Int)

let eps_closure succs set =
  let rec go frontier acc =
    if IntSet.is_empty frontier then acc
    else
      let next =
        IntSet.fold
          (fun s acc' ->
            List.fold_left
              (fun acc'' (t : Lts.transition) ->
                if (not t.Lts.visible) && not (IntSet.mem t.Lts.target acc)
                then IntSet.add t.Lts.target acc''
                else acc'')
              acc' succs.(s))
          frontier IntSet.empty
      in
      go (IntSet.diff next acc) (IntSet.union next acc)
  in
  go set set

let accepts (lts : Lts.t) tr =
  let succs = successor_array lts in
  let rec go set = function
    | [] -> not (IntSet.is_empty set)
    | _ :: _ when IntSet.exists (fun s -> lts.Lts.truncated.(s)) set ->
      (* the trace may continue through dropped transitions *)
      true
    | ev :: rest ->
      let next =
        IntSet.fold
          (fun s acc ->
            List.fold_left
              (fun acc' (t : Lts.transition) ->
                if t.Lts.visible && Event.equal t.Lts.event ev then
                  IntSet.add t.Lts.target acc'
                else acc')
              acc succs.(s))
          set IntSet.empty
      in
      if IntSet.is_empty next then false else go (eps_closure succs next) rest
  in
  go (eps_closure succs (IntSet.singleton lts.Lts.initial)) tr

let visible_traces (lts : Lts.t) ~depth =
  let succs = successor_array lts in
  let visited : (int * Event.t list, unit) Hashtbl.t = Hashtbl.create 1024 in
  let traces : (Event.t list, unit) Hashtbl.t = Hashtbl.create 256 in
  let queue = Queue.create () in
  let push state rev_tr len =
    let key = (state, rev_tr) in
    if not (Hashtbl.mem visited key) then begin
      Hashtbl.add visited key ();
      Queue.add (state, rev_tr, len) queue
    end
  in
  Hashtbl.replace traces [] ();
  push lts.Lts.initial [] 0;
  while not (Queue.is_empty queue) do
    let state, rev_tr, len = Queue.pop queue in
    List.iter
      (fun (t : Lts.transition) ->
        if not t.Lts.visible then push t.Lts.target rev_tr len
        else if len < depth then begin
          let rev_tr' = t.Lts.event :: rev_tr in
          Hashtbl.replace traces (List.rev rev_tr') ();
          push t.Lts.target rev_tr' (len + 1)
        end)
      succs.(state)
  done;
  List.sort Trace.compare (Hashtbl.fold (fun tr () acc -> tr :: acc) traces [])
