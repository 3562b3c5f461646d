module Event = Csp_trace.Event
module Process = Csp_lang.Process
module Proc = Csp_lang.Proc
module Chan_expr = Csp_lang.Chan_expr
module Chan_set = Csp_lang.Chan_set
module Expr = Csp_lang.Expr
module Defs = Csp_lang.Defs
module Valuation = Csp_lang.Valuation
module Obs = Csp_obs.Obs

type visibility = Visible | Hidden

let vis_equal a b =
  match a, b with
  | Visible, Visible | Hidden, Hidden -> true
  | (Visible | Hidden), _ -> false

module Unfold_tbl = Hashtbl.Make (struct
  type t = string * Expr.t option

  let equal (n1, a1) (n2, a2) =
    String.equal n1 n2 && Option.equal Expr.equal a1 a2

  let hash (n, a) =
    ((Hashtbl.hash n * 31) + match a with None -> 0 | Some e -> Expr.hash e)
    land max_int
end)

module Trans_tbl = Hashtbl.Make (Int)

type config = {
  defs : Defs.t;
  sampler : Sampler.t;
  unfold_fuel : int;
  hide_fuel : int;
  unfold_cache : Proc.t Unfold_tbl.t;
      (* (name, argument) → interned unfolding: a recursive network
         re-derives the same reference unfolding at every revisit, so
         unfold + intern happen once per (name, arg) per config *)
  trans_cache : (Event.t * visibility * Proc.t) list Trans_tbl.t;
      (* node id → full-fuel transition list; the relation depends on
         the state alone, so it is derived once per distinct state.
         Ids are never reused, so entries for collected nodes are dead
         weight, never wrong. *)
}

let config ?(sampler = Sampler.default) ?(unfold_fuel = 64) ?(hide_fuel = 16)
    defs =
  {
    defs;
    sampler;
    unfold_fuel;
    hide_fuel;
    unfold_cache = Unfold_tbl.create 64;
    trans_cache = Trans_tbl.create 256;
  }

exception Unproductive of string

(* Cache counters, aggregated by [Engine.stats].  [Atomic] because
   configurations on several domains (fuzz jobs, serve workers) count
   into the same totals. *)
let unfold_hits = Atomic.make 0
let unfold_misses = Atomic.make 0
let trans_hits = Atomic.make 0
let trans_misses = Atomic.make 0

type stats = {
  unfold_hits : int;
  unfold_misses : int;
  trans_hits : int;
  trans_misses : int;
}

let stats () =
  {
    unfold_hits = Atomic.get unfold_hits;
    unfold_misses = Atomic.get unfold_misses;
    trans_hits = Atomic.get trans_hits;
    trans_misses = Atomic.get trans_misses;
  }

let reset_stats () =
  Atomic.set unfold_hits 0;
  Atomic.set unfold_misses 0;
  Atomic.set trans_hits 0;
  Atomic.set trans_misses 0

(* Expose the cache counters in [Obs.snapshot] without routing through
   [Engine.stats] (the CLI's `--stats-json` reads the snapshot only). *)
let () =
  Obs.register_source "step" (fun () ->
      let s = stats () in
      [
        ("unfold_hits", Obs.Int s.unfold_hits);
        ("unfold_misses", Obs.Int s.unfold_misses);
        ("trans_hits", Obs.Int s.trans_hits);
        ("trans_misses", Obs.Int s.trans_misses);
      ])

let eval_chan c = Chan_expr.eval Valuation.empty c
let eval_expr e = Expr.eval Valuation.empty e

let unfold_i cfg n arg =
  match Unfold_tbl.find_opt cfg.unfold_cache (n, arg) with
  | Some q ->
    Atomic.incr unfold_hits;
    q
  | None ->
    Atomic.incr unfold_misses;
    let q = Proc.intern (Defs.unfold_ref cfg.defs Valuation.empty n arg) in
    Unfold_tbl.add cfg.unfold_cache (n, arg) q;
    q

(* Continuations of [p] after engaging in exactly the visible event [e].
   Unlike the transition enumeration below, inputs accept any value of
   their declared set — the passive side of a synchronisation must not
   be restricted to sampled values. *)
let rec sync_on cfg fuel (e : Event.t) p : Proc.t list =
  match Proc.node p with
  | Proc.Stop -> []
  | Proc.Output (c, ex, k) ->
    if
      Csp_trace.Channel.equal (eval_chan c) e.chan
      && Csp_trace.Value.equal (eval_expr ex) e.value
    then [ k ]
    else []
  | Proc.Input (c, x, m, k) ->
    if Csp_trace.Channel.equal (eval_chan c) e.chan && Csp_lang.Vset.mem m e.value
    then [ Proc.subst_value x e.value k ]
    else []
  | Proc.Choice (p1, p2) -> sync_on cfg fuel e p1 @ sync_on cfg fuel e p2
  | Proc.Par (xa, ya, p1, p2) ->
    let in_x = Chan_set.mem xa e.chan and in_y = Chan_set.mem ya e.chan in
    if in_x && in_y then
      List.concat_map
        (fun p1' ->
          List.map (fun p2' -> Proc.par xa ya p1' p2') (sync_on cfg fuel e p2))
        (sync_on cfg fuel e p1)
    else if in_x then
      List.map (fun p1' -> Proc.par xa ya p1' p2) (sync_on cfg fuel e p1)
    else if in_y then
      List.map (fun p2' -> Proc.par xa ya p1 p2') (sync_on cfg fuel e p2)
    else []
  | Proc.Hide (l, p1) ->
    (* events on concealed channels are not visible to the environment *)
    if Chan_set.mem l e.chan then []
    else List.map (fun p1' -> Proc.hide l p1') (sync_on cfg fuel e p1)
  | Proc.Ref (n, arg) ->
    if fuel <= 0 then raise (Unproductive n)
    else sync_on cfg (fuel - 1) e (unfold_i cfg n arg)

(* Merge transition lists, unioning nothing: duplicates are removed per
   parallel node; the closure union deduplicates the rest. *)
let rec transitions_fuel cfg fuel p : (Event.t * visibility * Proc.t) list =
  match Proc.node p with
  | Proc.Stop -> []
  | Proc.Output (c, e, k) ->
    [ (Event.make (eval_chan c) (eval_expr e), Visible, k) ]
  | Proc.Input (c, x, m, k) ->
    let chan = eval_chan c in
    List.map
      (fun v -> (Event.make chan v, Visible, Proc.subst_value x v k))
      (Sampler.sample cfg.sampler m)
  | Proc.Choice (p1, p2) ->
    transitions_fuel cfg fuel p1 @ transitions_fuel cfg fuel p2
  | Proc.Par (xa, ya, p1, p2) ->
    let t1 = transitions_fuel cfg fuel p1
    and t2 = transitions_fuel cfg fuel p2 in
    let left =
      List.concat_map
        (fun ((e : Event.t), vis, p1') ->
          match vis with
          | Hidden -> [ (e, Hidden, Proc.par xa ya p1' p2) ]
          | Visible ->
            if Chan_set.mem ya e.chan then
              (* shared channel: both operands must engage in the event;
                 the partner accepts any value of its declared input set *)
              List.map
                (fun p2' -> (e, Visible, Proc.par xa ya p1' p2'))
                (sync_on cfg fuel e p2)
            else [ (e, Visible, Proc.par xa ya p1' p2) ])
        t1
    in
    let right =
      List.concat_map
        (fun ((e : Event.t), vis, p2') ->
          match vis with
          | Hidden -> [ (e, Hidden, Proc.par xa ya p1 p2') ]
          | Visible ->
            if Chan_set.mem xa e.chan then
              List.map
                (fun p1' -> (e, Visible, Proc.par xa ya p1' p2'))
                (sync_on cfg fuel e p1)
            else [ (e, Visible, Proc.par xa ya p1 p2') ])
        t2
    in
    (* Synchronisations reachable from both sides appear twice; remove
       exact duplicates.  Visibility is compared by explicit variant
       match and targets by pointer equality — interning makes the
       whole triple comparison O(1). *)
    let triple_equal (e1, v1, q1) (e2, v2, q2) =
      Event.equal e1 e2 && vis_equal v1 v2 && Proc.equal q1 q2
    in
    List.rev
      (List.fold_left
         (fun acc t ->
           if List.exists (triple_equal t) acc then acc else t :: acc)
         [] (left @ right))
  | Proc.Hide (l, p1) ->
    List.map
      (fun ((e : Event.t), vis, p1') ->
        let vis = if Chan_set.mem l e.chan then Hidden else vis in
        (e, vis, Proc.hide l p1'))
      (transitions_fuel cfg fuel p1)
  | Proc.Ref (n, arg) ->
    if fuel <= 0 then raise (Unproductive n)
    else transitions_fuel cfg (fuel - 1) (unfold_i cfg n arg)

(* Transitions always start from full fuel, so the state alone keys the
   memo (fuel only varies inside one derivation, through references). *)
let transitions_i cfg p =
  match Trans_tbl.find_opt cfg.trans_cache (Proc.id p) with
  | Some ts ->
    Atomic.incr trans_hits;
    ts
  | None ->
    Atomic.incr trans_misses;
    let ts = transitions_fuel cfg cfg.unfold_fuel p in
    Trans_tbl.add cfg.trans_cache (Proc.id p) ts;
    ts

let tau_reachable_i cfg p =
  let rec go budget acc p =
    let acc = p :: acc in
    if budget <= 0 then acc
    else
      List.fold_left
        (fun acc (_, vis, p') ->
          match vis with Hidden -> go (budget - 1) acc p' | Visible -> acc)
        acc (transitions_i cfg p)
  in
  go cfg.hide_fuel [] p

let sync_on_i cfg e p = sync_on cfg cfg.unfold_fuel e p

let after_i cfg p e =
  (* [sync_on] rather than a filter over [transitions]: the derivative
     must accept any declared input value, not only sampled ones. *)
  List.concat_map (sync_on_i cfg e) (tau_reachable_i cfg p)

let rec accepts_trace_i cfg p = function
  | [] -> true
  | e :: rest ->
    List.exists (fun q -> accepts_trace_i cfg q rest) (after_i cfg p e)

let is_deadlocked_i cfg p =
  match transitions_i cfg p with [] -> true | _ :: _ -> false

module Traces_key = struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) =
    Int.equal a1 a2 && Int.equal b1 b2 && Int.equal c1 c2

  let hash (a, b, c) = ((((a * 31) + b) * 31) + c) land max_int
end

module Traces_memo = Hashtbl.Make (Traces_key)

let traces_i cfg ~depth p =
  Obs.span ~cat:"step" "traces"
    ~args:(fun () -> [ ("depth", Obs.Int depth) ])
  @@ fun () ->
  (* Memoised on (node id, depth, hidden budget): recursive networks
     revisit the same state at many points of the exploration tree, and
     the closure of a state is independent of how it was reached.
     States are globally interned, so no per-call interning pass is
     needed and the transition relation is shared across calls through
     [cfg.trans_cache]. *)
  let memo = Traces_memo.create 256 in
  let rec go d hidden_budget p =
    if d <= 0 then Closure.empty
    else
      let key = (Proc.id p, d, hidden_budget) in
      match Traces_memo.find_opt memo key with
      | Some c -> c
      | None ->
        let c =
          List.fold_left
            (fun acc (e, vis, p') ->
              match vis with
              | Visible ->
                Closure.union acc
                  (Closure.prefix e (go (d - 1) cfg.hide_fuel p'))
              | Hidden ->
                if hidden_budget <= 0 then acc
                else Closure.union acc (go d (hidden_budget - 1) p'))
            Closure.empty (transitions_i cfg p)
        in
        Traces_memo.add memo key c;
        c
  in
  go depth cfg.hide_fuel p

(* Plain-AST entry points: intern, run on the IR, project back. *)

let transitions cfg p =
  List.map
    (fun (e, vis, q) -> (e, vis, Proc.to_process q))
    (transitions_i cfg (Proc.intern p))

let tau_reachable cfg p =
  List.map Proc.to_process (tau_reachable_i cfg (Proc.intern p))

let after cfg p e = List.map Proc.to_process (after_i cfg (Proc.intern p) e)
let accepts_trace cfg p s = accepts_trace_i cfg (Proc.intern p) s
let is_deadlocked cfg p = is_deadlocked_i cfg (Proc.intern p)
let traces cfg ~depth p = traces_i cfg ~depth (Proc.intern p)
