(* State-vector successors.

   The paper defines [P ‖_{X,Y} Q] componentwise (§3), so a state of a
   network is a tuple of component states and a move is one component's
   move or a joint move on a shared channel.  This module derives rows
   that way, in the style of SPIN's per-proctype state vector: a state
   is its static skeleton — the top [Par]/[Hide] structure, interned
   structurally — plus a vector of leaves, the maximal subterms that are
   neither [Par] nor [Hide].  Only leaves are handed to the interpreter
   ([Step.transitions_i], [Step.sync_on_i]); the skeleton is walked
   here, exactly as [Step.transitions_fuel]/[Step.sync_on] recurse over
   the same spine, so rows come out in the interpreter's order.

   Every successor of a [Par]/[Hide] node keeps that node with the same
   alphabets, so the skeleton only grows: when a leaf's successor is
   itself [Par]- or [Hide]-topped it is decomposed again and grafted in.
   That keeps the key (skeleton, leaves) a function of the process term:
   the canonical form. *)

module Event = Csp_trace.Event
module Proc = Csp_lang.Proc
module Chan_set = Csp_lang.Chan_set
module Obs = Csp_obs.Obs

let skeletons = Obs.Counter.make "vector.skeletons"
let sync_hits = Obs.Counter.make "vector.leaf_sync_hits"
let sync_misses = Obs.Counter.make "vector.leaf_sync_misses"

module Int_tbl = Hashtbl.Make (Int)
module Event_tbl = Hashtbl.Make (Event)

module Pair_tbl = Hashtbl.Make (struct
  type t = int * int

  let equal (a1, b1) (a2, b2) = Int.equal a1 a2 && Int.equal b1 b2
  let hash (a, b) = ((a * 65599) + b) land max_int
end)

type skel = {
  sid : int;
  shape : shape;
  width : int;  (* leaves below this node *)
  mutable bits : Bytes.t;
      (* event id -> membership: [Par] in_x = 1, in_y = 2; [Hide]
         hidden = 1; '\255' = not yet computed *)
}

and shape = Leaf | Par of Chan_set.t * Chan_set.t * skel * skel | Hide of Chan_set.t * skel

(* Children are interned first, so they compare by pointer. *)
module Skel_tbl = Hashtbl.Make (struct
  type t = shape

  let equal a b =
    match a, b with
    | Leaf, Leaf -> true
    | Par (x1, y1, l1, r1), Par (x2, y2, l2, r2) ->
      l1 == l2 && r1 == r2 && Chan_set.equal x1 x2 && Chan_set.equal y1 y2
    | Hide (c1, b1), Hide (c2, b2) -> b1 == b2 && Chan_set.equal c1 c2
    | (Leaf | Par _ | Hide _), _ -> false

  let hash = function
    | Leaf -> 0
    | Par (x, y, l, r) ->
      ((((((Chan_set.hash x * 31) + Chan_set.hash y) * 31) + l.sid) * 31) + r.sid)
      land max_int
    | Hide (c, b) -> ((Chan_set.hash c * 31) + b.sid + 1) land max_int
end)

type state = { skel : skel; leaves : Proc.t array }

type t = {
  cfg : Step.config;
  skels : skel Skel_tbl.t;
  rows : (int * Step.visibility * Proc.t) list Int_tbl.t;
      (* leaf id -> its [Step] row, events as ids *)
  syncs : Proc.t list Pair_tbl.t;  (* (leaf id, event id) -> sync_on *)
  mutable events : Event.t array;
  mutable n_events : int;
  eid_of : int Event_tbl.t;
}

let create cfg =
  {
    cfg;
    skels = Skel_tbl.create 16;
    rows = Int_tbl.create 64;
    syncs = Pair_tbl.create 64;
    events = Array.make 16 (Event.vi "vector-sentinel" 0);
    n_events = 0;
    eid_of = Event_tbl.create 16;
  }

let event t i = t.events.(i)
let n_events t = t.n_events

let event_id t e =
  match Event_tbl.find_opt t.eid_of e with
  | Some i -> i
  | None ->
    let i = t.n_events in
    if i >= Array.length t.events then begin
      let a = Array.make (2 * i) e in
      Array.blit t.events 0 a 0 i;
      t.events <- a
    end;
    t.events.(i) <- e;
    Event_tbl.add t.eid_of e i;
    t.n_events <- i + 1;
    i

(* ---- skeletons ---------------------------------------------------------- *)

let skel t shape =
  match Skel_tbl.find_opt t.skels shape with
  | Some s -> s
  | None ->
    let width =
      match shape with
      | Leaf -> 1
      | Par (_, _, l, r) -> l.width + r.width
      | Hide (_, b) -> b.width
    in
    let s = { sid = Skel_tbl.length t.skels; shape; width; bits = Bytes.empty } in
    Skel_tbl.add t.skels shape s;
    Obs.Counter.incr skeletons;
    s

let bits t sk eid =
  if eid >= Bytes.length sk.bits then begin
    let b = Bytes.make (max (eid + 1) (2 * Bytes.length sk.bits)) '\255' in
    Bytes.blit sk.bits 0 b 0 (Bytes.length sk.bits);
    sk.bits <- b
  end;
  match Bytes.get sk.bits eid with
  | '\255' ->
    let chan = t.events.(eid).Event.chan in
    let mem cs k = if Chan_set.mem cs chan then k else 0 in
    let v =
      match sk.shape with
      | Par (xa, ya, _, _) -> mem xa 1 lor mem ya 2
      | Hide (l, _) -> mem l 1
      | Leaf -> 0
    in
    Bytes.set sk.bits eid (Char.chr v);
    v
  | c -> Char.code c

let is_leaf q =
  match Proc.node q with
  | Proc.Par _ | Proc.Hide _ -> false
  | Proc.Stop | Proc.Output _ | Proc.Input _ | Proc.Choice _ | Proc.Ref _ -> true

let decompose t q =
  let leaves = ref [] in
  let rec go q =
    match Proc.node q with
    | Proc.Par (xa, ya, p1, p2) ->
      let l = go p1 in
      let r = go p2 in
      skel t (Par (xa, ya, l, r))
    | Proc.Hide (cs, p) -> skel t (Hide (cs, go p))
    | Proc.Stop | Proc.Output _ | Proc.Input _ | Proc.Choice _ | Proc.Ref _ ->
      leaves := q :: !leaves;
      skel t Leaf
  in
  let sk = go q in
  { skel = sk; leaves = Array.of_list (List.rev !leaves) }

let build ?like v =
  let rec go sk off =
    match sk.shape with
    | Leaf -> v.leaves.(off)
    | Par (xa, ya, l, r) -> Proc.par xa ya (go l off) (go r (off + l.width))
    | Hide (cs, b) -> Proc.hide cs (go b off)
  in
  (* Alongside a term [q] of the same skeleton: subterms whose leaves
     are unchanged are [q]'s own, so only the spine above a changed
     leaf is re-interned.  Returns the term and whether it changed. *)
  let rec along sk off q =
    match sk.shape, Proc.node q with
    | Leaf, _ ->
      let p = v.leaves.(off) in
      (p, not (Proc.equal p q))
    | Par (xa, ya, l, r), Proc.Par (_, _, q1, q2) ->
      let p1, c1 = along l off q1 in
      let p2, c2 = along r (off + l.width) q2 in
      if c1 || c2 then (Proc.par xa ya p1 p2, true) else (q, false)
    | Hide (cs, b), Proc.Hide (_, q1) ->
      let p1, c1 = along b off q1 in
      if c1 then (Proc.hide cs p1, true) else (q, false)
    | (Par _ | Hide _), _ -> (go sk off, true)
  in
  match like with
  | Some (q, u) when u.skel == v.skel -> fst (along v.skel 0 q)
  | Some _ | None -> go v.skel 0

let equal a b =
  a.skel == b.skel
  && Array.length a.leaves = Array.length b.leaves
  && Array.for_all2 Proc.equal a.leaves b.leaves

let hash v =
  Array.fold_left (fun h q -> ((h * 65599) + Proc.id q) land max_int) v.skel.sid v.leaves

module Tbl = Hashtbl.Make (struct
  type nonrec t = state

  let equal = equal
  let hash = hash
end)

(* ---- leaves ------------------------------------------------------------- *)

let leaf_row t p =
  match Int_tbl.find_opt t.rows (Proc.id p) with
  | Some r -> r
  | None ->
    let r =
      List.map (fun (e, vis, q) -> (event_id t e, vis, q)) (Step.transitions_i t.cfg p)
    in
    Int_tbl.add t.rows (Proc.id p) r;
    r

let leaf_sync t p eid =
  let key = (Proc.id p, eid) in
  match Pair_tbl.find_opt t.syncs key with
  | Some qs ->
    Obs.Counter.incr sync_hits;
    qs
  | None ->
    Obs.Counter.incr sync_misses;
    let qs = Step.sync_on_i t.cfg t.events.(eid) p in
    Pair_tbl.add t.syncs key qs;
    qs

(* ---- successors ----------------------------------------------------------- *)

(* A target relative to its source: the changed slots in ascending
   order, with no-op changes dropped — so two derivations reach the
   same term iff their change lists are equal. *)
type changes = (int * Proc.t) list

let change off p q : changes = if Proc.equal p q then [] else [ (off, q) ]

let changes_equal (a : changes) b =
  List.equal (fun (i, p) (j, q) -> Int.equal i j && Proc.equal p q) a b

(* Mirrors [Step.sync_on] over the skeleton; the leaf at [off] is the
   first leaf below [sk]. *)
let rec sync t leaves off sk eid : changes list =
  match sk.shape with
  | Leaf ->
    let p = leaves.(off) in
    List.map (change off p) (leaf_sync t p eid)
  | Par (_, _, l, r) ->
    let b = bits t sk eid and roff = off + l.width in
    if b = 3 then
      List.concat_map
        (fun c1 -> List.map (fun c2 -> c1 @ c2) (sync t leaves roff r eid))
        (sync t leaves off l eid)
    else if b = 1 then sync t leaves off l eid
    else if b = 2 then sync t leaves roff r eid
    else []
  | Hide (_, body) -> if bits t sk eid = 1 then [] else sync t leaves off body eid

(* Mirrors [Step.transitions_fuel] over the skeleton: left list, then
   right list, synchronising on shared channels, and the first of
   duplicate triples kept at every [Par]. *)
let rec trans t leaves off sk : (int * Step.visibility * changes) list =
  match sk.shape with
  | Leaf ->
    let p = leaves.(off) in
    List.map (fun (eid, vis, q) -> (eid, vis, change off p q)) (leaf_row t p)
  | Par (_, _, l, r) ->
    let roff = off + l.width in
    let t1 = trans t leaves off l and t2 = trans t leaves roff r in
    let left =
      List.concat_map
        (fun ((eid, vis, c1) as tr) ->
          match vis with
          | Step.Hidden -> [ tr ]
          | Step.Visible ->
            if bits t sk eid land 2 <> 0 then
              List.map
                (fun c2 -> (eid, Step.Visible, c1 @ c2))
                (sync t leaves roff r eid)
            else [ tr ])
        t1
    in
    let right =
      List.concat_map
        (fun ((eid, vis, c2) as tr) ->
          match vis with
          | Step.Hidden -> [ tr ]
          | Step.Visible ->
            if bits t sk eid land 1 <> 0 then
              List.map
                (fun c1 -> (eid, Step.Visible, c1 @ c2))
                (sync t leaves off l eid)
            else [ tr ])
        t2
    in
    let triple_equal (e1, v1, c1) (e2, v2, c2) =
      Int.equal e1 e2 && Step.vis_equal v1 v2 && changes_equal c1 c2
    in
    List.rev
      (List.fold_left
         (fun acc tr -> if List.exists (triple_equal tr) acc then acc else tr :: acc)
         [] (left @ right))
  | Hide (_, body) ->
    List.map
      (fun ((eid, _, c) as tr) -> if bits t sk eid = 1 then (eid, Step.Hidden, c) else tr)
      (trans t leaves off body)

(* Replace the leaf at slot [i] by the skeleton [sub]. *)
let rec graft t sk i sub =
  match sk.shape with
  | Leaf -> sub
  | Par (xa, ya, l, r) ->
    if i < l.width then skel t (Par (xa, ya, graft t l i sub, r))
    else skel t (Par (xa, ya, l, graft t r (i - l.width) sub))
  | Hide (cs, b) -> skel t (Hide (cs, graft t b i sub))

(* Apply a change list.  A new leaf that is [Par]- or [Hide]-topped is
   decomposed and grafted in, from the highest slot down so the lower
   slots keep their positions. *)
let apply t v (cs : changes) =
  match cs with
  | [] -> v
  | _ :: _ ->
    let leaves = Array.copy v.leaves in
    List.iter (fun (i, q) -> leaves.(i) <- q) cs;
    List.fold_left
      (fun v (i, q) ->
        if is_leaf q then v
        else
          let sub = decompose t q in
          let n = Array.length v.leaves in
          {
            skel = graft t v.skel i sub.skel;
            leaves =
              Array.concat
                [
                  Array.sub v.leaves 0 i;
                  sub.leaves;
                  Array.sub v.leaves (i + 1) (n - i - 1);
                ];
          })
      { skel = v.skel; leaves } (List.rev cs)

let successors t v =
  List.map (fun (eid, vis, cs) -> (eid, vis, apply t v cs)) (trans t v.leaves 0 v.skel)
