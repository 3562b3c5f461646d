module Defs = Csp_lang.Defs
module Proc = Csp_lang.Proc
module Pool = Csp_parallel.Pool
module Obs = Csp_obs.Obs

(* [csp_lang] predates (and must not depend on) the observability
   layer, so its interning statistics are bridged into the snapshot
   from here. *)
let () =
  Obs.register_source "intern" (fun () ->
      let s = Proc.stats () in
      [
        ("nodes", Obs.Int s.Proc.nodes);
        ("table_len", Obs.Int s.Proc.table_len);
        ("hits", Obs.Int s.Proc.hits);
        ("misses", Obs.Int s.Proc.misses);
        ("lock_waits", Obs.Int s.Proc.lock_waits);
        ("shards", Obs.Int s.Proc.shards);
        ("max_shard_len", Obs.Int s.Proc.max_shard_len);
      ])

type t = {
  defs : Defs.t;
  depth : int;
  seed : int;
  domains : int;
  sampler : Sampler.t;
  unfold_fuel : int;
  hide_fuel : int;
  hide_extra : int;
  step : Step.config;
  denote : Denote.config;
  pool : Pool.t Lazy.t;
  compiled : (int, Compiled.t) Hashtbl.t;
}

let create ?(depth = 6) ?(seed = 1) ?(domains = 1) ?nat_bound ?sampler
    ?(unfold_fuel = 64) ?(hide_fuel = 16) ?(hide_extra = 8) defs =
  let sampler =
    match nat_bound, sampler with
    | Some n, _ -> Sampler.nat_bound n
    | None, Some s -> s
    | None, None -> Sampler.default
  in
  let domains = max 1 domains in
  {
    defs;
    depth;
    seed;
    domains;
    sampler;
    unfold_fuel;
    hide_fuel;
    hide_extra;
    step = Step.config ~sampler ~unfold_fuel ~hide_fuel defs;
    denote = Denote.config ~sampler ~hide_extra defs;
    pool = lazy (Pool.create ~domains);
    compiled = Hashtbl.create 4;
  }

let step_config t = t.step
let denote_config t = t.denote
let pool t = if t.domains <= 1 then None else Some (Lazy.force t.pool)

(* Depth and seed are not baked into the derived configurations, so the
   caches survive the change; anything affecting the transition
   relation or the denotation (sampler, fuels, definitions) rebuilds
   both configurations — and hence their caches — from scratch.  The
   [pool] lazy cell is shared by the [with_*] copies, so at most one
   set of worker domains is spawned per [create]. *)
let with_depth t depth = { t with depth }
let with_seed t seed = { t with seed }

(* One compile serves every later query through this engine (and its
   [with_depth]/[with_seed] copies, which share the table): the cache
   is keyed by the interned root's id — ids are never reused, and the
   cached automaton keeps its root alive, so the key stays valid for
   the automaton's lifetime.  The hit/miss counters let a long-lived
   host (the [cspc serve] cache-warm story) observe how often a
   request was answered from an already-compiled automaton. *)
let compile_hits = Obs.Counter.make "engine.compile_hits"
let compile_misses = Obs.Counter.make "engine.compile_misses"

let compile ?budget t p =
  let root = Proc.intern p in
  match Hashtbl.find_opt t.compiled (Proc.id root) with
  | Some c ->
    Obs.Counter.incr compile_hits;
    c
  | None ->
    Obs.Counter.incr compile_misses;
    let c = Compiled.compile ?budget t.step p in
    Hashtbl.add t.compiled (Proc.id root) c;
    c

let compiled_count t = Hashtbl.length t.compiled
let compiled_mem t p = Hashtbl.mem t.compiled (Proc.id (Proc.intern p))

let with_sampler t sampler =
  create ~depth:t.depth ~seed:t.seed ~domains:t.domains ~sampler
    ~unfold_fuel:t.unfold_fuel ~hide_fuel:t.hide_fuel ~hide_extra:t.hide_extra
    t.defs

type stats = {
  intern : Proc.stats;
  closure : Closure.stats;
  step : Step.stats;
  denote : Denote.stats;
  pool : Pool.stats;
}

let stats () =
  {
    intern = Proc.stats ();
    closure = Closure.stats ();
    step = Step.stats ();
    denote = Denote.stats ();
    pool = Pool.stats ();
  }

let reset_stats () =
  Step.reset_stats ();
  Denote.reset_stats ()

let hit_rate hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let pp_stats ppf (s : stats) =
  Format.fprintf ppf
    "@[<v>intern: %d nodes, %d live (%d shards, max %d), hit-rate %.2f, \
     lock-waits %d@,\
     closure: %d nodes (%d shards, max %d), memo hit-rate %.2f, lock-waits %d@,\
     step: trans hit-rate %.2f, unfold hit-rate %.2f@,\
     denote: eval hit-rate %.2f@,\
     pool: %d pools, %d workers, %d batches, %d tasks (%d on caller), \
     lock-waits %d@,\
     steal: %d steals, %d stolen, %d stealing-tasks@]"
    s.intern.Proc.nodes s.intern.Proc.table_len s.intern.Proc.shards
    s.intern.Proc.max_shard_len
    (hit_rate s.intern.Proc.hits s.intern.Proc.misses)
    s.intern.Proc.lock_waits s.closure.Closure.nodes
    s.closure.Closure.shards s.closure.Closure.max_shard_len
    (hit_rate s.closure.Closure.memo_hits s.closure.Closure.memo_misses)
    s.closure.Closure.lock_waits
    (hit_rate s.step.Step.trans_hits s.step.Step.trans_misses)
    (hit_rate s.step.Step.unfold_hits s.step.Step.unfold_misses)
    (hit_rate s.denote.Denote.eval_hits s.denote.Denote.eval_misses)
    s.pool.Pool.pools s.pool.Pool.workers s.pool.Pool.batches
    s.pool.Pool.tasks s.pool.Pool.caller_tasks s.pool.Pool.lock_waits
    s.pool.Pool.steals s.pool.Pool.stolen s.pool.Pool.stealing_tasks
