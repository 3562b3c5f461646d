(** Compiled successor engine: flat transition tables over dense ids,
    and the one exploration loop every explorer runs.

    Every other pipeline *interprets* the interned Proc IR per
    transition: each successor query is a hashtable probe of
    [Step.config.trans_cache] keyed by node id.  A {!t} holds the
    reachable state space in a CSR-style flat representation — the
    analogue of SPIN generating a dedicated [pan] verifier from a
    model:

    - dense [int] state ids assigned in BFS discovery order (so they
      coincide with {!Lts.explore}'s state numbering);
    - per-state successor rows packed into preallocated int arrays:
      [row_off]/[row_len] index a shared pool of
      [(event_id, target_id)] pairs plus a visibility byte;
    - an event table mapping dense event ids back to events.

    {b One explorer.}  A single FIFO loop numbers states in BFS
    discovery order over such a table, materialising the row of each
    state it expands when the table lacks it.  Numbering stops at
    [max_states]; a transition is kept iff both endpoints are
    numbered, and a numbered state with a dropped edge is truncated.
    {!compile} runs the loop to its budget; {!explore} runs it on a
    fresh table (compilation as a by-product of the exploration);
    {!explore_raw} replays it over a compiled table;
    [Counter.explore] runs it with abstract successors.  So numbering,
    transitions, truncation and DOT output are byte-identical whichever
    entry point, compile budget or domain count produced them.

    {b Row source.}  Rows come from {!Vector}: a state is its
    canonical form (skeleton plus leaf vector), a row is derived by
    walking the skeleton and asking the interpreter only for leaf rows,
    and a target is looked up by its canonical form in a table kept in
    the [t] — its [Proc.t] is built once, when the state is new.  The
    rows equal [Step.transitions_i] on the state, transition for
    transition.  Leaf rows go through the configuration's
    [trans_cache], so a compile warms it with component rows only;
    queries on whole states through the same configuration
    ([Sat.check_engine], [Infer]) derive those rows themselves.

    {b Fallback contract}: states beyond the compile [budget] (or
    reached only under a larger [max_states] than the compile saw) are
    materialised lazily, through the same row source, the first time
    they are expanded; the [compiled.fallbacks] counter counts such
    rows.

    A [t] is mutable (lazy materialisation) and must not be shared
    between domains. *)

type t

val compile : ?budget:int -> Step.config -> Csp_lang.Process.t -> t
(** One-shot compile: the exploration loop run to [budget] states
    (default [200_000]), materialising the successor rows of the first
    [budget] states in BFS order.  Discovered targets beyond the budget
    get ids but no rows (materialised lazily on demand).  Telemetry:
    [compiled.compiles], [compiled.states], [compiled.compile_ms] and a
    ["compile"] span; a compile does not count towards [lts.*]. *)

val root : t -> Csp_lang.Proc.t
(** The interned root the automaton was compiled from. *)

val config : t -> Step.config
(** The configuration rows are derived with (and fall back to). *)

val n_states : t -> int
(** States assigned a dense id so far (grows on fallback). *)

val n_rows : t -> int
(** States whose successor row is materialised. *)

val n_transitions : t -> int
(** Packed transitions across all materialised rows. *)

val n_events : t -> int
(** Distinct events in the event table. *)

val fallbacks : t -> int
(** Rows materialised lazily after {!compile} returned. *)

val compile_ms : t -> float
(** Wall-clock of the {!compile} pass, in milliseconds. *)

val transitions_i :
  t ->
  Csp_lang.Proc.t ->
  (Csp_trace.Event.t * Step.visibility * Csp_lang.Proc.t) list
(** Successors from the flat row when the state is in the automaton
    (materialising it if needed); identical to
    [Step.transitions_i (config t)] — which it delegates to verbatim
    for states outside the automaton. *)

(** {1 Exploration}

    {!Lts.explore} is the public entry point; the raw result exists so
    this module does not depend on [Lts] (see [Lts.of_raw]).  Every
    exploration counts its numbered states and BFS layers in
    [lts.states] and [lts.layers]. *)

type raw = {
  raw_initial : int;
  raw_states : Csp_lang.Proc.t array;  (** indexed by state number *)
  raw_transitions : (int * Csp_trace.Event.t * bool * int) list;
      (** (source, event, visible, target), in discovery order *)
  raw_complete : bool;
  raw_truncated : bool array;
}

val explore :
  ?max_states:int ->
  ?successors:
    (Csp_lang.Proc.t ->
    (Csp_trace.Event.t * Step.visibility * Csp_lang.Proc.t) list) ->
  Step.config ->
  Csp_lang.Proc.t ->
  raw
(** The exploration loop on a fresh table rooted at the given state
    (default bound: 2000 states).  Rows are derived by [successors]
    when given (it must be a function of the state alone; the counter
    abstraction's, or [Step.transitions_i] as the interpreter
    reference), otherwise by the {!Vector} row source. *)

val explore_raw : ?max_states:int -> t -> raw
(** The exploration loop replayed over a compiled table: rows the
    table has are array walks; rows it lacks are fallbacks (see the
    module description).  The result equals {!explore} on the
    automaton's root and configuration. *)
