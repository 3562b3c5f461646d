(** State-vector successors: a network explored as a vector of
    component states.

    The paper's [P ‖_{X,Y} Q] is componentwise (§3), so a state of a
    network is a tuple of component states, and a move is one
    component's move or a joint move on a shared channel.  A {!state}
    here is the canonical form of a process term:

    - its {e skeleton}, the top [Par]/[Hide] structure with its
      alphabets, interned structurally per context; each skeleton node
      memoises, per event id, whether the event is in its [X]/[Y]
      alphabets or hidden;
    - its {e leaves}, the maximal subterms that are neither [Par] nor
      [Hide], as interned {!Csp_lang.Proc.t}s, left to right.

    {!successors} walks the skeleton exactly as the interpreter
    recurses over the same spine, and asks {!Step} only for leaf rows
    ({!Step.transitions_i}) and leaf synchronisations
    ({!Step.sync_on_i}, memoised per (leaf, event)).  So its rows equal
    [Step.transitions_i] on {!build}[ v], transition for transition and
    in the same order, while the interpreter never re-derives or
    re-interns the network spine.  A target whose changed leaf is
    itself [Par]- or [Hide]-topped is decomposed again, so every
    returned state is [decompose (build v)]: the key (skeleton, leaves)
    is a function of the term.

    A context is mutable and must not be shared between domains.
    Telemetry: [vector.skeletons], [vector.leaf_sync_hits] and
    [vector.leaf_sync_misses]. *)

type t
(** A derivation context: skeleton table, leaf memos and event ids. *)

type state
(** A canonical form: skeleton plus leaf vector. *)

val create : Step.config -> t

val event_id : t -> Csp_trace.Event.t -> int
(** Dense event ids, assigned on first sight. *)

val event : t -> int -> Csp_trace.Event.t
val n_events : t -> int

val decompose : t -> Csp_lang.Proc.t -> state
val build : ?like:Csp_lang.Proc.t * state -> state -> Csp_lang.Proc.t
(** The term back: [build (decompose t q) == q].  [like] is a term and
    its canonical form (typically the source of a move): subterms over
    unchanged leaves are taken from it instead of being re-interned. *)

val equal : state -> state -> bool
(** Same skeleton and physically equal leaves — equality of the terms
    for states of one context. *)

module Tbl : Hashtbl.S with type key = state

val successors : t -> state -> (int * Step.visibility * state) list
(** [(event id, visibility, target)] in [Step.transitions_i] order.
    @raise Step.Unproductive as [Step.transitions_i] does. *)
