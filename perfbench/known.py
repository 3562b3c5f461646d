"""Known answers for every benchmark task, written by hand.

Nothing here is derived from the code under test.  Each entry gives the
verdict the task must reach when it reaches one, and, where the model
fixes it analytically, exact facts about the answer.

Verdict names are the ones perfbench/task.ml and the serve response
parser in workloads.py report.  A task whose tool output says
"undecided" (truncated exploration, NOT CERTIFIED, or a prover failure
on a true assertion) is undecided, never failed.  A task fails only
when its definite verdict, or one of the exact facts, contradicts this
table.

Why the exact state counts hold:
- Every graph task explores the definition name `net`, a state of its
  own before its first unfolding; no transition returns to the name, so
  each model's count gains exactly one state and the name's outgoing
  transitions.
- Workers n: n independent two-phase cyclers with disjoint alphabets,
  so 2^n interleaved states, each with exactly n enabled moves.
- Copier chain of 7 stages at nat-bound 3: each stage is empty or holds
  one of the values {0, 1, 2}, so 4 local states and 4^7 global ones.
- Token ring n: one token; the holder is either about to work or about
  to pass, so 2n states on one cycle with one move each.
- Symmetric philosophers (paper section 4): the only deadlock is every
  philosopher holding their left fork, so exactly one deadlock state.
  The left-handed seating has none.
- examples/protocol.csp: five definitions (sender, q, receiver,
  protocol, buffer) and four assertions, all true (paper Table 1).
- examples/sliding_window.csp: its four assertions are true (each is a
  prefix relation the window preserves), so a prover failure there is
  undecided, not failed.
- copier sat input <= output: copier = input?x -> wire!x -> copier
  never outputs on `output`, so the assertion is false after the first
  input.
- The workers family invariant #tock <= #tick holds for every n, so
  NOT CERTIFIED at depth 8 (a spurious abstract counterexample) is
  undecided.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Answer:
    verdict: str
    facts: dict = field(default_factory=dict)


def workers(n):
    return Answer("deadlock-free", {"states": 2**n + 1, "transitions": n * (2**n + 1), "deadlocks": 0})


KNOWN = {
    # cold-explore
    "workers-10": workers(10),
    "workers-12": workers(12),
    "chain-7": Answer("deadlock-free", {"states": 4**7 + 1, "deadlocks": 0}),
    "phil-5-lefty": Answer("deadlock-free", {"deadlocks": 0}),
    "phil-5-sym": Answer("deadlock", {"deadlocks": 1}),
    "commit-6": Answer("deadlock-free", {"deadlocks": 0}),
    "ring-10": Answer("deadlock-free", {"states": 2 * 10 + 1, "transitions": 2 * 10 + 1, "deadlocks": 0}),
    # cold-prove
    "prove-protocol": Answer("proved", {"proved": 4, "failed": 0}),
    "check-multiplier": Answer("holds", {"fails": 0}),
    "prove-window": Answer("proved", {"proved": 4, "failed": 0}),
    "refine-window-2-d12": Answer("refines"),
    "refine-window-3-d12": Answer("refines"),
    "refine-commit-6-d10": Answer("refines"),
    "family-leader-d16": Answer("certified"),
    "family-ring-d16": Answer("certified"),
    "family-workers-d6": Answer("certified"),
    "family-workers-d8": Answer("certified"),
    "check-copier-must-fail": Answer("fails", {"fails": 1, "holds": 0}),
    # the one-shot interactive probe of both cold workloads
    "parse-protocol": Answer("parsed", {"definitions": 5, "assertions": 4}),
    # serve-mixed, interactive connection
    "i.graph-phil-4": Answer("deadlock-free", {"deadlocks": 0}),
    "i.graph-commit-4": Answer("deadlock-free", {"deadlocks": 0}),
    "i.refine-window-2-d8": Answer("refines"),
    "i.refine-ring-10-d12": Answer("refines"),
    "i.parse-multiplier": Answer("parsed"),
    # serve-mixed, batch connection
    "b.prove-protocol": Answer("proved", {"proved": 4, "failed": 0}),
    "b.fuzz-60": Answer("agrees", {"cases": 60}),
    "b.graph-workers-12": workers(12),
    "b.refine-window-2-d12": Answer("refines"),
}

# A verdict that is not definite: bounded evidence only.
UNDECIDED = "undecided"


def classify(task, verdict, facts):
    """'decided', 'undecided' or 'failed' for one answer."""
    want = KNOWN[task]
    if verdict == UNDECIDED:
        return "undecided"
    if verdict != want.verdict:
        return "failed"
    for key, value in want.facts.items():
        if facts.get(key) != value:
            return "failed"
    return "decided"
