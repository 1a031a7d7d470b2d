"""Answer tables: memoized subgoals, their answers, and completion state.

A table is keyed by the canonical form of its subgoal, so all variants of
a call share one table.  Answers are stored canonically as tuples over the
subgoal's distinct variables (first-occurrence order), appended in
derivation order and never removed; duplicates up to renaming are dropped.
Each table also carries one status bit per defining clause (cleared when
resolution proves a clause exhausted or cut away) and a completion flag.
A ground subgoal or answer is its own canonical form and is kept as it
comes, without a copy.

The store keeps two global memo counters: a boolean flag cleared at the
start of every re-evaluation pass, and a monotone count of all answers
ever memoized, which completion checks compare against a per-call
snapshot.  An answer tuple that is a variant of the subgoal's own variable
tuple covers every instance, so memoizing it completes the table at once;
a ground subgoal's empty tuple is the degenerate case.
"""

from __future__ import annotations

from .terms import Struct, Term, Var, canonicalize, format_term, format_tuple, vars_of

__all__ = ["Table", "TableStore"]


class Table:
    """One memoized subgoal: answers, per-clause status bits, completion."""

    __slots__ = ("key", "answers", "clause_status", "comp", "_seen", "_unit")

    def __init__(self, key: Struct, n_clauses: int) -> None:
        self.key = key
        self.answers: list[tuple[Term, ...]] = []
        self.clause_status: list[int] = [1] * n_clauses
        self.comp = False
        self._seen: set[tuple[Term, ...]] = set()
        self._unit = tuple(vars_of(key))

    def __repr__(self) -> str:
        return f"<Table {format_term(self.key)} answers={len(self.answers)} comp={int(self.comp)}>"


class TableStore:
    """All tables of one top-level evaluation, in creation order."""

    def __init__(self) -> None:
        self.tables: dict[Struct, Table] = {}
        self.new_flag = False
        self.memo_count = 0

    def get_or_create(self, subgoal: Struct, n_clauses: int,
                      mapping: dict[Var, Var] | None = None) -> tuple[Table, bool]:
        """The subgoal's table and whether it was just made.  A ground
        subgoal is its own key; ``mapping``, when given, receives the
        subgoal's variables in first-occurrence order, as ``canonicalize``
        fills it."""
        key = canonicalize(subgoal, mapping)
        t = self.tables.get(key)
        if t is not None:
            return t, False
        t = Table(key, n_clauses)
        self.tables[key] = t
        return t, True

    def memo(self, table: Table, answer: tuple[Term, ...]) -> tuple[tuple[Term, ...], bool]:
        """Record an answer; returns its canonical form and whether it was
        new (up to renaming)."""
        tup = canonicalize(answer)
        if tup in table._seen:
            return tup, False
        table.answers.append(tup)
        table._seen.add(tup)
        self.new_flag = True
        self.memo_count += 1
        if tup == table._unit:
            table.comp = True
        return tup, True

    def dump(self) -> list[str]:
        lines = []
        for t in self.tables.values():
            answers = ",".join(format_tuple(a) for a in t.answers)
            status = ",".join(str(s) for s in t.clause_status)
            lines.append(
                f"TB({format_term(t.key)}): answers=[{answers}]"
                f" status=[{status}] comp={int(t.comp)}"
            )
        return lines

