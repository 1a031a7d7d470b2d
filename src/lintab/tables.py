"""Answer tables: memoized subgoals, their answers, and completion state.

A table is keyed by the canonical form of its subgoal, so all variants of
a call share one table.  Answers are stored canonically as tuples over the
subgoal's distinct variables (first-occurrence order), appended in
derivation order and never removed; duplicates up to renaming are dropped.
Each table also carries one status bit per defining clause, which the
engine sets when it makes the table and clears when resolution proves a
clause exhausted or cut away, and a completion flag.  A ground subgoal or
answer is its own canonical form and is kept as it comes, without a copy.

A call is looked up as it stands, its arguments dereferenced through the
engine's binding store, in one pass that builds a flat variant key: the
functor, then per argument a constant's name (a ``str``), a variable's
first-occurrence number (an ``int``), or a compound's canonical form,
resolved through the store and renamed on from the variables numbered so
far.  Without a compound such a tuple hashes and compares in C, so a hit
builds no term.  ``tables`` is the one index: it maps these flat keys to
the tables, in creation order.  The canonical key is built from the same
pass only when a table is made, and the table keeps it.

The store keeps one memo counter, a monotone count of all answers ever
memoized, which the engine compares against snapshots to tell whether a
pass, or the time since a fetch, added an answer anywhere.  A canonical
answer covers every instance exactly when it is a tuple of distinct
variables, so memoizing one completes the table at once; a ground
subgoal's empty tuple is the degenerate case, and the only ground answer
that completes its table.  A table's answers are a list in derivation
order and a set that the engine also reads, to tell whether a ground
answer is already held, and the table keeps whether every answer is
ground, so that the engine uses each as stored without walking it.  The
engine also appends ground answers itself, when it passes a new answer
up a chain of memo-looks in place: each such tuple is its own canonical
form, and it keeps the list, the set, the memo counter and completion as
``memo`` would.
"""

from __future__ import annotations

# vars_of is unused here, but bench/layers.py wraps lintab.tables.vars_of
from .terms import (
    Const,
    Struct,
    Subst,
    Term,
    Var,
    _canonical_var,
    _ground,
    _rename,
    apply,
    canonicalize,
    format_term,
    format_tuple,
    vars_of,
)

__all__ = ["Table", "TableStore"]


class Table:
    """One memoized subgoal: answers, per-clause status bits, completion."""

    __slots__ = ("key", "answers", "clause_status", "comp", "_seen", "ground", "cands")

    def __init__(self, key: Struct) -> None:
        self.key = key
        self.answers: list[tuple[Term, ...]] = []
        self.clause_status: list[int] = []
        self.comp = False
        self._seen: set[tuple[Term, ...]] = set()
        self.ground = True  # whether every answer is ground
        # the positions of the clauses the key matches, once the engine
        # has run the clauses again
        self.cands: list[int] | None = None

    def __repr__(self) -> str:
        return f"<Table {format_term(self.key)} answers={len(self.answers)} comp={int(self.comp)}>"


class TableStore:
    """All tables of one top-level evaluation, in creation order."""

    def __init__(self) -> None:
        # by the flat variant key of their calls
        self.tables: dict[tuple, Table] = {}
        self.memo_count = 0

    def get_or_create(self, subgoal: Struct, mapping: dict[Var, Var],
                      store: Subst) -> tuple[Table, bool]:
        """The table of ``subgoal`` under the bindings in ``store`` and
        whether it was just made.  ``mapping`` receives the call's
        variables in first-occurrence order, as ``canonicalize`` fills it."""
        key = [subgoal.functor]
        args = []
        for a in subgoal.args:
            while type(a) is Var:
                b = store.get(a)
                if b is None:
                    break
                a = b
            if type(a) is Var:
                c = mapping.get(a)
                if c is None:
                    c = mapping[a] = _canonical_var(len(mapping))
                key.append(~c.id)  # the canonical _k has id -(k+1)
                args.append(c)
            elif type(a) is Const:
                key.append(a.name)
                args.append(a)
            else:
                # a compound, resolved and renamed under the mapping so far,
                # is its own part of the key
                a = canonicalize(apply(a, store), mapping)
                key.append(a)
                args.append(a)
        flat = tuple(key)
        t = self.tables.get(flat)
        if t is not None:
            return t, False
        t = self.tables[flat] = Table(Struct(subgoal.functor, tuple(args)))
        return t, True

    def memo(self, table: Table, answer: tuple[Term, ...]) -> tuple[tuple[Term, ...], bool]:
        """Record an answer; returns its canonical form and whether it was
        new (up to renaming).  A ground answer is its own canonical form and
        is kept as it comes; it completes its table only when it is the
        empty tuple of a ground subgoal."""
        ground = _ground(answer)
        tup = answer if ground else _rename(answer, None, None)
        if tup in table._seen:
            return tup, False
        table.answers.append(tup)
        table._seen.add(tup)
        table.ground = table.ground and ground
        self.memo_count += 1
        if not tup or (not ground and all(type(t) is Var for t in tup)
                       and len(set(tup)) == len(tup)):
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

