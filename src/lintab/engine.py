"""Tabled resolution engine: loop checking and memoization on one stack.

The engine runs a left-to-right, depth-first derivation like ordinary
Prolog, but calls to tabled predicates go through answer tables.  A tabled
call first consumes answers already in its table (oldest first, through a
private cursor) and only then tries program clauses.  Resolving a tabled
call against a clause plants a ``memo-look`` item behind the clause body:
when the body has been proved, the item memoizes the call's computed
instance and immediately fetches the next unconsumed answer for the
continuation, so answers always flow through the table.  Answer tuples
never bind the continuation directly; the goal suffix past the first
pending memo-look stays uninstantiated until that memo-look fetches.

Self-dependent calls are handled by loop checking over ancestor lists: a
call that is a variant of an ancestor call skips clauses up to the one the
ancestor is currently using (guaranteeing no repeated derivation paths),
and the outermost call of a loop re-evaluates its clauses until a pass adds
no answer anywhere, then marks its table complete.  Clause status bits let
exhausted or cut-away clauses drop out of later passes.

A node's goal list is a chain of ``(item, rest)`` cells ending in None, and
like a Prolog continuation it is shared, not copied: a clause body is pushed
onto the tail its call leaves, a cut's continuation is that tail as it is,
and a binding rebuilds only the cells up to and including the first pending
memo-look.  A step therefore costs what its body and that prefix cost,
whatever the depth of the derivation.  Ground terms are shared too: a ground
call or answer is its own canonical form and its own renaming.

A call's ancestors are the origins of the memo-looks pending behind it in
its goal list, nearest first: the frames its continuation has yet to return
through.  The search sees through non-tabled calls, which plant none; it
relies on ``parse_program`` tabling every predicate on a dependency cycle,
so no variant of a call can sit above a non-tabled call on its path.

Cut prunes the derivation back to the call that introduced it, with the
usual Prolog semantics for non-tabled calls; for tabled calls it also
clears the status bits of the untried clauses, unless a suspension flag
says the pruned region depended on an incomplete table, in which case the
clauses survive for the next evaluation pass.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence

from .program import CUT, Cut, PredKey, Program, parse_program, parse_query
from .tables import Table, TableStore
from .terms import (
    Const,
    FreshVars,
    Struct,
    Subst,
    Term,
    Var,
    apply,
    apply_tuple,
    canonicalize,
    max_var_id,
    rename_apart,
    unify,
    vars_of,
)
from .trace import TraceEvent, event

__all__ = [
    "DEFAULT_STEP_BUDGET",
    "StepBudgetExceeded",
    "MemoLook",
    "Answer",
    "CutItem",
    "Node",
    "TPEngine",
    "SolveResult",
    "tp_solve",
]

DEFAULT_STEP_BUDGET = 10_000_000


class StepBudgetExceeded(RuntimeError):
    """The run used up its resolution step budget."""

    def __init__(self, steps: int) -> None:
        super().__init__(f"step budget exceeded after {steps} steps")
        self.steps = steps


@dataclass(frozen=True, slots=True, eq=False)
class MemoLook:
    """Memoize-then-fetch marker planted behind a tabled clause body.

    ``origin`` is the call's node, which holds its table and its variables;
    ``values`` is that variable tuple, instantiated as the body is proved.
    """

    origin: "Node"
    values: tuple[Term, ...]

    def substituted(self, s: Subst) -> "MemoLook":
        return MemoLook(self.origin, apply_tuple(self.values, s))


@dataclass(frozen=True, slots=True, eq=False)
class Answer:
    """End-of-goal marker carrying the query's variable tuple."""

    values: tuple[Term, ...]

    def substituted(self, s: Subst) -> "Answer":
        return Answer(apply_tuple(self.values, s))


@dataclass(frozen=True, slots=True, eq=False)
class CutItem:
    """An executable cut bound to the call whose clause introduced it."""

    origin: "Node"

    def substituted(self, s: Subst) -> "CutItem":
        return self


GoalItem = Struct | MemoLook | Answer | CutItem
# a goal list is a chain of (item, rest) cells, None when empty
Goals = tuple | None


def _push(items: Sequence[GoalItem], rest: Goals) -> Goals:
    """The goal list of ``items`` followed by ``rest``, which is shared."""
    for item in reversed(items):
        rest = (item, rest)
    return rest


def _subst_prefix(goals: Goals, s: Subst) -> Goals:
    """Apply a substitution up to and including the first memo-look; the
    cells past it belong to outer pending calls and are shared as they are."""
    if not s:
        return goals
    done: list[GoalItem] = []
    while goals is not None:
        item, goals = goals
        if type(item) is Struct:
            done.append(apply(item, s))
        else:
            done.append(item.substituted(s))
            if type(item) is MemoLook:
                break
    return _push(done, goals)


class Node:
    """One derivation step on the stack."""

    __slots__ = (
        "id",
        "parent",
        "items",
        "origin_kind",
        "clause_ptr",
        "answer_ptr",
        "susp",
        "loop",
        "iter_",
        "anc",
        "pass_mark",
        "iteration_pass",
        "table",
        "call_vars",
    )

    def __init__(self, id_: int, parent: "Node | None", items: Goals,
                 origin_kind: str, pass_mark: int) -> None:
        self.id = id_
        self.parent = parent
        self.items = items
        self.origin_kind = origin_kind
        self.clause_ptr = 0  # while a clause child is pending: that clause's ordinal
        self.answer_ptr = 0
        self.susp = 0
        self.loop = 0
        self.iter_ = 0
        self.anc = -1  # -1 unknown, 0 no ancestor variant, j>0 its in-use clause
        self.pass_mark = pass_mark
        self.iteration_pass = 0
        self.table: Table | None = None  # set with call_vars on a tabled call
        self.call_vars: tuple[Var, ...] = ()

    def __repr__(self) -> str:
        return f"<Node {self.id} {self.origin_kind}>"


class TPEngine:
    """Evaluator for one program; each ``solve`` call is an independent run
    with fresh tables and step counter.

    ``sink``, when given, receives each trace event as it is emitted.
    Without one the engine builds no event at all.
    """

    def __init__(
        self,
        program: Program,
        *,
        step_budget: int = DEFAULT_STEP_BUDGET,
        strict_alg2: bool = False,
        occurs_check: bool = False,
        sink: Callable[[TraceEvent], None] | None = None,
    ) -> None:
        self.program = program
        self.step_budget = step_budget
        self.strict_alg2 = strict_alg2
        self.occurs_check = occurs_check
        self.tables = TableStore()
        self._sink = sink
        self._stack: list[Node] = []
        self._steps = 0
        self._next_id = 0
        self._fresh = FreshVars()
        # per clause: cut-free body, (position, name) of constant head args
        # for cheap mismatch rejection, and whether the clause is ground
        self._clause_info: dict[int, tuple[tuple, tuple, bool]] = {}
        # first-argument index, per predicate: the positions of the clauses
        # whose first head argument is a given constant, and of those whose
        # first head argument is not a constant (these match any constant)
        self._const_first: dict[PredKey, dict[str, list[int]]] = {}
        self._open_first: dict[PredKey, list[int]] = {}
        # both merged, per (predicate, constant) called so far
        self._candidates: dict[tuple[PredKey, str], list[int]] = {}
        for key, clauses in program.by_predicate.items():
            by_const: dict[str, list[int]] = {}
            open_: list[int] = []
            for i, cl in enumerate(clauses):
                rest = tuple(b for b in cl.body if not isinstance(b, Cut))
                const_pos = tuple(
                    (j, a.name) for j, a in enumerate(cl.head.args) if isinstance(a, Const)
                )
                ground = not vars_of((cl.head,) + rest)
                self._clause_info[id(cl)] = (rest, const_pos, ground)
                if const_pos and const_pos[0][0] == 0:
                    by_const.setdefault(const_pos[0][1], []).append(i)
                else:
                    open_.append(i)
            self._const_first[key] = by_const
            self._open_first[key] = open_

    # -- bookkeeping -------------------------------------------------

    # Every event is built behind an ``if self._sink is not None`` check at
    # its call site, so a run without a sink pays nothing for its fields.

    def _register(self, items: Goals, parent: Node | None,
                  origin_kind: str) -> Node:
        node = Node(self._next_id, parent, items, origin_kind, self.tables.memo_count)
        self._next_id += 1
        self._stack.append(node)
        return node

    def _expanded(self, node: Node, **fields) -> None:
        parent = node.parent
        self._sink(event("expand", node=node.id, parent=None if parent is None else parent.id,
                         source=node.origin_kind, **fields))

    def _pop(self, node: Node) -> None:
        assert self._stack and self._stack[-1] is node
        self._stack.pop()
        if self._sink is not None:
            self._sink(event("backtrack", node=node.id))

    def _first_arg_candidates(self, key: PredKey, name: str) -> list[int]:
        """Positions, in textual order, of the clauses of ``key`` whose
        first head argument can match the constant ``name``."""
        cands = self._candidates.get((key, name))
        if cands is None:
            same = self._const_first.get(key, {}).get(name, [])
            open_ = self._open_first.get(key, [])
            # two sorted runs: timsort merges them in linear time
            cands = sorted(same + open_) if same and open_ else same or open_
            self._candidates[(key, name)] = cands
        return cands

    # -- resolution --------------------------------------------------

    def solve(self, query: Sequence[Struct]) -> Iterator[tuple[Term, ...]]:
        """Derivation as a generator of answer tuples over the query's
        distinct variables (first-occurrence order)."""
        self.tables = TableStore()
        self._stack = []
        self._steps = 0
        self._next_id = 0
        self._fresh = FreshVars(max_var_id(tuple(query)) + 1)

        qvars = vars_of(tuple(query))
        items = _push(query, (Answer(tuple(qvars)), None))
        node: Node | None = self._register(items, None, "root")
        if self._sink is not None:
            self._expanded(node)

        while node is not None:
            self._steps += 1
            if self._steps > self.step_budget:
                raise StepBudgetExceeded(self._steps)
            head = node.items[0]

            if type(head) is Struct:
                if (head.functor, len(head.args)) in self.program.tabled:
                    node = self._tabled_call(node, head)
                else:
                    child = self._clause_child(node)
                    node = child if child is not None else self._backtrack(node)
            elif isinstance(head, CutItem):
                # a cut that executes commits its origin's clause choice
                head.origin.susp = 0
                node = self._register(node.items[1], node, "cut")
                if self._sink is not None:
                    self._expanded(node)
            elif isinstance(head, Answer):
                if self._sink is not None:
                    self._sink(event("answer", node=node.id, tuple=canonicalize(head.values)))
                yield head.values
                node = self._backtrack(node)
            else:
                node = self._memo_look(node, head)

    def _memo_look(self, node: Node, ml: MemoLook) -> Node | None:
        tbl = ml.origin.table
        tup, new = self.tables.memo(tbl, ml.values)
        if self._sink is not None:
            self._sink(event("memo", table=tbl.key, tuple=tup, new=int(new), comp=int(tbl.comp)))
        return self._fetch_for(node, ml.origin, "lookup")

    def _fetch_for(self, node: Node, owner: Node, source: str) -> Node | None:
        """Consume the owner's next unconsumed answer, if any, and register
        the continuation under ``node``."""
        tbl = owner.table
        pos = owner.answer_ptr
        if pos >= len(tbl.answers):
            return self._backtrack(node)
        owner.answer_ptr = pos + 1
        stored = tbl.answers[pos]
        if self._sink is not None:
            self._sink(event("fetch", node=owner.id, table=tbl.key, tuple=stored, pos=pos))
        tup = rename_apart(stored, self._fresh)
        theta = dict(zip(owner.call_vars, tup))
        items = _subst_prefix(node.items[1], theta)
        child = self._register(items, node, source)
        if self._sink is not None:
            self._expanded(child, tuple=stored, pos=pos)
        return child

    def _tabled_call(self, node: Node, atom: Struct) -> Node | None:
        if node.table is None:
            n_clauses = len(self.program.by_predicate.get((atom.functor, len(atom.args)), ()))
            call_vars: dict[Var, Var] = {}
            node.table, _ = self.tables.get_or_create(atom, n_clauses, call_vars)
            node.call_vars = tuple(call_vars)
        tbl = node.table

        # table first: consume answers before touching clauses
        if node.answer_ptr < len(tbl.answers):
            return self._fetch_for(node, node, "answer")
        if tbl.comp:
            return self._backtrack(node)

        if node.anc == -1 and not self._ancestor_variant(node, rerun=False):
            node.anc = 0

        if node.anc == 0:
            while True:
                child = self._clause_child(node)
                if child is not None:
                    return child
                if not node.iter_:
                    # never part of a loop: the relation is fully evaluated
                    if not node.loop and not self.strict_alg2:
                        tbl.comp = True
                    return self._backtrack(node)
                if self.tables.memo_count == node.pass_mark:
                    tbl.comp = True
                    if self._sink is not None:
                        self._sink(event("iteration-end", node=node.id,
                                         iteration=node.iteration_pass,
                                         new=int(self.tables.new_flag), comp=1))
                    return self._backtrack(node)
                # the pass added answers somewhere: evaluate another pass
                self.tables.new_flag = False
                node.pass_mark = self.tables.memo_count
                node.iteration_pass += 1
                status = tbl.clause_status
                node.clause_ptr = next((i for i, bit in enumerate(status) if bit), len(status))
                if self._sink is not None:
                    self._sink(event("iteration-start", node=node.id,
                                     iteration=node.iteration_pass))
        else:
            child = self._clause_child(node)
            if child is not None:
                return child
            # exhausted under an ancestor variant: re-check the loop flags,
            # since intervening cuts may have reshaped the path
            self._ancestor_variant(node, rerun=True)
            return self._backtrack(node)

    def _ancestor_variant(self, node: Node, rerun: bool) -> bool:
        """Find the nearest ancestor call sharing the node's table and, if
        there is one, reflag the loop path from it down to the node."""
        path = [node]
        cell = node.items[1]
        while cell is not None:
            item, cell = cell
            if type(item) is MemoLook:
                top = item.origin
                path.append(top)
                if top.table is node.table:
                    path.reverse()
                    self._nodetype_update(path, top.clause_ptr, rerun)
                    return True
        return False

    def _clause_child(self, node: Node) -> Node | None:
        atom = node.items[0]
        args = atom.args
        key = (atom.functor, len(args))
        clauses = self.program.by_predicate.get(key, ())
        tbl = node.table
        tabled = tbl is not None
        # anc is -1, 0 or the clause j an ancestor variant is in; clauses at
        # positions below j have ordinals up to j, so a variant skips them
        start = max(node.clause_ptr, node.anc)
        if args and type(args[0]) is Const:
            # first-argument indexing: skip only clauses the const_pos
            # check below would reject, so the trace is the same
            cands = self._first_arg_candidates(key, args[0].name)
            positions = islice(cands, bisect_left(cands, start), None)
        else:
            positions = range(start, len(clauses))
        for i in positions:
            cl = clauses[i]
            if tabled and not tbl.clause_status[i]:
                continue
            rest, const_pos, ground = self._clause_info[id(cl)]
            for pos, cname in const_pos:
                a = args[pos]
                if type(a) is not Var and not (type(a) is Const and a.name == cname):
                    break
            else:
                if ground:
                    theta = unify(atom, cl.head, occurs_check=self.occurs_check)
                    if theta is None:
                        continue
                    rest2 = rest
                else:
                    mapping: dict = {}
                    theta = unify(atom, rename_apart(cl.head, self._fresh, mapping),
                                  occurs_check=self.occurs_check)
                    if theta is None:
                        continue
                    rest2 = rename_apart(rest, self._fresh, mapping)
                node.clause_ptr = i + 1

                renamed_body = iter(rest2)
                body = [CutItem(node) if isinstance(b, Cut) else apply(next(renamed_body), theta)
                        for b in cl.body]
                if tabled:
                    values = apply_tuple(node.call_vars, theta)
                    items = _push(body, (MemoLook(node, values), node.items[1]))
                    child = self._register(items, node, "clause")
                    if self._sink is not None:
                        self._expanded(child, clause=cl.label, ord=cl.ordinal, anc=node.anc)
                    return child
                items = _push(body, _subst_prefix(node.items[1], theta))
                child = self._register(items, node, "clause")
                if self._sink is not None:
                    self._expanded(child, clause=cl.label, ord=cl.ordinal)
                return child
        node.clause_ptr = len(clauses)
        return None

    def _nodetype_update(self, path: list[Node], j: int, rerun: bool) -> None:
        """Reflag the calls on a freshly observed loop path.

        ``path`` runs from the ancestor variant (top) down to the call that
        spotted it (bottom); ``j`` is the clause the top is using.  Only the
        outermost call of overlapping loops keeps the iteration duty.
        """
        top, bottom = path[0], path[-1]
        changed = False
        for n in path[1:]:
            if not n.loop or n.iter_:
                changed = True
            n.loop, n.iter_ = 1, 0
        if not top.loop:
            top.loop = top.iter_ = 1
            changed = True
        if bottom.anc != j:
            bottom.anc = j
            changed = True
        for n in path[:-1]:
            if not n.susp:
                changed = True
            n.susp = 1
        if (not rerun or changed) and self._sink is not None:
            self._sink(event("loop-detected", node=bottom.id, top=top.id, clause=j,
                             path=tuple(n.id for n in path), rerun=int(rerun)))

    def _backtrack(self, node: Node) -> Node | None:
        while True:
            self._pop(node)
            parent = node.parent
            if parent is None:
                return None
            phead = parent.items[0]

            if isinstance(phead, CutItem):
                # prune everything back to the cut's origin in one sweep
                origin = phead.origin
                cur = parent
                while cur is not origin:
                    self._pop(cur)
                    cur = cur.parent
                tbl = origin.table
                if tbl is None:
                    node = origin
                    continue
                status = tbl.clause_status
                if origin.susp == 0:
                    # clear the cut clause and every clause after it
                    for i in range(origin.clause_ptr - 1, len(status)):
                        status[i] = 0
                else:
                    origin.susp = 0
                    origin.clause_ptr = len(status)
                return origin

            if isinstance(phead, MemoLook):
                node = parent
                continue

            if parent.table is not None and node.origin_kind == "clause":
                if parent.susp == 0:
                    parent.table.clause_status[parent.clause_ptr - 1] = 0
                else:
                    parent.susp = 0
            return parent


@dataclass(slots=True)
class SolveResult:
    """A finished ``tp_solve`` run; ``engine.events`` holds its trace."""

    answers: list[tuple[Term, ...]]
    status: str  # "complete" | "resource-limit"
    engine: TPEngine

    @property
    def answer_set(self) -> frozenset:
        return frozenset(canonicalize(a) for a in self.answers)


def tp_solve(
    program: Program | str,
    query: Sequence[Struct] | str,
    **options,
) -> SolveResult:
    """Run a query to exhaustion, collecting every answer and every trace
    event (into ``engine.events``).

    ``program`` and ``query`` may be source text or already parsed.
    """
    if isinstance(program, str):
        program = parse_program(program)
    if isinstance(query, str):
        query, _ = parse_query(query)
    events: list[TraceEvent] = []
    engine = TPEngine(program, sink=events.append, **options)
    engine.events = events
    answers: list[tuple[Term, ...]] = []
    status = "complete"
    try:
        for tup in engine.solve(query):
            answers.append(tup)
    except StepBudgetExceeded:
        status = "resource-limit"
    return SolveResult(answers, status, engine)
