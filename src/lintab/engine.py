"""Tabled resolution engine: loop checking and memoization on one stack.

The engine runs a left-to-right, depth-first derivation like ordinary
Prolog, but calls to tabled predicates go through answer tables.  A tabled
call first consumes answers already in its table (oldest first, through a
private cursor) and only then tries program clauses.  Resolving a tabled
call against a clause plants the call's own node behind the clause body as
its ``memo-look``: when the body has been proved, the memo-look memoizes
the call's computed instance and immediately fetches the next unconsumed
answer for the continuation.  The clauses resolve a fresh copy of the
call's table key, not the call itself, so the body's bindings never reach
the caller's variables, and answers flow to the continuation only through
the table.

Self-dependent calls are handled by loop checking over ancestor lists: a
call that is a variant of an ancestor call, a follower, skips clauses up to
the one the ancestor is currently using (guaranteeing no repeated
derivation paths), and the outermost call of a loop re-evaluates its
clauses until a pass adds no answer anywhere, then marks its table
complete.  Clause status bits let exhausted or cut-away clauses drop out of
later passes.

As in a Prolog machine, bindings live in one store and a trail undoes
them.  Each node records the trail length when it is registered; its own
bindings (a clause head's unifier, or a fetched answer bound to the call's
variables) go above that mark, and popping the node undoes them, so a cut
that prunes back to its origin leaves the store as the origin had it.  A
goal is resolved against the store once, when it is called; a memo-look
reads the copy's variables through the store, resolving only those that
read as compounds, and the end of the goal list reads the query's as an
answer.  With the occurs check off, a cyclic binding raises
``CyclicTermError`` only once one of these reads it.

Every clause resolves through its template, one way, as a Prolog
machine's head instructions do: resolution matches the call against the
head in place, the call's arguments fill the head's variables, only the
call's own variables get bindings, and only the body is built.  A clause
with a variable is compiled into its template the first time it is tried;
a clause without one is its own template.

A node's goal list is a chain of ``(item, rest)`` cells ending in None, and
like a Prolog continuation it is shared, not copied: a clause body is pushed
onto the tail its call leaves, and a cut's or a fetch's continuation is that
tail as it is.  A step therefore costs what its call and body cost, whatever
the depth of the derivation.  Ground terms are shared too: a ground call or
answer is its own canonical form, its own renaming and its own copy, and a
compound keeps whether it is ground, so renaming a ground table key or a
ground answer returns it as it is without walking it.  The table store
looks a tabled call up as it stands, through the binding store.

A call's ancestors are the tabled calls whose memo-looks are pending behind
it in its goal list, nearest first: the frames its continuation has yet to
return through.  The search sees through non-tabled calls, which plant
none; it relies on ``parse_program`` tabling every predicate on a dependency
cycle, so no variant of a call can sit above a non-tabled call on its path.
A call that has just made its table has no ancestor variant, and skips the
search.

A follower's search flags the path from its ancestor variant, the top,
down to it once, before it tries a clause: every call below the top gets
``loop`` and loses ``iter_``, the top gets ``loop`` (and ``iter_`` if it
had no ``loop``), every call above the follower gets ``susp``, and the
follower's ``anc`` is the top's in-use clause.  No flag so set changes
before the follower runs out of clauses, so it does not search again:
``loop`` is never cleared, and a ``loop`` call never gets ``iter_`` again;
only the follower's own search sets its ``anc``; the top's in-use clause
moves only once that clause is backtracked, which pops the follower
first; and ``susp`` is cleared only by backtracking into a path call's
clause child, or by a cut in its clause, and both pop the follower before
it can run out, as backtracking that reaches the follower passes the
executed cut, which prunes past it.  The goal list the search walks is
shared and never changes, so it would find the same path again.

A tabled body goal's own variables are those that occur in no other goal of
its clause and not in its head, as ``Y`` in ``q(X) :- p(X,Y), r(X)``; the
cell of a goal with own variables also holds the registers its clause's
body was built from and the slots of those variables.  The answers it takes
bind its own variables only for the goal itself, so two answers with the
same projection onto its other call variables, up to renaming, give its
continuation the same bindings.  An answer is skipped, counting as
consumed, when its projection is that of an answer the goal has fetched
since the last answer was memoized anywhere, and the continuation reaches a
pending memo-look before the end of the goal list whose owner has no
unconsumed answer.  An existential goal, all of whose variables are its
own, as ``p(Y)`` in ``q(X) :- p(Y), r(X)``, projects every answer to the
empty tuple, so it skips every answer after its first fetch.  The repeat
would make the calls the earlier run made, against tables holding the
answers they held then and no more open clauses, so it would find a part of
what that run found: it would make no table, memoize only duplicates, clear
only clause bits that run cleared and set only loop flags that run set, and
each of its paths would end at that memo-look, in a duplicate and a fetch
that finds nothing, not in an answer Prolog would show again.  A skipped
answer therefore memoizes nothing and changes no table.  Without the
memo-look the repeat would end in such an answer, and an unconsumed answer
at the memo-look would go on to the rest of the goal list, so neither is
skipped; nor is an answer of a non-tabled goal, whose later clauses may
make new tables.  The projection is worked out only when the test is made,
over the answers the goal has passed since its first fetch at the current
memo count: each was fetched, or skipped for a projection fetched before.

A tabled call that was its clause body's last goal has its caller's
memo-look at the head of its continuation, so each answer it takes costs
two steps: the fetch registers a child that binds the call's variables to
the answer, and the child's step is the memo-look, which memoizes what the
owner's copy reads and fetches for the owner.  When the answer is ground,
each of the owner's copy variables reads as one of the call's variables or
a ground term, the tuple so read is already in the owner's table, and the
owner has no unconsumed answer, the memo is a duplicate that changes no
table, no flag and no count, and the memo-look has nothing to fetch, so
the child backtracks to the call and pops its bindings.  The two steps
then leave nothing behind but the call's cursor and fetch mark, a node
number and the step count, and a run without a sink takes the answer in
place: it moves these as the steps would and counts both against the
budget, but binds nothing and builds no node.  As nothing is bound
or memoized meanwhile, the owner's reading of the copy stays what it was
and the owner's table and cursor stay as they were, so the conditions of
every later answer can be read before any is taken.  The call therefore
scans its unconsumed answers up to the first that fails a condition and
accounts for the whole run at once: it moves the cursor past the run and
takes one node number and two steps per answer.  A goal with own
variables takes one answer at a time, so that before each take, as before
each fetch, its call skips the answers whose repeat can add nothing.  Only
the answers whose two steps fit in the budget are taken, and the next one
left is fetched as usual, so a budget that runs out stops the run in
``solve``, at the step where taking the answers one by one would.  A
traced run fetches every answer, so each event is emitted at the step it
records and every ``expand`` is a node the engine built; it shows the same
answers, tables and steps, and ends with the same node count, as the run
without a sink.

A memo-look whose owner has an unconsumed answer fetches it, and if the
owner was its caller's last goal, the child's one step is the caller's
memo-look.  A run without a sink passes a new answer up such a chain in
place, link by link, while the answer at the owner's cursor is ground,
each of the caller's copy variables reads as one of the owner's call
variables or a ground term, and the child's step fits in the budget: it
moves the owner's cursor as the fetch would, takes the child's node number
and step, memoizes the tuple the caller's memo-look would read, built from
the stored answer, and goes on with the caller as the owner.  Built from a
ground answer and ground terms, the tuple is its own canonical form, so
the link adds it to the caller's table itself: if the table does not hold
it yet, it appends it and counts the memo, and only the empty tuple
completes the table, as a ground tuple covers no other answer.  The first
link that fails a condition is fetched as usual, with the continuation the
chain has reached as the child's goal list, under the first memo-look's
node; an owner with nothing to fetch backtracks from that node.  This is
exact.  The skipped child's bindings are read only by the next memo-look,
as the clauses resolve a fresh copy of the key and nothing after the
caller's memo-look names the owner's call variables.  A memo-look node
passes backtracking straight through and is never a cut's origin, so the
child hung under the first memo-look node pops, restores the store and
prunes as it would under the last skipped child.  The reading of the
caller's copy is fixed once the owner's node exists, as the call's
ancestors made the bindings that decide it and the owner's call variables
are unbound wherever its memo-look is pending or it takes answers in
place, so the node keeps it for both.

A tabled call resolves a renamed copy of its table key, so whether the
matcher rejects a clause's head is the same for every call of the table.
When a table's clauses run again, in a leader's next pass or in a call
that did not make the table and has no ancestor variant, the table keeps
the positions of the clauses its key matches whose status bit is still
set, as a clear bit is never set again, and later walks try only those.
The test match draws variables of its own, so the run's fresh variables
do not move.  Making a table, and the first pass over its clauses, try
them all, as most tables are evaluated once.

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
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .program import Cut, PredKey, Program, parse_program, parse_query
from .tables import Table, TableStore
from .templates import Template, _build, _compile, _match
from .terms import (
    Const,
    FreshVars,
    Struct,
    Subst,
    Term,
    Var,
    _ground,
    apply,
    apply_tuple,
    canonicalize,
    max_var_id,
    rename_apart,
    unify,  # unused here, but bench/layers.py wraps lintab.engine.unify
    vars_of,
)
from .trace import TraceEvent, event

__all__ = [
    "DEFAULT_STEP_BUDGET",
    "StepBudgetExceeded",
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
class CutItem:
    """An executable cut bound to the call whose clause introduced it."""

    origin: "Node"


# a goal list is a chain of (item, rest) cells, None when empty; an item is
# a call, a cut, or a tabled call's own node planted as its memo-look; the
# cell of a tabled goal with own variables is (item, rest, registers, the
# slots of its own variables), the registers its clause's body was built from
Goals = tuple | None


def _push(items: Sequence, rest: Goals, marked: dict[int, tuple] | None = None,
          regs: list | None = None) -> Goals:
    """The goal list of ``items`` followed by ``rest``, which is shared; the
    item at a position in ``marked`` gets a cell with ``regs`` and the slots
    it maps to."""
    for k in range(len(items) - 1, -1, -1):
        own = marked.get(k) if marked else None
        rest = (items[k], rest) if own is None else (items[k], rest, regs, own)
    return rest


# the projection of an existential goal's answers: a[0:0], the empty tuple
_EMPTY = itemgetter(slice(0, 0))


class Node:
    """One derivation step on the stack.  A tabled call's node is also the
    memo-look planted behind its clause bodies."""

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
        "atom",
        "copy_vars",
        "mark",
        "fetch_mark",
        "scan",
        "done",
        "reads",
    )

    def __init__(self, id_: int, parent: "Node | None", items: Goals,
                 origin_kind: str, pass_mark: int, mark: int) -> None:
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
        self.atom: Struct | None = None  # the call its clauses resolve, once known
        self.copy_vars: tuple[Var, ...] = ()  # a tabled call's copy's variables
        self.mark = mark  # trail length before the node's own bindings
        self.fetch_mark = -1  # memo count at the node's last fetch as an owner
        # set from the first fetch or take at a memo count on, and only read then:
        # ``done`` holds the projections of the answers passed since, up to
        # answer ``scan``, once a goal with own variables has made it; until
        # then ``scan`` is ~ the position of that fetch
        self.reads: tuple | bool | None = None  # see ``_reading``; None until worked out

    def __repr__(self) -> str:
        return f"<Node {self.id} {self.origin_kind}>"


class TPEngine:
    """Evaluator for one program; each ``solve`` call is an independent run
    with fresh tables, bindings and step counter.

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
        self._store: Subst = {}
        self._trail: list[Var] = []
        self._steps = 0
        self._next_id = 0
        self._fresh = FreshVars()
        # first-argument index, per predicate: the positions of the clauses
        # whose first head argument is not a constant, which match any
        # constant, and per constant the positions of the clauses that can
        # match it, these among them; a constant no head names gets these
        self._const_first: dict[PredKey, dict[str, list[int]]] = {}
        self._open_first: dict[PredKey, list[int]] = {}
        # per clause, its template: a ground clause's is set here, and any
        # other's is compiled the first time the clause is tried
        self._templates: dict[int, Template] = {}
        for key, clauses in program.by_predicate.items():
            by_const: dict[str, list[int]] = {}
            open_: list[int] = []
            for i, cl in enumerate(clauses):
                args = cl.head.args
                if args and type(args[0]) is Const:
                    by_const.setdefault(args[0].name, []).append(i)
                else:
                    open_.append(i)
                if _ground((cl.head,) + cl.body):
                    self._templates[id(cl)] = (0, args, cl.body, None)
            if open_:
                # two sorted runs: timsort merges them in linear time
                by_const = {name: sorted(same + open_) for name, same in by_const.items()}
            self._const_first[key] = by_const
            self._open_first[key] = open_

    # -- bookkeeping -------------------------------------------------

    # Every event is built behind an ``if self._sink is not None`` check at
    # its call site, so a run without a sink pays nothing for its fields.

    def _register(self, items: Goals, parent: Node | None, origin_kind: str,
                  theta: Subst | None = None) -> Node:
        """A new node.  ``theta`` binds unbound variables above the node's
        trail mark, so popping the node undoes it."""
        node = Node(self._next_id, parent, items, origin_kind, self.tables.memo_count,
                    len(self._trail))
        self._next_id += 1
        if theta:
            self._store.update(theta)
            self._trail.extend(theta)
        return node

    def _expanded(self, node: Node, **fields) -> None:
        parent = node.parent
        self._sink(event("expand", node=node.id, parent=None if parent is None else parent.id,
                         source=node.origin_kind, **fields))

    def _pop(self, node: Node) -> None:
        trail, store = self._trail, self._store
        while len(trail) > node.mark:
            del store[trail.pop()]
        if self._sink is not None:
            self._sink(event("backtrack", node=node.id))

    # -- resolution --------------------------------------------------

    def solve(self, query: Sequence[Struct]) -> Iterator[tuple[Term, ...]]:
        """Derivation as a generator of answer tuples over the query's
        distinct variables (first-occurrence order)."""
        self.tables = TableStore()
        # the memo count when the latest pass began
        self._pass_start = 0
        self._store = {}
        self._trail = []
        self._steps = 0
        self._next_id = 0
        self._fresh = FreshVars(max_var_id(tuple(query)) + 1)

        qvars = tuple(vars_of(tuple(query)))
        node: Node | None = self._register(_push(query, None), None, "root")
        if self._sink is not None:
            self._expanded(node)

        while node is not None:
            self._steps += 1
            if self._steps > self.step_budget:
                raise StepBudgetExceeded(self._steps)
            if node.items is None:
                # the goal list is proved: an answer
                tup = apply_tuple(qvars, self._store)
                if self._sink is not None:
                    self._sink(event("answer", node=node.id, tuple=canonicalize(tup)))
                yield tup
                node = self._backtrack(node)
                continue
            head = node.items[0]

            if type(head) is Struct:
                if (head.functor, len(head.args)) in self.program.tabled:
                    node = self._tabled_call(node, head)
                else:
                    child = self._clause_child(node)
                    node = child if child is not None else self._backtrack(node)
            elif type(head) is CutItem:
                # a cut that executes commits its origin's clause choice
                head.origin.susp = 0
                node = self._register(node.items[1], node, "cut")
                if self._sink is not None:
                    self._expanded(node)
            else:
                node = self._memo_look(node, head)

    def _memo_look(self, node: Node, origin: Node) -> Node | None:
        tbl = origin.table
        # an unbound variable or a constant is read as it is; only what
        # reads as a compound is resolved through the store
        store, read = self._store, []
        for v in origin.copy_vars:
            t = v
            while type(t) is Var:
                b = store.get(t)
                if b is None:
                    break
                t = b
            read.append(apply(v, store) if type(t) is Struct else t)
        tup, new = self.tables.memo(tbl, tuple(read))
        if self._sink is not None:
            self._sink(event("memo", table=tbl.key, tuple=tup, new=int(new), comp=int(tbl.comp)))
        # a run without a sink passes a ground answer up to the memo-look
        # it would fetch for in place, as the module docstring sets out
        while origin.answer_ptr < len(tbl.answers) and not self._skips_repeats(origin):
            stored = tbl.answers[origin.answer_ptr]
            reads = origin.reads
            if reads is None:
                reads = self._reading(origin)
            if (reads is False or self._sink is not None or self._steps >= self.step_budget
                    or not (tbl.ground or _ground(stored))):
                return self._fetch_for(node, origin, "lookup")
            # the fetch's child, and its step: the next memo-look
            self._consume(origin, 1)
            self._steps += 1
            self._next_id += 1
            origin = origin.items[1][0]
            tbl = origin.table
            # built from a ground answer and ground terms: its own canonical
            # form, memoized here without a walk; only () completes a table
            tup = stored if reads is True else tuple(
                [stored[p] if type(p) is int else p for p in reads])
            if tup not in tbl._seen:
                tbl.answers.append(tup)
                tbl._seen.add(tup)
                self.tables.memo_count += 1
                if not tup:
                    tbl.comp = True
        return self._backtrack(node)

    def _skips_repeats(self, owner: Node) -> bool:
        """Move the owner's cursor past the unconsumed answers whose repeat
        of its continuation can add nothing, as the module docstring sets
        out; whether it has none left."""
        if len(owner.items) == 2 or owner.fetch_mark != self.tables.memo_count:
            return False
        cell = owner.items[1]
        while cell is not None:
            item = cell[0]
            if type(item) is Node:
                if item.answer_ptr < len(item.table.answers):
                    return False
                key, done = self._projected(owner)
                answers = owner.table.answers
                # the empty projection is that of every answer
                end = len(answers) if key is _EMPTY else owner.answer_ptr
                while end < len(answers) and key(answers[end]) in done:
                    end += 1
                owner.answer_ptr = owner.scan = end
                return end == len(answers)
            cell = cell[1]
        return False

    def _projected(self, owner: Node) -> tuple[Callable[[tuple], object], set]:
        """The projection of the owner's answers onto its call variables
        other than its goal's own variables, up to renaming, and the set of
        the projections of the answers it has passed since its first fetch
        at the current memo count."""
        _, _, regs, slots = owner.items
        call_vars = owner.call_vars
        if len(slots) == len(call_vars):
            # every call variable is its own: the empty projection
            return _EMPTY, {()}
        own = [regs[s] for s in slots]
        get = itemgetter(*[i for i, c in enumerate(call_vars) if c not in own])
        tbl = owner.table
        key = get if tbl.ground else (lambda a: canonicalize(get(a)))
        scan = owner.scan
        if scan < 0:
            scan, owner.done = ~scan, set()
        done = owner.done
        done.update(map(key, tbl.answers[scan:owner.answer_ptr]))
        owner.scan = owner.answer_ptr
        return key, done

    def _take_in_place(self, node: Node) -> bool:
        """Take in place the run of the node's unconsumed answers that its
        memo-look would drop, as far as their two steps each fit in the
        budget, in a run without a sink, as the module docstring sets out;
        whether it took any.  A goal with own variables takes at most one,
        so that ``_skips_repeats`` sees the next first."""
        reads = node.reads
        if reads is None:
            reads = self._reading(node)
        if reads is False:
            return False
        owner = node.items[1][0]
        otbl = owner.table
        if owner.answer_ptr < len(otbl.answers):
            return False
        tbl, seen = node.table, otbl._seen
        answers, ground = tbl.answers, tbl.ground
        room = (self.step_budget - self._steps) // 2
        end = node.answer_ptr
        stop = min(len(answers), end + (min(room, 1) if len(node.items) == 4 else room))
        while end < stop:
            stored = answers[end]
            if not (ground or _ground(stored)) or (
                    stored if reads is True else tuple(
                        [stored[p] if type(p) is int else p for p in reads])) not in seen:
                break
            end += 1
        taken = end - node.answer_ptr
        if not taken:
            return False
        # per answer taken, two steps and the child's node number: the
        # child's memo-look, a duplicate with nothing for the owner to
        # fetch, so the child backtracks, and the node's next
        self._consume(node, taken)
        self._steps += 2 * taken
        self._next_id += taken
        return True

    def _reading(self, node: Node) -> tuple | bool:
        """What the memo-look at the head of the call's continuation reads
        once the call's variables are bound to an answer, per copy
        variable of its owner: the position of the call variable it reads
        as, or the ground term it reads as; True if it reads the call's
        variables in order, so each answer as it is stored, and False if
        there is no such memo-look or it reads anything else.  Only the
        call's ancestors bind what decides it, and the call's variables are
        unbound wherever this is asked, so it is worked out once, while
        ``node.reads`` is None, and kept there."""
        node.reads = False  # until the reading is shown
        cell = node.items[1]
        if cell is None or type(cell[0]) is not Node:
            return False
        store, call_vars, proj = self._store, node.call_vars, []
        for v in cell[0].copy_vars:
            while type(v) is Var:
                b = store.get(v)
                if b is None:
                    break
                v = b
            if type(v) is Var:
                if v not in call_vars:
                    return False
                proj.append(call_vars.index(v))
            elif _ground(v):
                proj.append(v)
            else:
                return False
        node.reads = reads = proj == list(range(len(call_vars))) or tuple(proj)
        return reads

    def _consume(self, owner: Node, count: int) -> int:
        """Move the owner's cursor past its next ``count`` unconsumed
        answers, which the caller has checked there are; the first one's
        position."""
        pos = owner.answer_ptr
        owner.answer_ptr = pos + count
        memo_count = self.tables.memo_count
        if owner.fetch_mark != memo_count:
            # the first fetch or take since a memo: the projections start here
            owner.fetch_mark, owner.scan = memo_count, ~pos
        return pos

    def _fetch_for(self, node: Node, owner: Node, source: str) -> Node:
        """Consume the owner's next unconsumed answer, which the caller has
        checked there is, and register the continuation under ``node``."""
        tbl = owner.table
        pos = self._consume(owner, 1)
        stored = tbl.answers[pos]
        if self._sink is not None:
            self._sink(event("fetch", node=owner.id, table=tbl.key, tuple=stored, pos=pos))
        tup = stored if tbl.ground else rename_apart(stored, self._fresh)
        child = self._register(owner.items[1], node, source, dict(zip(owner.call_vars, tup)))
        if self._sink is not None:
            self._expanded(child, tuple=stored, pos=pos)
        return child

    def _tabled_call(self, node: Node, atom: Struct) -> Node | None:
        tbl = node.table
        if tbl is None:
            call_vars: dict[Var, Var] = {}
            tbl, created = self.tables.get_or_create(atom, call_vars, self._store)
            if created:
                clauses = self.program.by_predicate.get((atom.functor, len(atom.args)), ())
                tbl.clause_status = [1] * len(clauses)
                # no other call holds a table just made: no ancestor variant
                node.anc = 0
            node.table = tbl
            node.call_vars = tuple(call_vars)

        # table first: consume answers before touching clauses; a traced
        # run fetches each, so each of its steps has its events
        while node.answer_ptr < len(tbl.answers) and not self._skips_repeats(node):
            if self._sink is not None or not self._take_in_place(node):
                return self._fetch_for(node, node, "answer")
        if tbl.comp:
            return self._backtrack(node)
        if node.atom is None:
            # clauses resolve a fresh copy of the call, so the body's
            # bindings reach the caller only through the table
            copy: dict[Var, Var] = {}
            node.atom = rename_apart(tbl.key, self._fresh, copy)
            node.copy_vars = tuple(copy.values())

        if node.anc == -1 and not self._ancestor_variant(node):
            # a call that did not make the table runs its clauses again
            node.anc = 0
            if tbl.cands is None:
                tbl.cands = self._candidates(tbl)

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
                                         new=int(self.tables.memo_count != self._pass_start),
                                         comp=1))
                    return self._backtrack(node)
                # the pass added answers somewhere: evaluate another pass
                node.pass_mark = self._pass_start = self.tables.memo_count
                node.iteration_pass += 1
                # _clause_child skips the clauses whose bit is clear
                node.clause_ptr = 0
                if tbl.cands is None:
                    tbl.cands = self._candidates(tbl)
                if self._sink is not None:
                    self._sink(event("iteration-start", node=node.id,
                                     iteration=node.iteration_pass))
        else:
            # a follower: its first search set its loop flags for good
            child = self._clause_child(node)
            return child if child is not None else self._backtrack(node)

    def _ancestor_variant(self, node: Node) -> bool:
        """Find the nearest ancestor call sharing the node's table and, if
        there is one, flag the loop path from it down to the node."""
        path = [node]
        cell = node.items[1]
        while cell is not None:
            item = cell[0]
            if type(item) is Node:
                path.append(item)
                if item.table is node.table:
                    path.reverse()
                    self._nodetype_update(path, item.clause_ptr)
                    return True
            cell = cell[1]
        return False

    def _candidates(self, tbl: Table) -> list[int]:
        """The positions of the clauses whose status bit is set and whose
        head the table's key matches.  Every call of the table resolves a
        renamed copy of its key, and a clear bit is never set again, so
        these are the clauses any later call can resolve.  The match draws
        from a ``FreshVars`` of its own, so the run's variables are not
        moved."""
        args = tbl.key.args
        pred = (tbl.key.functor, len(args))
        clauses = self.program.by_predicate.get(pred, ())
        if clauses and args and type(args[0]) is Const:
            positions = self._const_first[pred].get(args[0].name, self._open_first[pred])
        else:
            positions = range(len(clauses))
        fresh, out = FreshVars(), []
        for i in positions:
            if not tbl.clause_status[i]:
                continue
            cl = clauses[i]
            tmpl = self._templates.get(id(cl))
            if tmpl is None:
                tmpl = self._templates[id(cl)] = _compile(cl.head, cl.body, self.program.tabled)
            if _match(tmpl[1], args, [None] * tmpl[0], fresh, self.occurs_check) is not None:
                out.append(i)
        return out

    def _clause_child(self, node: Node) -> Node | None:
        atom = node.atom
        if atom is None:
            # resolved once: backtracking into the node restores its store
            atom = node.atom = apply(node.items[0], self._store)
        args = atom.args
        key = (atom.functor, len(args))
        clauses = self.program.by_predicate.get(key, ())
        tbl = node.table
        tabled = tbl is not None
        # anc is -1, 0 or the clause j an ancestor variant is in; clauses at
        # positions below j have ordinals up to j, so a variant skips them
        start = max(node.clause_ptr, node.anc)
        # a table's candidates, or first-argument indexing: skip only clauses
        # whose head the matcher would reject, so the trace is the same
        cands = tbl.cands if tabled else None
        if cands is None and clauses and args and type(args[0]) is Const:
            cands = self._const_first[key].get(args[0].name, self._open_first[key])
        if cands is None:
            positions = range(start, len(clauses))
        else:
            positions = islice(cands, bisect_left(cands, start), None)
        fresh = self._fresh
        for i in positions:
            if tabled and not tbl.clause_status[i]:
                continue
            cl = clauses[i]
            tmpl = self._templates.get(id(cl))
            if tmpl is None:
                tmpl = self._templates[id(cl)] = _compile(cl.head, cl.body, self.program.tabled)
            n_slots, head_t, body_t, marked = tmpl
            regs = [None] * n_slots
            theta = _match(head_t, args, regs, fresh, self.occurs_check)
            if theta is None:
                continue
            body = [_build(b, regs, fresh) if type(b) is tuple
                    else CutItem(node) if type(b) is Cut else b for b in body_t]
            node.clause_ptr = i + 1

            rest = (node, node.items[1]) if tabled else node.items[1]
            child = self._register(_push(body, rest, marked, regs), node, "clause", theta)
            if self._sink is not None:
                anc = {"anc": node.anc} if tabled else {}
                self._expanded(child, clause=cl.label, ord=cl.ordinal, **anc)
            return child
        return None

    def _nodetype_update(self, path: list[Node], j: int) -> None:
        """Flag the calls on a loop path, once, as the module docstring
        sets out.  ``path`` runs from the ancestor variant (top) down to the
        call that spotted it (bottom); ``j`` is the clause the top is using.
        Only the outermost call of overlapping loops keeps the iteration
        duty.  The event's ``rerun`` is always 0, so traces read as before.
        """
        top, bottom = path[0], path[-1]
        for n in path[1:]:
            n.loop, n.iter_ = 1, 0
        if not top.loop:
            top.loop = top.iter_ = 1
        bottom.anc = j
        for n in path[:-1]:
            n.susp = 1
        if self._sink is not None:
            self._sink(event("loop-detected", node=bottom.id, top=top.id, clause=j,
                             path=tuple(n.id for n in path), rerun=0))

    def _backtrack(self, node: Node) -> Node | None:
        while True:
            self._pop(node)
            parent = node.parent
            if parent is None:
                return None
            phead = parent.items[0]

            if type(phead) is CutItem:
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

            if type(phead) is Node:
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
