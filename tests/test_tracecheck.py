"""The trace checks fail on a bad trace: each hand-built trace below breaks
one rule once, and gets exactly one error."""

import pytest

from lintab.trace import event
from tracecheck import check_clause_skip, check_stack_discipline


def expand(node, parent, **fields):
    return event("expand", node=node, parent=parent, source="clause", **fields)


def backtrack(node):
    return event("backtrack", node=node)


ROOT = event("expand", node=0, parent=None, source="root")

# name: events, a part of the one error
BAD_STACKS = {
    # node 2 expands under node 0, but node 1 is the tip
    "expand-off-the-tip": ([ROOT, expand(1, 0), expand(2, 0), backtrack(2), backtrack(1),
                            backtrack(0)], "the active node is 1"),
    # node 0 is popped while node 1 is the tip; the check pops the tip
    "backtrack-off-the-tip": ([ROOT, expand(1, 0), backtrack(0), backtrack(0)],
                              "the active node is 1"),
    "nodes-left-active": ([ROOT, expand(1, 0), backtrack(1)], "1 nodes still active"),
    "first-expand-has-a-parent": ([expand(0, 7), backtrack(0)], "must be a root"),
    # node 1 is numbered but never expanded
    "node-number-skipped": ([ROOT, expand(2, 0), backtrack(2), backtrack(0)],
                            "the next node is 1"),
}


@pytest.mark.parametrize("name", BAD_STACKS)
def test_a_broken_stack_discipline_is_reported_once(name):
    events, part = BAD_STACKS[name]
    errors = check_stack_discipline(events)
    assert len(errors) == 1 and part in errors[0], errors


def test_a_clause_at_or_before_the_ancestors_is_reported_once():
    events = [ROOT, expand(1, 0, ord=2, anc=1), expand(2, 1, ord=2, anc=2), backtrack(2),
              backtrack(1), backtrack(0)]
    assert check_stack_discipline(events) == []
    errors = check_clause_skip(events)
    assert len(errors) == 1 and errors[0].startswith("event 2:"), errors
