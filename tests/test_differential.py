"""The differential's comparison, fed hand-built records, and the time cap
that the checks share."""

import gc
import time

import pytest

from differential import FIELDS, compare
from runs import Capped, capped

RUN, LONE = (0, "plain", "default", "traced"), (1, "plain", "default", "traced")
RECORD = {"status": "complete", "answers": [1, "a1"], "steps": 5, "next_id": 7,
          "dump": [1, "d1"], "events": [9, "e1"]}
CHANGED = dict(RECORD, steps=6)


@pytest.mark.parametrize("old, new, ended, capped_runs", [
    ({RUN: RECORD}, {RUN: dict(RECORD)}, 1, 0),
    ({RUN: {"capped": "time"}}, {RUN: CHANGED}, 0, 1),
    ({RUN: CHANGED}, {RUN: {"capped": "memory"}}, 0, 1),
    ({RUN: RECORD, LONE: CHANGED}, {RUN: RECORD}, 1, 0),
], ids=["identical", "capped-old", "capped-new", "missing"])
def test_only_runs_ended_on_both_sides_are_compared(old, new, ended, capped_runs):
    assert compare(old, new) == (1, ended, capped_runs, [])


@pytest.mark.parametrize("field", FIELDS)
def test_a_changed_field_is_listed_alone(field):
    changed = dict(RECORD, **{field: "changed"})
    assert compare({RUN: RECORD}, {RUN: changed}) == (1, 1, 0, [(RUN, [field], RECORD, changed)])


def test_the_cap_returns_capped_and_leaves_the_collector_on():
    assert capped(0.05, time.sleep, 1) is Capped
    assert gc.isenabled()
