"""The differential's comparison, fed hand-built records, and the time cap
that the checks share."""

import gc
import time

import pytest

from differential import FIELDS, capped_on_one_side, compare, compare_results
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


def test_results_compare_what_a_step_saving_change_keeps():
    done = dict(RECORD, canonical=[1, "c1"])
    saved = dict(done, answers=[1, "a2"], steps=3, next_id=4, events=[7, "e2"])
    limited = dict(done, status="resource-limit", steps=2001)
    wrong = dict(done, canonical=[1, "c2"], dump=[1, "d2"])
    assert compare_results({RUN: done}, {RUN: saved}) == (1, 1, 0, [], [])
    assert compare_results({RUN: limited, LONE: done}, {RUN: done, LONE: {"capped": "time"}}) == (
        2, 0, 1, [(RUN, "resource-limit", "complete")], [])
    # runs the budget stops on both sides are not compared
    assert compare_results({RUN: limited}, {RUN: dict(limited, canonical=[0, "c0"])}) == (
        1, 0, 0, [], [])
    assert compare_results({RUN: done}, {RUN: wrong}) == (
        1, 1, 0, [], [(RUN, ["canonical", "dump"], done, wrong)])


def test_runs_capped_on_one_side_only_are_listed():
    capped_run = {"capped": "time"}
    old = {RUN: capped_run, LONE: RECORD, (2, "plain", "default", "traced"): capped_run}
    new = {RUN: RECORD, LONE: {"capped": "memory"}, (2, "plain", "default", "traced"): capped_run}
    assert capped_on_one_side(old, new) == [(RUN, "old"), (LONE, "new")]


def spin(seconds):
    """Use ``seconds`` of CPU time."""
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_the_cap_returns_capped_and_leaves_the_collector_on():
    assert capped(0.05, spin, 2) is Capped
    assert gc.isenabled()
    # the cap counts CPU time: a run that waits is not stopped
    assert capped(0.05, time.sleep, 0.2) is None
