"""Run the sweep grid and graphs on two source trees, and list runs that differ.

Usage::

    python tests/differential.py OLD_TREE NEW_TREE [--seeds A-B] [--results]

Each run is a ``generate_program`` seed (0-499 by default), as generated or
through one of the rewrites in ``rewrites.py``, or a right- or
left-recursive ``reach(n0,Y)`` over one of the graphs of ``runs.graphs``
(rings and random digraphs, the same whatever the seeds), solved by
``TPEngine`` at a 2,000-step budget with the default options, under
``strict_alg2`` or under ``occurs_check``, traced and untraced.  Per run
it records how the run ended, the count and sha256 of the ``repr()`` of
its raw answers (which names each variable with its id) and of its
canonical answers in order, its steps, its ``_next_id``, and the count and
sha256 of ``tables.dump()`` and, when traced, of the formatted events.

Each tree runs in a child process of its own, with ``PYTHONPATH=<tree>/src``
and a 1 GB address-space limit; a run that takes more than 1 s, or runs out
of memory, is counted as capped and left out of the comparison.  The two
children run side by side, one per tree.  The summary line gives how many
runs were compared, how many ended on both sides and how many were capped
on either side; each run that ended on both sides and differs is listed
with the fields that differ, and the exit status is then 1.

``--results`` judges a change that saves steps, which moves the step and
node counts, the events, the fresh variables' ids and where the budget
stops a run.  It compares only how each run ends and, where both sides
complete, the canonical answers in order and the tables.  A run whose
status changed is listed apart and does not fail the comparison.
"""

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from itertools import chain

from runs import MODES, REWRITES, Capped, capped, digest, graphs, solved, sweep

STEP_BUDGET = 2_000
CAP_S = 1.0
CAP_AS = 1 << 30
FIELDS = ("status", "answers", "steps", "next_id", "dump", "events")
RESULTS = ("canonical", "dump")


def seed_range(text):
    """``"A-B"`` (or ``"A"``) as the range of seeds A to B inclusive.

    >>> seed_range("0-19")
    range(0, 20)
    >>> seed_range("7")
    range(7, 8)
    """
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def run_one(src, query, options, traced):
    """The record of one run: how it ended, and its answers, steps, node
    count, tables and events."""
    from lintab.engine import TPEngine
    from lintab.program import parse_program
    from lintab.terms import canonicalize, format_tuple
    from lintab.trace import format_event

    events = [] if traced else None
    engine = TPEngine(parse_program(src), step_budget=STEP_BUDGET,
                      sink=None if events is None else events.append, **options)
    # CyclicTermError without the occurs check, or a fault, is the status
    status, answers, steps, next_id, dump = solved(engine, query, (Exception,))
    record = {"status": status, "answers": digest(map(repr, answers)),
              "canonical": digest(format_tuple(canonicalize(a)) for a in answers),
              "steps": steps, "next_id": next_id, "dump": digest(dump)}
    if traced:
        record["events"] = digest(map(format_event, events))
    return record


def child(seeds):
    """Run the grid in this process, one JSON line per run on stdout."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (CAP_AS, resource.getrlimit(resource.RLIMIT_AS)[1]))
    for seed, name, src, query in chain(sweep(seeds), graphs()):
        for mode, options in MODES.items():
            for traced in (True, False):
                try:
                    record = capped(CAP_S, run_one, src, query, options, traced)
                except MemoryError:
                    record = {"capped": "memory"}
                except Exception as e:  # in the dump or a digest
                    record = {"status": f"{type(e).__name__} after the run: {e}"}
                if record is Capped:
                    record = {"capped": "time"}
                record["run"] = [seed, name, mode, "traced" if traced else "untraced"]
                print(json.dumps(record), flush=True)


def run_tree(tree, seeds):
    """The records of ``tree``'s child by run, and its exit status."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", f"{seeds.start}-{seeds.stop - 1}"],
        env=env, stdout=subprocess.PIPE, text=True)
    records = {}
    for line in proc.stdout.splitlines():
        try:
            record = json.loads(line)
        except ValueError:  # the last line of a child that was killed
            break
        records[tuple(record.pop("run"))] = record
    return records, proc.returncode


def compare(old, new):
    """Counts of compared, ended and capped runs, and per differing run the
    fields that differ."""
    ended = capped = 0
    differ = []
    for run in sorted(old.keys() & new.keys()):
        a, b = old[run], new[run]
        if "capped" in a or "capped" in b:
            capped += 1
            continue
        ended += 1
        fields = [f for f in FIELDS if a.get(f) != b.get(f)]
        if fields:
            differ.append((run, fields, a, b))
    return len(old.keys() & new.keys()), ended, capped, differ


def compare_results(old, new):
    """Counts of compared, both-complete and capped runs, per run whose
    status changed the two statuses, and per run that completes on both
    sides and differs the fields of ``RESULTS`` that differ."""
    complete = capped = 0
    changed, differ = [], []
    for run in sorted(old.keys() & new.keys()):
        a, b = old[run], new[run]
        if "capped" in a or "capped" in b:
            capped += 1
        elif a["status"] != b["status"]:
            changed.append((run, a["status"], b["status"]))
        elif a["status"] == "complete":
            complete += 1
            fields = [f for f in RESULTS if a.get(f) != b.get(f)]
            if fields:
                differ.append((run, fields, a, b))
    return len(old.keys() & new.keys()), complete, capped, changed, differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", nargs="?", help="the source tree to compare against")
    parser.add_argument("new", nargs="?", help="the source tree under test")
    parser.add_argument("--seeds", type=seed_range, default=range(500),
                        help="generate_program seeds, A-B inclusive (default 0-499)")
    parser.add_argument("--results", action="store_true",
                        help="compare only statuses, and canonical answers and tables "
                             "where both sides complete")
    parser.add_argument("--child", metavar="A-B", type=seed_range, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        child(args.child)
        return 0
    if args.new is None:
        parser.error("give two source trees")
    with ThreadPoolExecutor(2) as pool:
        (old, old_rc), (new, new_rc) = pool.map(lambda t: run_tree(t, args.seeds),
                                                (args.old, args.new))
    expected = (len(args.seeds) * len(REWRITES) + sum(1 for _ in graphs())) * len(MODES) * 2
    if args.results:
        compared, ended, capped, changed, differ = compare_results(old, new)
        for run, before, after in changed:
            print(" ".join(map(str, run)), "status", before, "->", after)
    else:
        compared, ended, capped, differ = compare(old, new)
    for run, fields, a, b in differ:
        print(" ".join(map(str, run)), "differs in", ", ".join(fields))
        for f in fields:
            print(f"  {f}: {a.get(f)} -> {b.get(f)}")
    old_only = sum("capped" in r for r in old.values())
    new_only = sum("capped" in r for r in new.values())
    ends = (f"{ended} complete on both sides, {len(changed)} changed status"
            if args.results else f"{ended} ended on both sides")
    print(f"{compared} of {expected} runs compared: {ends}, "
          f"{capped} capped on either side ({old_only} on the old tree, {new_only} on the new), "
          f"{len(differ)} differ")
    failed = [t for t, rc, got in ((args.old, old_rc, old), (args.new, new_rc, new))
              if rc != 0 or len(got) != expected]
    for tree in failed:
        print(f"the run on {tree} stopped early", file=sys.stderr)
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
