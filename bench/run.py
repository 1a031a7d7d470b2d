"""lintab benchmark: end-to-end query metrics and an outside-in layer trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload chain-left --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # one row per workload

Every query goes the way ``tp run -q`` takes it: ``parse_program``,
``parse_query``, ``TPEngine(program)``, then iterating ``TPEngine.solve``.
The run repeats the workload's queries for ``--seconds`` seconds and
reports, per metric, the sum over queries of each query's median sample,
scaled to a reference machine speed (see ``SpeedProbe``).
Every answer list is checked against the workload's reference, and the
golden queries are checked once per invocation; any failure makes the
result ``correct: false`` and the exit code 1.

``--trace 1`` times the same untraced loop for half of ``--seconds``, then
runs each query once more with the layer wrappers of ``layers.py``
installed and once through ``lintab.cli.run``, and reports per-layer
metrics instead.  The spans go to ``.bench_out/spans-<workload>.csv.gz``
in the checkout, one file per workload, overwritten by the next traced
run.  The last line of standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("chain-left", "cycle-right", "sweep")
# set-up and the first answer are short next to solving, so each round
# sets a query up this many times and takes a first answer from each engine
SETUP_REPEATS = 3
PROBE_EVERY_S = 0.25
# median probe time on the machine the baseline was measured on (2-core
# Intel Xeon at 2.0 GHz, CPython 3.11.7) in a quiet moment, so reported
# times read as seconds on that machine when it is quiet
PROBE_REFERENCE_S = 0.0032
PROBE_EXPONENT = 0.5

E2E_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "first_answer_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "engine.self_s": "s",
    "engine.us_per_step": "us",
    "engine.steps": "count",
    "engine.expansions": "count",
    "engine.fetches": "count",
    "engine.passes": "count",
    "engine.loops_detected": "count",
    "trace.events": "count",
    "trace.event.s": "s",
    "tables.memo.calls": "count",
    "tables.memo.self_s": "s",
    "tables.memo.new_share": "ratio",
    "tables.get_or_create.calls": "count",
    "tables.get_or_create.s": "s",
    "tables.created": "count",
    "tables.answers": "count",
    "terms.unify.calls": "count",
    "terms.unify.s": "s",
    "terms.unify.hit_share": "ratio",
    "terms.rename_apart.calls": "count",
    "terms.rename_apart.s": "s",
    "terms.apply.calls": "count",
    "terms.apply.s": "s",
    "terms.canonicalize.calls": "count",
    "terms.canonicalize.s": "s",
    "terms.vars_of.calls": "count",
    "terms.vars_of.s": "s",
    "program.parse_s": "s",
    "oracle.bottomup.s": "s",
    "cli.run.s": "s",
    "cli.self_s": "s",
    "trace_overhead_share": "ratio",
}


def import_lintab() -> None:
    """Import ``lintab`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import lintab

    if src not in Path(lintab.__file__).resolve().parents:
        raise ImportError(f"lintab imported from {lintab.__file__}, not from {src}")


def _probe_kernel() -> int:
    """Fixed pure-Python work: small tuples and dicts, dict lookups and
    inserts, type checks.  It calls no lintab code, so no change to lintab
    can move it."""
    env: dict = {}
    out = []
    for i in range(15000):
        t = ("f", i & 63, ("g", i & 7))
        b = env.get(t[1])
        if b is None:
            env[t[1]] = {"v": t}
        elif type(b) is dict:
            out.append((t, b["v"]))
        if len(out) > 512:
            out = []
    return len(env)


class SpeedProbe:
    """The machine's speed over a run, from timing ``_probe_kernel`` between
    queries.

    The machine this benchmark was written on is shared: the same code runs
    up to 2x slower for tens of seconds at a time, and wall and CPU time
    drift alike.  Medians within a run remove short noise but not that
    drift, so timings are multiplied by ``scale()``: the ratio of
    ``PROBE_REFERENCE_S`` to the run's median probe time, raised to
    ``PROBE_EXPONENT``.  Over 30 runs of 30 s on that machine, the engine's
    times moved with about the square root of the probe's (engine time
    ~ probe time ** 0.65 on chain-left and cycle-right), and the exponent
    0.5 left the smallest run-to-run spread on all three workloads; 1 over-
    corrected cycle-right, 0 left the drift in.  The probe runs with the
    garbage collector off, so nothing lintab leaves in the heap changes its
    time.
    """

    def __init__(self) -> None:
        self.secs: list[float] = []
        self._last = float("-inf")

    def maybe_probe(self) -> None:
        if perf_counter() - self._last < PROBE_EVERY_S:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(2):
                t0 = perf_counter()
                _probe_kernel()
                best = min(best, perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.secs.append(best)
        self._last = perf_counter()

    def scale(self) -> float:
        return (PROBE_REFERENCE_S / statistics.median(self.secs)) ** PROBE_EXPONENT


@dataclass
class Samples:
    setup: list[float] = field(default_factory=list)
    solve: list[float] = field(default_factory=list)
    first: list[float] = field(default_factory=list)
    steps: int | None = None


@dataclass
class Timing:
    samples: list[Samples]
    speed: SpeedProbe = field(default_factory=SpeedProbe)
    rounds: int = 0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    def total(self, attr: str) -> float:
        """Sum over queries of the median of the query's samples."""
        return sum(statistics.median(getattr(s, attr))
                   for s in self.samples if getattr(s, attr))


def solve_all(engine, atoms):
    """Iterate ``solve`` to exhaustion; returns answers, first-answer and
    total seconds, and an error string or None."""
    from lintab.engine import StepBudgetExceeded

    answers = []
    t_first = None
    error = None
    t0 = perf_counter()
    try:
        for tup in engine.solve(atoms):
            answers.append(tup)
            if t_first is None:
                t_first = perf_counter()
    except StepBudgetExceeded:
        error = "resource-limit"
    except Exception as e:  # a failing query is counted, the run goes on
        error = f"raised {e!r}"
    t1 = perf_counter()
    return answers, (None if t_first is None else t_first - t0), t1 - t0, error


def first_answer(engine, atoms) -> float | None:
    """Seconds from the first ``next()`` to the first answer; None when there
    is none or the query fails (the full solve that follows reports it)."""
    gen = engine.solve(atoms)
    t0 = perf_counter()
    try:
        next(gen)
    except Exception:  # includes StopIteration: no answer
        return None
    elapsed = perf_counter() - t0
    gen.close()
    return elapsed


def measure(queries, seconds: float) -> Timing:
    """Untraced loop over the queries until ``seconds`` have passed, always
    finishing the first round."""
    import lintab.engine
    import lintab.program

    parse_program = lintab.program.parse_program
    parse_query = lintab.program.parse_query
    TPEngine = lintab.engine.TPEngine

    timing = Timing([Samples() for _ in queries])
    deadline = perf_counter() + seconds
    while True:
        for q, s in zip(queries, timing.samples):
            if timing.rounds and perf_counter() >= deadline:
                return timing
            timing.speed.maybe_probe()
            setup = []
            firsts = []
            for k in range(SETUP_REPEATS):
                t0 = perf_counter()
                prog = parse_program(q.program)
                atoms, _ = parse_query(q.query)
                engine = TPEngine(prog)
                setup.append(perf_counter() - t0)
                if k < SETUP_REPEATS - 1:
                    firsts.append(first_answer(engine, atoms))
            answers, first, total, error = solve_all(engine, atoms)
            firsts.append(first)
            timing.attempted += 1
            error = error or q.check(answers)
            steps = getattr(engine, "_steps", None)
            if s.steps is not None and steps != s.steps:
                error = error or f"{steps} steps, {s.steps} in the first round"
            s.steps = steps
            del engine
            if error:
                timing.errors.append(f"{q.label}: {error}")
                continue
            s.setup += setup
            s.solve.append(total)
            s.first += [f for f in firsts if f is not None]
        timing.rounds += 1


def e2e_metrics(timing: Timing) -> dict[str, float]:
    k = timing.speed.scale()
    return {
        "setup_s": timing.total("setup") * k,
        "solve_s": timing.total("solve") * k,
        "first_answer_s": timing.total("first") * k,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_pass(tracer, queries, timing: Timing) -> tuple[dict[str, float], list]:
    """One run of every query with all layer wrappers installed; returns the
    layer metrics and each query's variables and answers."""
    import lintab.engine
    import lintab.program
    from layers import LAYER_TARGETS

    kinds: Counter = Counter()
    steps = 0
    traced_solve = 0.0
    speed = SpeedProbe()
    results = []
    with tracer.installed(LAYER_TARGETS):
        for q in queries:
            speed.maybe_probe()
            tracer.begin_request(f"query:{q.label}")
            prog = lintab.program.parse_program(q.program)
            atoms, qvars = lintab.program.parse_query(q.query)
            engine = lintab.engine.TPEngine(prog)
            answers, _, total, error = solve_all(engine, atoms)
            traced_solve += total
            timing.attempted += 1
            error = error or q.check(answers)
            if error:
                timing.errors.append(f"{q.label} (traced): {error}")
            steps += getattr(engine, "_steps", 0)
            kinds.update(ev.kind for ev in getattr(engine, "events", ()))
            results.append((qvars, answers))
            del engine
    layer = tracer.summary("query:")

    def get(name, key):
        return layer[name][key] if name in layer else 0

    def share(name):
        calls = get(name, "calls")
        return get(name, "hits") / calls if calls else 0.0

    untraced_solve = timing.total("solve") * timing.speed.scale()
    m = {
        "engine.self_s": get("engine.solve", "self_s"),
        "engine.us_per_step": untraced_solve / steps * 1e6,
        "engine.steps": steps,
        "engine.expansions": kinds["expand"],
        "engine.fetches": kinds["fetch"],
        "engine.passes": kinds["iteration-start"],
        "engine.loops_detected": kinds["loop-detected"],
        "trace.events": get("trace.event", "calls"),
        "trace.event.s": get("trace.event", "self_s"),
        "tables.memo.calls": get("tables.memo", "calls"),
        "tables.memo.self_s": get("tables.memo", "self_s"),
        "tables.memo.new_share": share("tables.memo"),
        "tables.get_or_create.calls": get("tables.get_or_create", "calls"),
        "tables.get_or_create.s": get("tables.get_or_create", "self_s"),
        "tables.created": get("tables.get_or_create", "hits"),
        "tables.answers": get("tables.memo", "hits"),
        "terms.unify.calls": get("terms.unify", "calls"),
        "terms.unify.s": get("terms.unify", "self_s"),
        "terms.unify.hit_share": share("terms.unify"),
        "program.parse_s": get("program.parse", "total_s"),
        "trace_overhead_share": traced_solve * speed.scale() / untraced_solve - 1,
    }
    for fn in ("rename_apart", "apply", "canonicalize", "vars_of"):
        m[f"terms.{fn}.calls"] = get(f"terms.{fn}", "calls")
        m[f"terms.{fn}.s"] = get(f"terms.{fn}", "self_s")
    return m, results


def expected_cli_output(qvars, answers) -> str:
    """What ``tp run -q`` prints for these (already checked) answers."""
    from lintab.terms import canonicalize, format_term

    if not qvars:
        return "yes\n" if answers else "no\n"
    lines = [", ".join(f"{v.name} = {format_term(t)}"
                       for v, t in zip(qvars, canonicalize(tuple(a))))
             for a in answers]
    return "".join(line + "\n" for line in lines) + "no\n"


def cli_pass(tracer, queries, results, timing: Timing) -> dict[str, float]:
    """Each query once through ``lintab.cli.run``, with spans only on the
    parse, construct and solve calls it makes."""
    import lintab.cli
    from layers import CLI_TARGETS

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp, tracer.installed(CLI_TARGETS):
        for i, (q, (qvars, answers)) in enumerate(zip(queries, results)):
            path = Path(tmp, f"{i}.pl")
            path.write_text(q.program, encoding="utf-8")
            cfg = lintab.cli.RunConfig(program_path=str(path), query=q.query)
            out, err = io.StringIO(), io.StringIO()
            tracer.begin_request(f"cli:{q.label}")
            with tracer.span("cli.run"):
                code = lintab.cli.run(cfg, stdout=out, stderr=err)
            timing.attempted += 1
            if code != 0 or out.getvalue() != expected_cli_output(qvars, answers):
                timing.errors.append(f"{q.label} (cli): exit {code}, output differs")
    cli = tracer.summary("cli:")["cli.run"]
    return {"cli.run.s": cli["total_s"], "cli.self_s": cli["self_s"]}


def run_workload(args) -> int:
    from layers import ORACLE_TARGETS, Tracer
    from workloads import GOLDENS, WORKLOADS, check_goldens

    tracer = Tracer() if args.trace else None
    with tracer.installed(ORACLE_TARGETS) if tracer else nullcontext():
        if tracer:
            tracer.begin_request("reference")
        t0 = perf_counter()
        queries = WORKLOADS[args.workload](args.seed)
        golden_errors = check_goldens()
        ref_s = perf_counter() - t0

    # a traced run spends about as long again on its traced and cli passes
    timing = measure(queries, args.seconds / 2 if tracer else args.seconds)
    if tracer:
        metrics, results = traced_pass(tracer, queries, timing)
        metrics.update(cli_pass(tracer, queries, results, timing))
        metrics["oracle.bottomup.s"] = tracer.summary()["oracle.bottomup"]["total_s"]
        units = LAYER_UNITS
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}.csv.gz"
        tracer.write_csv(spans_path)
    else:
        metrics = e2e_metrics(timing)
        units = E2E_UNITS

    errors = golden_errors + timing.errors
    attempted = timing.attempted + len(GOLDENS)
    for e in errors[:20]:
        print(f"FAIL {e}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} rounds={timing.rounds} "
          f"queries={len(queries)} references={ref_s:.2f}s "
          f"failed_share={len(errors) / attempted:.4f} goldens="
          f"{'fail' if golden_errors else 'pass'}")
    print(f"speed probe: median {statistics.median(timing.speed.secs):.6f} s over "
          f"{len(timing.speed.secs)} probes, scale {timing.speed.scale():.4f}; unscaled "
          + " ".join(f"{m}={timing.total(a):.6g}" for m, a in
                     (("setup_s", "setup"), ("solve_s", "solve"), ("first_answer_s", "first"))))
    if tracer:
        print(f"spans: {len(tracer.name)} written to {spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>14.6g} {units[name]}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Each workload in its own fresh process.  Untraced, one row per
    workload; traced, one row per layer metric and a column per workload."""
    results = {}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            code = 1
        if lines and lines[-1].startswith("{"):
            res = json.loads(lines[-1])
            results[name] = {k: v["value"] for k, v in res["metrics"].items()}
            results[name]["failed_share"] = res["failed"] / res["attempted"]
    units = dict(LAYER_UNITS if args.trace else E2E_UNITS, failed_share="ratio")
    if args.trace:
        print(f"{'metric':28s} {'unit':6s}" + "".join(f"{w:>14s}" for w in results))
        for m, u in units.items():
            print(f"{m:28s} {u:6s}" + "".join(f"{results[w][m]:>14.6g}" for w in results))
    else:
        print(f"{'workload':12s}" + "".join(f"{f'{m} ({u})':>22s}" for m, u in units.items()))
        for w, values in results.items():
            print(f"{w:12s}" + "".join(f"{values[m]:>22.6g}" for m in units))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        import_lintab()
    except ImportError as e:
        print(f"error: cannot import lintab from this checkout: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
