"""What the engine checks share: the time cap on a run, the record of a
run, the digest of recorded lines and the sweep grid.  ``lintab`` is
imported inside the functions only, as ``differential.py``'s parent
process has no ``lintab`` on its path."""

import gc
import hashlib
import random
import signal

from rewrites import with_cuts, with_functions, with_var_heads

# name -> rewrite of a generated program's source, given its random.Random
REWRITES = {"plain": lambda src, rng: src, "with_cuts": with_cuts,
            "with_functions": with_functions, "with_var_heads": with_var_heads}
MODES = {"default": {}, "strict_alg2": {"strict_alg2": True},
         "occurs_check": {"occurs_check": True}}


class Capped(BaseException):
    """A run went past its time cap.  Not an ``Exception``, so a run that
    records its own errors does not record the cap."""


def _stop(signum, frame):
    raise Capped


def capped(seconds, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, or ``Capped`` once ``seconds`` have passed
    (never, for 0).  The cyclic collector could finalize an earlier run's
    generator while a run is timed, and the stop raised inside that
    finalizer would be swallowed, so it is off while the run is timed.  The
    stop is returned, not raised: its traceback would hold the term being
    walked, and a failure report that printed that term would not end."""
    old = signal.signal(signal.SIGALRM, _stop)
    gc.disable()
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        try:
            return fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            gc.enable()
            signal.signal(signal.SIGALRM, old)
    except Capped:
        return Capped


def solved(engine, query, errors=()):
    """How ``engine``'s run of ``query`` ended, its raw answers, steps, node
    count and tables.  A ``CyclicTermError``, or an exception of a class in
    ``errors``, ends the run with its class and message as the status."""
    from lintab.engine import StepBudgetExceeded
    from lintab.program import parse_query
    from lintab.terms import CyclicTermError

    atoms, _ = parse_query(query)
    answers, status = [], "complete"
    try:
        for tup in engine.solve(atoms):
            answers.append(tup)
    except StepBudgetExceeded:
        status = "resource-limit"
    except (CyclicTermError, *errors) as e:
        status = f"{type(e).__name__}: {e}"
    return status, answers, engine._steps, engine._next_id, engine.tables.dump()


def digest(lines):
    """The count and sha256 of some lines of text."""
    lines = list(lines)
    return len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest()


def sweep(seeds, rewrites=REWRITES):
    """Per seed, then per rewrite named in ``rewrites``: the seed, the
    rewrite's name, and ``generate_program``'s program, rewritten with the
    same ``random.Random``, and query."""
    from lintab.oracle import generate_program

    for seed in seeds:
        for name in rewrites:
            rng = random.Random(seed)
            src, query = generate_program(rng)
            yield seed, name, REWRITES[name](src, rng), query
