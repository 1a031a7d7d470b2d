"""Command-line front end.

``tp run PROGRAM -q QUERY`` evaluates a query against a program file with
the tabled engine (default) or one of the reference evaluators.  Ground
queries, and queries whose only variables are anonymous (``_``), answer
``yes`` or ``no``; other queries print one binding line per answer
(``X = a, Y = b``, leaving ``_`` out) followed by ``no`` once exhausted.
The tp and sld engines stream: each line is written as its answer is
found.  ``--interactive`` reads queries at a ``?- `` prompt and answers
them the same way with every engine, but waits after each binding line:
``;`` asks for the next answer.  ``--trace`` and ``--dump-tables`` (tp
only) work in both modes.  Unknown predicates simply have empty relations.
Exit codes: 0 for a clean run (including ``no``), 1 for usage, file, or
parse problems, for a cyclic binding made without ``--occurs-check`` (tp;
sld once it reaches a called goal or an answer) and when standard output
is closed before the answers are written, 2 when a resource limit stopped
the run before exhaustion.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .engine import DEFAULT_STEP_BUDGET, StepBudgetExceeded, TPEngine
from .oracle import DepthBoundExceeded, UnsupportedProgramError, bottomup_solve, sld_answers
from .program import ParseError, Program, parse_program, parse_query
from .terms import CyclicTermError, canonicalize, format_term
from .trace import format_event

__all__ = ["RunConfig", "run", "main", "EXIT_OK", "EXIT_USAGE", "EXIT_RESOURCE"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOURCE = 2

DEFAULT_DEPTH_BOUND = 10_000


@dataclass(slots=True)
class RunConfig:
    program_path: str
    query: str | None = None
    engine: str = "tp"
    depth_bound: int = DEFAULT_DEPTH_BOUND
    step_budget: int = DEFAULT_STEP_BUDGET
    trace: bool = False
    dump_tables: bool = False
    strict_alg2: bool = False
    occurs_check: bool = False
    interactive: bool = False


def _query(program: Program, cfg: RunConfig, text: str, out, err, more) -> int:
    """Answer one query the way a Prolog top level does and return the exit
    code.  A query with no variables but ``_`` prints ``yes`` or ``no``;
    otherwise each answer is a binding line of its named variables, and
    ``more()`` decides after each one whether to go on (``no`` follows once
    the answers run out)."""
    engine = None
    code = EXIT_OK
    try:
        atoms, qvars = parse_query(text)
        if cfg.engine == "tp":
            sink = (lambda ev: err.write(format_event(ev) + "\n")) if cfg.trace else None
            engine = TPEngine(program, step_budget=cfg.step_budget, strict_alg2=cfg.strict_alg2,
                              occurs_check=cfg.occurs_check, sink=sink)
            answers = engine.solve(atoms)
        elif cfg.engine == "sld":
            answers = sld_answers(program, atoms, cfg.depth_bound,
                                  occurs_check=cfg.occurs_check)
        else:
            answers = iter(bottomup_solve(program, atoms).answers)
        # anonymous variables are not reported, as at a Prolog top level
        shown = [i for i, v in enumerate(qvars) if v.name != "_"]
        if not shown:
            out.write("yes\n" if next(answers, None) is not None else "no\n")
        else:
            names = [qvars[i].name for i in shown]
            for tup in answers:
                canon = canonicalize(tuple(tup[i] for i in shown))
                out.write(", ".join(f"{n} = {format_term(v)}"
                                    for n, v in zip(names, canon)) + "\n")
                if not more():
                    break
            else:
                out.write("no\n")
    except StepBudgetExceeded:
        out.write("resource-limit: step budget exceeded\n")
        code = EXIT_RESOURCE
    except DepthBoundExceeded:
        out.write("resource-limit: depth bound exceeded\n")
        code = EXIT_RESOURCE
    except ParseError as e:
        err.write(f"error: query: {e}\n")
        return EXIT_USAGE
    except UnsupportedProgramError as e:
        err.write(f"error: the bottomup engine cannot evaluate this program: {e}\n")
        return EXIT_USAGE
    except CyclicTermError as e:
        err.write(f"error: {e}; rerun with --occurs-check\n")
        return EXIT_USAGE
    if cfg.dump_tables and engine is not None:
        for line in engine.tables.dump():
            out.write(line + "\n")
    return code


def _repl(program: Program, cfg: RunConfig, stdin, out, err) -> int:
    """Read queries from stdin; after each answer a lone ``;`` asks for the
    next one, anything else abandons the query."""

    def more() -> bool:
        out.flush()
        return stdin.readline().strip() == ";"

    while True:
        out.write("?- ")
        out.flush()
        line = stdin.readline()
        if not line:
            out.write("\n")
            return EXIT_OK
        text = line.strip()
        if not text:
            continue
        if text.rstrip(".") in ("halt", "quit"):
            return EXIT_OK
        _query(program, cfg, text, out, err, more)


def run(cfg: RunConfig, stdin=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    inp = stdin if stdin is not None else sys.stdin
    try:
        text = Path(cfg.program_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        err.write(f"error: cannot read {cfg.program_path}: {e}\n")
        return EXIT_USAGE
    try:
        program = parse_program(text)
    except ParseError as e:
        err.write(f"error: {cfg.program_path}: {e}\n")
        return EXIT_USAGE
    try:
        if cfg.interactive:
            return _repl(program, cfg, inp, out, err)
        assert cfg.query is not None
        return _query(program, cfg, cfg.query, out, err, more=lambda: True)
    except BrokenPipeError:
        # the reader of the answers went away (``| head -1``)
        return EXIT_USAGE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tp",
        description="Tabled logic-programming engine with reference evaluators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="evaluate a query against a program file")
    run_p.add_argument("program_path", metavar="program", help="path to the program source")
    mode = run_p.add_mutually_exclusive_group(required=True)
    mode.add_argument("-q", "--query", help="query to evaluate")
    mode.add_argument("--interactive", action="store_true",
                      help="read queries from stdin instead")
    run_p.add_argument("--engine", choices=("tp", "sld", "bottomup"), default="tp",
                       help="evaluator to use (default: tp)")
    run_p.add_argument("--depth-bound", type=int, default=DEFAULT_DEPTH_BOUND,
                       help="branch depth limit for the sld engine")
    run_p.add_argument("--step-budget", type=int, default=DEFAULT_STEP_BUDGET,
                       help="resolution step limit for the tp engine")
    run_p.add_argument("--trace", action="store_true",
                       help="write trace events to stderr (tp engine)")
    run_p.add_argument("--dump-tables", action="store_true",
                       help="print final answer tables (tp engine)")
    run_p.add_argument("--strict-alg2", action="store_true",
                       help="disable the early-completion shortcut for calls "
                            "that never entered a loop")
    run_p.add_argument("--occurs-check", action="store_true",
                       help="unify with the occurs check")
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as e:
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    # the subcommand, always "run"; its name stays in usage errors
    del args["command"]
    code = run(RunConfig(**args))
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # send what is still buffered to devnull, so the interpreter's own
        # flush at exit neither fails nor reports on stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
