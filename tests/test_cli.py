import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lintab.cli import EXIT_OK, EXIT_RESOURCE, EXIT_USAGE, RunConfig, main, run


def invoke(path, query=None, stdin="", **kw):
    cfg = RunConfig(program_path=path, query=query, **kw)
    out, err = io.StringIO(), io.StringIO()
    code = run(cfg, stdin=io.StringIO(stdin), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_variable_query_streams_bindings(program_path):
    code, out, err = invoke(program_path("p1.pl"), "reach(a,X)")
    assert code == EXIT_OK
    assert out.splitlines() == ["X = a", "X = b", "X = d", "X = e", "no"]
    assert err == ""


def test_two_variable_bindings_on_one_line(program_path):
    code, out, _ = invoke(program_path("p3.pl"), "p(X,Y)")
    assert code == EXIT_OK
    assert out.splitlines() == ["X = a, Y = b", "X = a, Y = c", "no"]


def test_ground_query_yes_no(program_path):
    assert invoke(program_path("p5_1.pl"), "not_p(a)")[:2] == (EXIT_OK, "yes\n")
    assert invoke(program_path("p5_2.pl"), "not_p(a)")[:2] == (EXIT_OK, "no\n")
    assert invoke(program_path("p5_3.pl"), "not_p(a)")[:2] == (EXIT_OK, "yes\n")


@pytest.mark.parametrize("query", ["reach(a,_)", "reach(a,_), reach(a,_)"])
def test_anonymous_variables_answer_yes_no(program_path, query):
    assert invoke(program_path("p1.pl"), query) == (EXIT_OK, "yes\n", "")
    assert invoke(program_path("p1.pl"), query.replace("reach", "edge"))[:2] == (EXIT_OK, "yes\n")
    assert invoke(program_path("p1.pl"), query.replace("reach(a", "edge(e"))[:2] == (
        EXIT_OK, "no\n")
    stdin = query + ".\nhalt.\n"
    assert invoke(program_path("p1.pl"), stdin=stdin, interactive=True)[:2] == (
        EXIT_OK, "?- yes\n?- ")


def test_anonymous_variables_are_left_out_of_bindings(program_path):
    code, out, err = invoke(program_path("p1.pl"), "reach(X,_)")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines() == ["X = _0", "X = a", "X = d", "X = _0", "X = _0", "no"]
    stdin = "reach(X,_).\n" + ";\n" * 5 + "halt.\n"
    transcript = invoke(program_path("p1.pl"), stdin=stdin, interactive=True)[1]
    assert transcript.replace("?- ", "") == out


def test_unknown_predicate_is_just_empty(program_path):
    code, out, err = invoke(program_path("p1.pl"), "zzz(a)")
    assert (code, out, err) == (EXIT_OK, "no\n", "")


def test_dump_tables(program_path):
    code, out, _ = invoke(program_path("p1.pl"), "reach(a,X)", dump_tables=True)
    assert code == EXIT_OK
    assert out.splitlines()[-1] == (
        "TB(reach(a,_0)): answers=[(a),(b),(d),(e)] status=[1,0,0] comp=1"
    )


def test_trace_goes_to_stderr(program_path):
    code, out, err = invoke(program_path("p1.pl"), "reach(a,X)", trace=True)
    assert code == EXIT_OK
    assert "EVENT kind=expand" in err
    assert "EVENT" not in out


def test_trace_streams_as_the_run_goes(program_path):
    cfg = RunConfig(program_path=program_path("p1.pl"), query="reach(a,X)", trace=True)
    both = io.StringIO()
    assert run(cfg, stdout=both, stderr=both) == EXIT_OK
    lines = both.getvalue().splitlines()
    assert lines[lines.index("X = a") - 1].startswith("EVENT kind=answer")


def test_trace_under_interactive(program_path):
    stdin = "reach(a,X).\n;\nhalt.\n"
    code, out, err = invoke(program_path("p1.pl"), stdin=stdin, interactive=True, trace=True)
    assert code == EXIT_OK
    assert "EVENT kind=answer" in err
    assert "EVENT" not in out


def test_trace_of_a_run_that_hits_the_budget(program_path):
    code, _, err = invoke(program_path("p1.pl"), "reach(a,X)", step_budget=5, trace=True)
    assert code == EXIT_RESOURCE
    lines = err.splitlines()
    assert lines and all(line.startswith("EVENT kind=") for line in lines)


def test_step_budget_exit(program_path):
    code, out, _ = invoke(program_path("p1.pl"), "reach(a,X)", step_budget=5)
    assert code == EXIT_RESOURCE
    assert out.splitlines()[-1] == "resource-limit: step budget exceeded"


def test_sld_engine_hits_depth_bound(program_path):
    code, out, _ = invoke(
        program_path("p1.pl"), "reach(a,X)", engine="sld", depth_bound=50
    )
    assert code == EXIT_RESOURCE
    assert out.splitlines()[-1] == "resource-limit: depth bound exceeded"
    assert "X = b" in out


def test_sld_engine_completes(program_path):
    code, out, _ = invoke(
        program_path("p5_2.pl"), "not_p(a)", engine="sld", depth_bound=100
    )
    assert (code, out) == (EXIT_OK, "no\n")


def test_bottomup_engine(program_path):
    code, out, _ = invoke(program_path("p1.pl"), "reach(a,X)", engine="bottomup")
    assert code == EXIT_OK
    assert out.splitlines() == ["X = a", "X = b", "X = d", "X = e", "no"]


def test_bottomup_engine_rejects_cuts(program_path):
    code, out, err = invoke(program_path("p4.pl"), "p(X,Y)", engine="bottomup")
    assert code == EXIT_USAGE
    assert "cannot evaluate" in err


def test_parse_error_in_program(tmp_path):
    bad = tmp_path / "bad.pl"
    bad.write_text("p(a")
    code, out, err = invoke(str(bad), "p(X)")
    assert code == EXIT_USAGE
    assert "error" in err and "line 1" in err


def test_parse_error_in_query(program_path):
    code, _, err = invoke(program_path("p1.pl"), "reach(a,X), !")
    assert code == EXIT_USAGE
    assert "cut is not allowed" in err


def test_program_file_that_is_not_utf8(tmp_path):
    bad = tmp_path / "bad.pl"
    bad.write_bytes(b"\xffp(a).\n")
    code, out, err = invoke(str(bad), "p(X)")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"error: cannot read {bad}: ")


CYCLIC = "p(X) :- q(X,X).\nq(Y,f(Y)).\n"


@pytest.mark.parametrize("engine", ["tp", "sld"])
def test_cyclic_binding_is_an_error(tmp_path, engine):
    prog = tmp_path / "cyclic.pl"
    prog.write_text(CYCLIC)
    code, out, err = invoke(str(prog), "p(X)", engine=engine)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.endswith("; rerun with --occurs-check\n")
    assert "Traceback" not in err
    code, out, _ = invoke(str(prog), "p(X)", engine=engine, occurs_check=True)
    assert (code, out) == (EXIT_OK, "no\n")


@pytest.mark.parametrize("engine", ["tp", "sld"])
def test_interactive_cyclic_binding_keeps_the_session(tmp_path, engine):
    prog = tmp_path / "cyclic.pl"
    prog.write_text(CYCLIC)
    stdin = "p(X).\nq(a,Y).\n;\nhalt.\n"
    code, out, err = invoke(str(prog), stdin=stdin, interactive=True, engine=engine)
    assert code == EXIT_OK
    assert out == "?- ?- Y = f(a)\nno\n?- "
    assert "rerun with --occurs-check" in err


def test_sld_reports_a_cyclic_binding_only_once_it_is_used(tmp_path):
    # q binds Z to f(Z), but fail is reached before r(Z) is called
    prog = tmp_path / "unused.pl"
    prog.write_text("p :- q(Z,Z), fail, r(Z).\nq(X,f(X)).\n")
    assert invoke(str(prog), "p", engine="sld") == (EXIT_OK, "no\n", "")
    code, out, err = invoke(str(prog), "p", engine="tp")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith("; rerun with --occurs-check\n")


def test_interactive_sld_answers_before_the_search_ends(tmp_path):
    prog = tmp_path / "nat.pl"
    prog.write_text("nat(z).\nnat(s(X)) :- nat(X).\n")
    code, out, err = invoke(str(prog), stdin="nat(X).\n\n", interactive=True, engine="sld")
    assert (code, out, err) == (EXIT_OK, "?- X = z\n?- \n", "")


def test_missing_file():
    code, _, err = invoke("no/such/file.pl", "p(X)")
    assert code == EXIT_USAGE
    assert "cannot read" in err


def test_interactive_session(program_path):
    stdin = "reach(a,X).\n;\nnope\nnot_p(a).\nhalt.\n"
    code, out, err = invoke(program_path("p1.pl"), stdin=stdin, interactive=True)
    assert code == EXIT_OK
    assert "?- " in out
    assert "X = a" in out and "X = b" in out
    assert "X = d" not in out  # abandoned after the non-';' line
    assert "no\n" in out  # unknown not_p in this program
    assert "error" not in err


def test_interactive_parse_error_keeps_going(program_path):
    stdin = "p(a\nreach(e,e).\n"
    code, out, err = invoke(program_path("p1.pl"), stdin=stdin, interactive=True)
    assert code == EXIT_OK
    assert "error" in err
    assert "yes" in out


@pytest.mark.parametrize("engine", ["sld", "bottomup"])
def test_interactive_stops_at_a_reply_other_than_semicolon(program_path, engine):
    stdin = "reach(a,X).\nx\nhalt.\n"
    code, out, err = invoke(program_path("p1.pl"), stdin=stdin, interactive=True,
                            engine=engine, depth_bound=50)
    first = invoke(program_path("p1.pl"), "reach(a,X)", engine=engine, depth_bound=50)[1]
    assert code == EXIT_OK
    assert out == "?- " + first.splitlines()[0] + "\n?- "
    assert err == ""


def test_interactive_dump_tables(program_path):
    stdin = "reach(a,X).\n" + ";\n" * 4 + "halt.\n"
    code, out, _ = invoke(program_path("p1.pl"), stdin=stdin, interactive=True,
                          dump_tables=True)
    assert code == EXIT_OK
    assert out.splitlines()[-3:] == [
        "no", "TB(reach(a,_0)): answers=[(a),(b),(d),(e)] status=[1,0,0] comp=1", "?- "
    ]


@pytest.mark.parametrize("engine", ["tp", "sld", "bottomup"])
def test_interactive_transcript_matches_the_query_run(program_path, engine):
    path = program_path("p1.pl")
    code, out, err = invoke(path, "reach(a,X)", engine=engine, depth_bound=50)
    answers = len(out.splitlines()) - 1
    stdin = "reach(a,X).\n" + ";\n" * answers + "halt.\n"
    _, transcript, ierr = invoke(path, stdin=stdin, interactive=True, engine=engine,
                                 depth_bound=50)
    assert transcript.replace("?- ", "") == out
    assert err == ierr == ""


def test_bad_query_reads_the_same_in_both_modes(program_path):
    code, _, err = invoke(program_path("p1.pl"), "reach(a")
    assert code == EXIT_USAGE and err.startswith("error: query: ")
    _, _, ierr = invoke(program_path("p1.pl"), stdin="reach(a\n", interactive=True)
    assert ierr == err


def test_main_argv_round_trip(program_path, capsys):
    code = main(["run", program_path("p1.pl"), "-q", "reach(a,X)"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out.splitlines()[-1] == "no"


def test_main_hands_every_flag_to_run(monkeypatch):
    seen = []
    monkeypatch.setattr("lintab.cli.run", lambda cfg: seen.append(cfg) or EXIT_OK)
    assert main(["run", "prog.pl", "-q", "p(X)", "--engine", "sld", "--depth-bound", "7",
                 "--step-budget", "99", "--trace", "--dump-tables", "--strict-alg2",
                 "--occurs-check"]) == EXIT_OK
    assert main(["run", "prog.pl", "--interactive"]) == EXIT_OK
    assert seen == [
        RunConfig(program_path="prog.pl", query="p(X)", engine="sld", depth_bound=7,
                  step_budget=99, trace=True, dump_tables=True, strict_alg2=True,
                  occurs_check=True, interactive=False),
        RunConfig(program_path="prog.pl", interactive=True),
    ]


def test_main_rejects_bad_engine(program_path, capsys):
    code = main(["run", program_path("p1.pl"), "-q", "p(X)", "--engine", "bogus"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_main_requires_query_or_interactive(program_path, capsys):
    code = main(["run", program_path("p1.pl")])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_main_help_is_clean(capsys):
    code = main(["--help"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert "tp" in captured.out


class _ClosedAfterOneLine(io.StringIO):
    """A stdout whose reader goes away after the first line."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


@pytest.mark.parametrize("interactive", [False, True])
def test_closed_stdout_exits_1_quietly(program_path, interactive):
    cfg = RunConfig(program_path=program_path("p1.pl"), interactive=interactive,
                    query=None if interactive else "reach(X,Y)")
    out, err = _ClosedAfterOneLine(), io.StringIO()
    stdin = io.StringIO("reach(X,Y).\n;\n;\n;\n")
    assert run(cfg, stdin=stdin, stdout=out, stderr=err) == EXIT_USAGE
    assert out.getvalue().replace("?- ", "") == "X = _0, Y = _0\n"
    assert err.getvalue() == ""


def _tp(args, unbuffered, stdout):
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.Popen([sys.executable, "-m", "lintab.cli", "run", *args],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


def test_sld_left_recursion_stops_at_the_default_bound(program_path):
    # every branch of this search is pruned at depth 10,000
    proc = _tp([program_path("p1.pl"), "-q", "reach(a,X)", "--engine", "sld"], "",
               subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert out.decode().splitlines() == [
        "X = b", "X = e", "X = a", "X = d", "resource-limit: depth bound exceeded"
    ]
    assert proc.returncode == EXIT_RESOURCE


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_pipe_closed_after_one_line_exits_1_quietly(tmp_path, unbuffered):
    # more answers than a pipe holds, so the writer is still writing
    # when the reader closes its end
    prog = tmp_path / "n.pl"
    prog.write_text("".join(f"n(k{i}).\n" for i in range(20_000)))
    proc = _tp([str(prog), "-q", "n(X)"], unbuffered, subprocess.PIPE)
    assert proc.stdout.readline() == b"X = k0\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_USAGE
    assert stderr == b""


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_pipe_closed_before_any_answer_exits_1_quietly(program_path, unbuffered):
    # buffered, every answer is still in the buffer when the run ends, so
    # the failing write is the final flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _tp([program_path("p1.pl"), "-q", "reach(X,Y)"], unbuffered, write_end)
    finally:
        os.close(write_end)
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_USAGE
    assert stderr == b""
