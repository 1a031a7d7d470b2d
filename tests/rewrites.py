"""Rewrites of generated sweep programs that reach what the plain sweep does
not: cut, function symbols, and heads with repeated variables or nested
compounds.  Each takes the source text and the program's ``random.Random``
and returns new source text."""

import re


def with_cuts(src, rng):
    """Put ``!`` at a random place in about 60% of the rule bodies of a
    generated program, and turn about 15% of its facts into ``head :- !``."""
    lines = []
    for line in src.splitlines():
        if " :- " in line:
            head, body = line[:-1].split(" :- ")
            goals = re.findall(r"\w+(?:\([^)]*\))?", body)
            if rng.random() < 0.6:
                goals.insert(rng.randint(0, len(goals)), "!")
            line = f"{head} :- {', '.join(goals)}."
        elif not line.startswith(":-") and rng.random() < 0.15:
            line = f"{line[:-1]} :- !."
        lines.append(line)
    return "\n".join(lines) + "\n"


def with_functions(src, rng):
    """Wrap about a third of the argument positions of a generated program
    in ``f(T)`` or ``g(T,T)``; directives are left as they are."""
    def wrap(m):
        arg = m.group()
        roll = rng.random()
        return f"f({arg})" if roll < 0.15 else f"g({arg},{arg})" if roll < 0.3 else arg

    return "".join(
        line if line.startswith(":-") else re.sub(r"(?<=[(,])\w+(?=[,)])", wrap, line)
        for line in src.splitlines(keepends=True)
    )


def with_var_heads(src, rng):
    """Rewrite about half the clause heads of a generated program: in some,
    two arguments become one variable (``p(X,X)``), in the others one
    argument is nested in ``f(...)``; directives are left as they are."""
    def rewrite(m):
        name, args = m.group(1), m.group(2).split(",")
        roll = rng.random()
        if roll < 0.25 and len(args) >= 2:
            v = next((a for a in args if a[0].isupper()), "V")
            i, j = rng.sample(range(len(args)), 2)
            args[i] = args[j] = v
        elif roll < 0.5:
            i = rng.randrange(len(args))
            args[i] = f"f({args[i]})"
        return f"{name}({','.join(args)})"

    return "".join(
        line if line.startswith(":-") else re.sub(r"^(\w+)\(([^)]*)\)", rewrite, line)
        for line in src.splitlines(keepends=True)
    )
