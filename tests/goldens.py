"""The worked examples under tests/programs and the query each is run with."""

GOLDEN_QUERIES = (
    ("p1.pl", "reach(a,X)"),
    ("p2.pl", "p(X,Y,Z)"),
    ("p3.pl", "p(X,Y)"),
    ("p4.pl", "p(X,Y)"),
    ("p5_1.pl", "not_p(a)"),
    ("p5_2.pl", "not_p(a)"),
    ("p5_3.pl", "not_p(a)"),
    ("p6.pl", "p(X)"),
)
CUT_GOLDENS = GOLDEN_QUERIES[3:]  # p4 to p6 use cut
