"""The one expression grammar (freealg.parse_expr) as read by parse_poly and
by the --match series parser, against the hand-written series parser it
replaced, kept here as an oracle."""

import random

import pytest

from ncgraded.algebra import expand_rational
from ncgraded.cli import parse_rational
from ncgraded.errors import DegreeBeyondTruncation, ParseError
from ncgraded.freealg import Gens, NcPoly, parse_poly
from ncgraded.scalars import Field

F = Field(13)
G = Gens(("x", "y"), (1, 1))


# -- the former series parser: integer coefficient lists in t ----------------

def _add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _neg(a):
    return [-c for c in a]


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class _OracleParser:
    """num/den pairs of integer polynomials in t; grammar: + - * / ^ ( ) int t.
    Its unary minus binds tighter than ^ (-t^2 reads as t^2)."""

    def __init__(self, text):
        self.text = text
        self.i = 0

    def peek(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1
        return self.text[self.i] if self.i < len(self.text) else ""

    def parse(self):
        v = self.expr()
        if self.peek():
            raise ParseError("trailing input")
        return v

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.i += 1
            w = self.term()
            if op == "-":
                w = (_neg(w[0]), w[1])
            v = (_add(_mul(v[0], w[1]), _mul(w[0], v[1])), _mul(v[1], w[1]))
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.peek()
            self.i += 1
            w = self.factor()
            v = (_mul(v[0], w[0]), _mul(v[1], w[1])) if op == "*" else \
                (_mul(v[0], w[1]), _mul(v[1], w[0]))
        return v

    def factor(self):
        v = self.atom()
        while self.peek() == "^":
            self.i += 1
            self.peek()
            j = self.i
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            if j == self.i:
                raise ParseError("expected integer exponent")
            e, self.i = int(self.text[self.i:j]), j
            num, den = [1], [1]
            for _ in range(e):
                num, den = _mul(num, v[0]), _mul(den, v[1])
            v = (num, den)
        return v

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.i += 1
            v = self.expr()
            if self.peek() != ")":
                raise ParseError("expected ')'")
            self.i += 1
            return v
        if ch == "-":
            self.i += 1
            v = self.atom()
            return (_neg(v[0]), v[1])
        if ch == "t":
            self.i += 1
            return ([0, 1], [1])
        if ch.isdigit():
            j = self.i
            while j < len(self.text) and self.text[j].isdigit():
                j += 1
            v, self.i = int(self.text[self.i:j]), j
            return ([v], [1])
        raise ParseError(f"unexpected character {ch!r}")


def _random_expr(rng, depth):
    """A series expression with no unary minus right before a '^'."""
    if depth == 0 or rng.random() < 0.3:
        base = rng.choice(["t", str(rng.randrange(4)), "(1-t)", "(1+t)"])
    else:
        parts = [_random_expr(rng, depth - 1) for _ in range(rng.randrange(1, 4))]
        base = parts[0]
        for p in parts[1:]:
            base += rng.choice(["+", "-", "*", "/", " * ", " - "]) + p
        base = f"({base})"
    if rng.random() < 0.3:
        return f"{base}^{rng.randrange(4)}"
    return f"-{base}" if rng.random() < 0.2 else base


def _expansion(num, den):
    try:
        return expand_rational(num, den, 8)
    except ParseError:
        return ParseError


_NO_BOUND = 10**6  # a degree bound that no power in these expressions reaches


def test_series_expansions_match_the_former_parser():
    rng = random.Random(7)
    checked = 0
    for _ in range(600):
        text = _random_expr(rng, 3)
        want = _expansion(*_OracleParser(text).parse())
        got = _expansion(*parse_rational(text, _NO_BOUND))
        assert got == want, text
        checked += want is not ParseError
    assert checked > 300


@pytest.mark.parametrize("text", ["t +", "t*", "(", "t^", "-", "(1+t", "t)", "2 3", "t**2", "u", "t^-1"])
def test_malformed_series_are_parse_errors(text):
    with pytest.raises(ParseError):
        _OracleParser(text).parse()
    with pytest.raises(ParseError):
        parse_rational(text, _NO_BOUND)


def test_unary_minus_binds_looser_than_power():
    assert parse_rational("-t^2", 8) == ([0, 0, -1], [1])
    assert parse_rational("-(1+t)^2", 8) == ([-1, -2, -1], [1])
    x2 = NcPoly.word(G, F, (0, 0))
    assert parse_poly("-x^2", G, F) == -x2
    assert parse_poly("2*-x^2", G, F) == x2.scale(-2)
    assert parse_poly("y - -x^2", G, F) == NcPoly.gen(G, F, 1) + x2


@pytest.mark.parametrize("text", ["x/y", "1/x", "x*y +", "x*", "(", "x^", "-",
                                  "(" * 400 + "x" + ")" * 400, "-" * 2000 + "x"])
def test_malformed_polynomials_are_parse_errors(text):
    with pytest.raises(ParseError):
        parse_poly(text, G, F)


@pytest.mark.parametrize("text, bound, ok", [
    ("x^8", 8, True),
    ("x^9", 8, False),
    ("(x*y)^4", 8, True),
    ("(x*y)^5", 8, False),
    ("((x + y)^4)^2", 8, True),
    ("((x + y)^4)^4", 8, False),
    ("2^8 * x", 8, True),
    ("2^9", 8, False),
    ("x^1000000", 12, False),
])
def test_powers_past_the_degree_bound_are_parse_errors(text, bound, ok):
    """A power whose degree, or whose exponent, passes the bound is refused
    before it is expanded."""
    if ok:
        assert parse_poly(text, G, F, bound).degree() <= bound
    else:
        with pytest.raises(ParseError, match="exponent"):
            parse_poly(text, G, F, bound)


_FACTORS = "*".join(["(x + y)"] * 30)  # 2^30 words if it were expanded


@pytest.mark.parametrize("text, bound, ok", [
    ("(x + y)*(x*y)*y", 4, True),
    ("(x + y)*(x*y)*y*x", 4, False),
    ("2*3*x^2*(x + y)^2", 4, True),
    (_FACTORS, 3, False),
])
def test_products_past_the_degree_bound_are_refused(text, bound, ok):
    """A product whose degree passes the bound is refused before it is
    expanded, with ParseError or the error the caller names."""
    if ok:
        assert parse_poly(text, G, F, bound).degree() <= bound
        return
    with pytest.raises(ParseError, match="product"):
        parse_poly(text, G, F, bound)
    with pytest.raises(DegreeBeyondTruncation, match="product"):
        parse_poly(text, G, F, bound, DegreeBeyondTruncation)
