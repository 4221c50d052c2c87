"""Words and polynomials of the free algebra k<x_1,...,x_n>.

A Word is a tuple of generator indices (empty tuple = 1).  An NcPoly is a
term map Word -> nonzero coefficient over a fixed Gens context; words
concatenate and never commute.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatch, NonHomogeneous, ParseError
from .scalars import Field

Word = tuple  # tuple of generator indices


@dataclass(frozen=True)
class Gens:
    """Named generators with positive degrees."""

    names: tuple
    degrees: tuple

    def __post_init__(self):
        if len(self.names) != len(self.degrees):
            raise ValueError("names and degrees must have equal length")
        if any(d < 1 for d in self.degrees):
            raise ValueError("generator degrees must be positive")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be distinct")

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def word_degree(self, w: Word) -> int:
        return sum(self.degrees[i] for i in w)

    def word_str(self, w: Word) -> str:
        if not w:
            return "1"
        parts = []
        i = 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            name = self.names[w[i]]
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(parts)


@dataclass(frozen=True)
class MonomialOrder:
    """Degree-lexicographic order; ``rank[i]`` is the precedence key of
    generator i (smaller rank = smaller generator)."""

    gens: Gens
    rank: tuple

    @staticmethod
    def default(gens: Gens) -> "MonomialOrder":
        return MonomialOrder(gens, tuple(range(len(gens))))

    def key(self, w: Word):
        return (self.gens.word_degree(w), tuple(self.rank[i] for i in w))


class NcPoly:
    """Finite map Word -> nonzero coefficient over (gens, field)."""

    __slots__ = ("gens", "field", "terms")

    def __init__(self, gens: Gens, field: Field, terms=None):
        self.gens = gens
        self.field = field
        t = {}
        if terms:
            for w, c in dict(terms).items():
                c = field(c)
                if not field.is_zero(c):
                    t[tuple(w)] = c
        self.terms = t

    @classmethod
    def _canonical(cls, gens: Gens, field: Field, terms: dict) -> "NcPoly":
        """The polynomial of a term map whose words are tuples and whose
        coefficients are already canonical in field; only zeros are dropped."""
        p = object.__new__(cls)
        p.gens = gens
        p.field = field
        p.terms = {w: c for w, c in terms.items() if c}
        return p

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(gens: Gens, field: Field) -> "NcPoly":
        return NcPoly(gens, field)

    @staticmethod
    def one(gens: Gens, field: Field) -> "NcPoly":
        return NcPoly(gens, field, {(): field.one})

    @staticmethod
    def gen(gens: Gens, field: Field, i: int) -> "NcPoly":
        return NcPoly(gens, field, {(i,): field.one})

    @staticmethod
    def word(gens: Gens, field: Field, w: Word, coeff=1) -> "NcPoly":
        return NcPoly(gens, field, {tuple(w): coeff})

    # -- predicates --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        """Max term degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.gens.word_degree(w) for w in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {self.gens.word_degree(w) for w in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        if not self.is_homogeneous():
            raise NonHomogeneous(f"{self} is not homogeneous")
        return self.degree()

    # -- arithmetic --------------------------------------------------------
    def _check(self, other: "NcPoly"):
        if self.field != other.field or self.gens != other.gens:
            raise FieldMismatch("operands live over different fields/generators")

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        f = self.field
        t = dict(self.terms)
        for w, c in other.terms.items():
            t[w] = f.add(t.get(w, f.zero), c)
        return NcPoly._canonical(self.gens, f, t)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __neg__(self) -> "NcPoly":
        f = self.field
        return NcPoly._canonical(self.gens, f, {w: f.neg(c) for w, c in self.terms.items()})

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        f = self.field
        t = {}
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                w = u + v
                t[w] = f.add(t.get(w, f.zero), f.mul(a, b))
        return NcPoly._canonical(self.gens, f, t)

    def scale(self, c) -> "NcPoly":
        f = self.field
        c = f(c)
        return NcPoly._canonical(self.gens, f, {w: f.mul(a, c) for w, a in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, NcPoly)
            and self.gens == other.gens
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.gens, self.field, frozenset(self.terms.items())))

    # -- order-dependent views --------------------------------------------
    def leading_word(self, order: MonomialOrder) -> Word:
        return max(self.terms, key=order.key)

    def monic(self, order: MonomialOrder) -> "NcPoly":
        lc = self.terms[self.leading_word(order)]
        return self.scale(self.field.inv(lc))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (self.gens.word_degree(w), w)):
            c = self.terms[w]
            cs = str(c)
            parts.append(cs if not w else (f"{cs}*{self.gens.word_str(w)}" if cs != "1" else self.gens.word_str(w)))
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# Expression grammar: integers, names, + - * / ^ and parentheses, evaluated
# over any values with + - *, degree() (and / where the values divide).
# Unary signs bind looser than ^, as in Python: -x^2 = -(x^2).  Juxtaposition
# is not multiplication; no commutation is assumed.
# ---------------------------------------------------------------------------

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            toks.append((ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", i, int(text[i:j])))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", i, text[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", column=i)
    toks.append(("end", len(text)))
    return toks


class _Parser:
    """expr := term (('+' | '-') term)*;  term := power (('*' | '/') power)*;
    power := ('+' | '-') power | atom ('^' int)*;  atom := int | name | '(' expr ')'."""

    def __init__(self, text: str, const, var, max_degree, beyond):
        self.text = text
        self.const = const
        self.var = var
        self.max_degree = max_degree
        self.beyond = beyond
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        """The current token, then move on; the `end` token is never passed."""
        t = self.toks[self.pos]
        if t[0] != "end":
            self.pos += 1
        return t

    def fail(self, msg, tok, error=ParseError):
        msg = f"{msg} (near offset {tok[1]} in {self.text!r})"
        raise ParseError(msg, column=tok[1]) if error is ParseError else error(msg)

    def check_degree(self, degree, what, tok):
        """Raise `beyond` before forming a value of degree past max_degree."""
        if self.max_degree is not None and degree > self.max_degree:
            self.fail(f"{what} takes the degree past {self.max_degree}", tok, self.beyond)

    def parse(self):
        p = self.expr()
        if self.peek()[0] != "end":
            self.fail("trailing input", self.peek())
        return p

    def expr(self):
        p = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self):
        p = self.power()
        while self.peek()[0] in ("*", "/"):
            tok = self.next()
            q = self.power()
            if tok[0] == "*":
                self.check_degree((p.degree() or 0) + (q.degree() or 0), "product", tok)
                p = p * q
            elif hasattr(p, "__truediv__"):
                p = p / q
            else:
                self.fail("'/' is not allowed here", tok)
        return p

    def power(self):
        if self.peek()[0] in ("+", "-"):
            sign = self.next()[0]
            p = self.power()
            return -p if sign == "-" else p
        p = self.atom()
        while self.peek()[0] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "int":
                self.fail("expected nonnegative integer exponent", tok)
            n = tok[2]
            # an exponent past the bound makes a power of degree past it, or
            # a constant power too large to form
            self.check_degree(n * max(p.degree() or 0, 1), f"exponent {n}", tok)
            q = self.const(1)
            for _ in range(n):
                q = q * p
            p = q
        return p

    def atom(self):
        tok = self.next()
        if tok[0] == "int":
            return self.const(tok[2])
        if tok[0] == "name":
            return self.var(tok[2], tok[1])
        if tok[0] == "(":
            p = self.expr()
            if self.peek()[0] != ")":
                self.fail("expected ')'", self.peek())
            self.next()
            return p
        self.fail("expected integer, name, or '('", tok)


def parse_expr(text: str, const, var, max_degree, beyond=ParseError):
    """Evaluate the expression grammar: const(n) gives the value of the
    integer literal n, var(name, column) the value of a name (raising
    ParseError for an unknown one).  '/' needs values that divide.

    Unless max_degree is None, a power base^n with n, or n times the degree
    of base, above max_degree, and a product p * q with deg p + deg q above
    it, raise `beyond` before they are expanded."""
    try:
        return _Parser(text, const, var, max_degree, beyond).parse()
    except RecursionError:
        raise ParseError(f"expression nested too deeply ({len(text)} characters)") from None


def parse_poly(text: str, gens: Gens, field: Field, max_degree: int | None = None,
               beyond=ParseError) -> NcPoly:
    """The polynomial text spells; a text from outside the program passes the
    degree bound of the algebra it belongs to, and the error to raise past it
    (see parse_expr)."""
    def var(name, column):
        if name not in gens.names:
            raise ParseError(f"unknown generator {name!r}", column=column)
        return NcPoly.gen(gens, field, gens.index(name))

    return parse_expr(text, lambda n: NcPoly(gens, field, {(): n}), var, max_degree, beyond)
