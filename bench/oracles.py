"""Independent answers for the benchmark's checks.

Nothing here calls ncgraded: graded dimensions come from brute-force row
reduction of padded relations in the free algebra, with an exact sparse
elimination of our own over GF(p) or QQ, and the remaining expectations
are the numbers the paper fixes for its example.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

NGENS = 3  # every algebra in the benchmark has generators x, y, z of degree 1
LETTER = {"x": 0, "y": 1, "z": 2}


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def expect(cond: bool, what: str):
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# exact arithmetic: p is a prime, or None for QQ
# ---------------------------------------------------------------------------


def canon(c, p):
    if not p:
        return Fraction(c)
    if isinstance(c, Fraction):
        return c.numerator * pow(c.denominator, -1, p) % p
    return c % p


def inverse(c, p):
    return pow(c, -1, p) if p else 1 / c


def sqrt_minus_one(p: int) -> int:
    """Smallest a with a^2 = -1 mod p (a primitive 4th root of unity)."""
    for a in range(2, p):
        if a * a % p == p - 1:
            return a
    raise ValueError(f"-1 is not a square mod {p}")


def rank(rows, p) -> int:
    """Rank of sparse rows {column: coefficient} over GF(p) or QQ."""
    pivots = {}
    for row in rows:
        row = {k: canon(v, p) for k, v in row.items()}
        row = {k: v for k, v in row.items() if v}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = inverse(row[col], p)
                pivots[col] = {k: canon(v * inv, p) for k, v in row.items()}
                break
            f = row[col]
            for k, v in piv.items():
                nv = canon(row.get(k, 0) - f * v, p)
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)
    return len(pivots)


# ---------------------------------------------------------------------------
# brute-force graded dimensions in the free algebra on x, y, z
# ---------------------------------------------------------------------------


def poly(text: str, p, i4=None) -> dict:
    """Parse a sum of terms `c*w` with w a product of letters and powers,
    e.g. "x*y + y*x - z^2" or "x + y + 5*z"; `i` stands for i4."""
    out = {}
    for sign, term in _terms(text):
        coeff, word = sign, []
        for factor in term.split("*"):
            factor = factor.strip()
            base, _, exp = factor.partition("^")
            if base in LETTER:
                word += [LETTER[base]] * int(exp or 1)
            elif factor == "i":
                coeff *= i4
            else:
                coeff *= Fraction(factor)
        w = tuple(word)
        out[w] = canon(out.get(w, 0) + coeff, p)
    return {w: c for w, c in out.items() if c}


def _terms(text: str):
    text = text.replace(" ", "")
    sign, start = 1, 0
    for k, ch in enumerate(text + "+"):
        if ch in "+-" and k > start:
            yield sign, text[start:k]
            sign, start = (1 if ch == "+" else -1), k + 1
        elif ch in "+-":
            sign, start = (1 if ch == "+" else -1), k + 1


def word_index(word) -> int:
    n = 0
    for letter in word:
        n = n * NGENS + letter
    return n


def _words(d: int):
    return itertools.product(range(NGENS), repeat=d)


def quotient_dims(relations, p, dmax: int, right_gens=()) -> list:
    """dim of (F / (I + g F))_d for d = 0..dmax, where F is the free algebra,
    I the two-sided ideal of the homogeneous `relations` and g F the right
    ideal of `right_gens`, by row reduction of every padded product."""
    dims = []
    for d in range(dmax + 1):
        rows = []
        for r in relations:
            dr = len(next(iter(r)))
            for lu in range(d - dr + 1):
                for u in _words(lu):
                    for v in _words(d - dr - lu):
                        rows.append({word_index(u + w + v): c for w, c in r.items()})
        for g in right_gens:
            dg = len(next(iter(g)))
            if dg <= d:
                for v in _words(d - dg):
                    rows.append({word_index(w + v): c for w, c in g.items()})
        dims.append(NGENS ** d - rank(rows, p))
    return dims


def sklyanin_relations(coeffs, p) -> list:
    """a*xy + b*yx + c*z^2 and its two cyclic shifts."""
    a, b, c = (canon(v, p) for v in coeffs)
    return [{(i, j): a, (j, i): b, (k, k): c} for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]


def sklyanin_nondegenerate(coeffs, p) -> bool:
    """abc != 0, no two of a, b, c equal up to sign, and (a^3+b^3+c^3)^3 !=
    (3abc)^3.  Such algebras are AS-regular with Hilbert series 1/(1-t)^3."""
    a, b, c = (canon(v, p) for v in coeffs)
    if not (a and b and c):
        return False
    for u, v in ((a, b), (b, c), (a, c)):
        if not canon(u - v, p) or not canon(u + v, p):
            return False
    return bool(canon((a ** 3 + b ** 3 + c ** 3) ** 3 - 27 * (a * b * c) ** 3, p))


def polynomial_ring_dims(D: int) -> list:
    return [comb(d + 2, 2) for d in range(D + 1)]


# ---------------------------------------------------------------------------
# the paper's example: S, A = S/(x^2 + y^2), X1..X4 = A / g_i A, X = A + sum X_i
# ---------------------------------------------------------------------------

S_RELATIONS = ("x*y + y*x - z^2", "x*z + z*x", "y*z + z*y")
A_EXTRA = "x^2 + y^2"
X_GENERATORS = {"X1": "x - y + z", "X2": "x - y - z", "X3": "x + y + i*z", "X4": "x + y - i*z"}
POINT_POLYS = "x*y + z^2; x^2 - y^2"


class PaperFixture:
    """Brute-force dimensions of the fixture's algebras and modules over GF(p) or QQ."""

    def __init__(self, p):
        self.p = p
        self.i4 = sqrt_minus_one(p) if p else None
        self.s_rels = [poly(t, p) for t in S_RELATIONS]
        self.a_rels = self.s_rels + [poly(A_EXTRA, p)]
        self._cache = {}

    def dims(self, name: str, dmax: int) -> list:
        key = (name, dmax)
        if key not in self._cache:
            if name == "S":
                self._cache[key] = quotient_dims(self.s_rels, self.p, dmax)
            elif name in ("A", "AF"):
                self._cache[key] = quotient_dims(self.a_rels, self.p, dmax)
            else:
                g = poly(X_GENERATORS[name], self.p, self.i4)
                self._cache[key] = quotient_dims(self.a_rels, self.p, dmax, [g])
        return self._cache[key]


def hilbert_A(D: int) -> list:
    return [2 * d + 1 for d in range(D + 1)]


def endo_dims(D: int) -> list:
    """dim End(X)_d = 9(2d + 1): the series (9 + 9t)/(1 - t)^2."""
    return [9 * (2 * d + 1) for d in range(D + 1)]


def dual_A_dims(D: int) -> list:
    """Koszul dual of A: 1/H_A(-t) = (1 + t)^2/(1 - t) = 1 + 3t + 4t^2 + ..."""
    return [1, 3][: D + 1] + [4] * max(0, D - 1)


def check_points(points, p):
    """The four points of x*y + z^2 = x^2 - y^2 = 0 in P^2(GF(p))."""
    expect(len(points) == 4, f"expected 4 points, got {len(points)}")
    for x, y, z in points:
        expect((x * y + z * z) % p == 0 and (x * x - y * y) % p == 0,
               f"point {(x, y, z)} is not on the point scheme")
    normed = set()
    for pt in points:
        last = next(c for c in reversed(pt) if c % p)
        inv = pow(last, -1, p)
        normed.add(tuple(c * inv % p for c in pt))
    expect(len(normed) == 4, "points are not pairwise distinct")


def check_sink_quiver(quiver: dict):
    """Five vertices, four arrows of multiplicity one from distinct sources into one sink."""
    arrows = quiver["arrows"]
    expect(len(quiver["vertices"]) == 5, f"quiver has {len(quiver['vertices'])} vertices")
    expect(len(arrows) == 4, f"quiver has {len(arrows)} arrows")
    expect(len({a["src"] for a in arrows}) == 4, "arrow sources are not distinct")
    expect(len({a["dst"] for a in arrows}) == 1, "arrows do not share one sink")
    expect(all(a["mult"] == 1 and a["src"] != a["dst"] for a in arrows), "bad arrow")


PAPER_CHECKS = (
    "hilbert-series", "central-regular-quadric", "as-gorenstein", "clifford-k4",
    "point-count", "mcm-basic-summands", "endo-nonnegative", "endo-hilbert-series",
    "degree-zero-structure", "as-regular-over-degree-zero", "evaluation-isomorphism",
)


def check_paper_report(rep: dict, p: int, fixture: PaperFixture):
    """All 11 verdicts pass, with the numbers the paper fixes."""
    checks = {c["check"]: c for c in rep["checks"]}
    expect(tuple(c["check"] for c in rep["checks"]) == PAPER_CHECKS,
           f"checks {list(checks)} are not the paper's eleven")
    for name, c in checks.items():
        expect(c["verdict"] == "pass", f"{name}: {c['verdict']}")
    expect(rep["verdict"] == "pass" and rep["inputs"]["p"] == p, "report verdict or p")
    hs = checks["hilbert-series"]["evidence"]
    expect(hs["S"] == polynomial_ring_dims(len(hs["S"]) - 1), f"S dims {hs['S']}")
    expect(hs["A"] == hilbert_A(len(hs["A"]) - 1), f"A dims {hs['A']}")
    expect(hs["S"][:5] == fixture.dims("S", 4) and hs["A"][:5] == fixture.dims("A", 4),
           "S or A dims disagree with row reduction")
    cl = checks["clifford-k4"]["evidence"]
    expect(cl["dim"] == 4 and cl["blocks"] == [1, 1, 1, 1], f"C(A) is not k^4: {cl}")
    expect(cl["dual_dims"] == dual_A_dims(4), f"dual dims {cl['dual_dims']}")
    check_points(checks["point-count"]["evidence"]["points"], p)
    eh = checks["endo-hilbert-series"]["evidence"]["coeffs"]
    expect(len(eh) >= 4 and eh == endo_dims(len(eh) - 1), f"B dims {eh}")
    dz = checks["degree-zero-structure"]["evidence"]
    expect(dz["dim"] == 9 and dz["radical_dim"] == 4 and dz["idempotents"] == 5,
           f"B0 structure {dz}")
    check_sink_quiver(dz["quiver"])
