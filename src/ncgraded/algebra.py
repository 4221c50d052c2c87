"""Graded algebras as queryable oracles.

Two backends share one interface: PresentedAlgebra (Groebner-backed, basis
= normal words) and TabulatedAlgebra (per-degree structure constants, used
for endomorphism algebras and for opposite algebras).  Homological code
upstream only ever sees the oracle interface.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .errors import DegreeBeyondTruncation, NotPeirce, ParseError
from .findim import Deg0Data, FinDimAlgebra, radical_and_idempotents
from .freealg import NcPoly
from .gbasis import Presentation, TruncatedGB, truncated_groebner
from .memo import memo
from .scalars import Field


class AlgebraOracle:
    """Interface: dim(d), mult_tensor(d1, d2), unit, and generated_through, a
    degree a such that the pieces of degree at most a generate the algebra
    (valid_through when no better bound is known)."""

    field: Field
    valid_through: int
    valid_from: int = 0
    generated_through: int

    def dim(self, d: int) -> int:
        raise NotImplementedError

    def mult_tensor(self, d1: int, d2: int) -> np.ndarray:
        """Shape (dim(d1), dim(d2), dim(d1+d2)): coordinates of basis products."""
        raise NotImplementedError

    @property
    def unit(self) -> np.ndarray:
        raise NotImplementedError

    def _check_degree(self, d: int):
        if d > self.valid_through:
            raise DegreeBeyondTruncation(
                f"degree {d} beyond validity bound {self.valid_through}"
            )

    @property
    def is_connected(self) -> bool:
        return self.dim(0) == 1

    @property
    def deg0(self) -> Deg0Data | None:
        """Radical and primitive idempotents of the degree-0 part, which split
        the generators of a minimal cover; None when that part is the field."""
        return memo(self, "deg0", lambda: None if self.is_connected
                    else radical_and_idempotents(self.degree_zero()))

    def degree_zero(self) -> FinDimAlgebra:
        """The degree-0 part as a finite-dimensional algebra, one per algebra,
        so that what is memoized on it (its radical and idempotents) is shared."""
        return memo(self, "degree_zero", lambda: FinDimAlgebra(
            self.field, np.asarray(self.mult_tensor(0, 0)), self.unit, check=False))

    def support(self, v: int | None, n: int) -> np.ndarray:
        """The coordinates of alg_n spanning e_v . alg_n (all for v None), e_v
        vertex v's idempotent of deg0; its left multiplication must be a 0/1
        diagonal, as in a Peirce basis (+) e_i alg_n e_j, else NotPeirce."""

        def build():
            if v is None:
                return np.arange(self.dim(n))
            lm = self.left_mult_matrix(0, self.deg0.idempotents[v], n)
            diag = lm.diagonal()
            if np.count_nonzero(lm) != np.count_nonzero(diag) or not ((diag == 0) | (diag == 1)).all():
                raise NotPeirce(f"idempotent {v} does not act by a 0/1 diagonal on degree {n}")
            return np.flatnonzero(diag)

        return memo(self, ("support", v, n), build)

    # -- coordinate helpers ------------------------------------------------

    def left_mult_matrix(self, d1: int, v1: np.ndarray, d2: int) -> np.ndarray:
        """Matrix of (v1 . -): alg_{d2} -> alg_{d1+d2}, columns indexed by basis of d2."""
        return linalg.matmul(self.field, v1, self.mult_tensor(d1, d2)).T

    def right_mult_matrix(self, d2: int, v2: np.ndarray, d1: int) -> np.ndarray:
        """Matrix of (- . v2): alg_{d1} -> alg_{d1+d2}."""
        return linalg.matmul(self.field, self.mult_tensor(d1, d2), v2, axes=(1, 0)).T


class PresentedAlgebra(AlgebraOracle):
    """Quotient of a free algebra by homogeneous relations, with normal-word
    bases through the truncation degree D.  Basis of each piece = normal words
    sorted descending by the monomial order (fixed so matrices reproduce
    across runs).  The constructor only checks that D reaches every
    relation; the Groebner basis is completed on its first read."""

    def __init__(self, pres: Presentation, D: int):
        pres.check_truncation(D)
        self.presentation = pres
        self.field = pres.field
        self.gens = pres.gens
        self.order = pres.order
        self.valid_through = D

    @property
    def generated_through(self) -> int:
        return max(self.gens.degrees, default=0)

    @property
    def gb(self) -> TruncatedGB:
        """The Groebner basis, complete through valid_through."""
        return memo(self, "gb", lambda: truncated_groebner(self.presentation, self.valid_through))

    def basis_words(self, d: int) -> list:
        if d < 0:
            return []
        return memo(self, ("words", d),
                    lambda: sorted(self.gb.normal_words(d), key=self.order.key, reverse=True))

    def _word_index(self, d: int) -> dict:
        """Position of each normal word of degree d in basis_words(d)."""
        return memo(self, ("index", d), lambda: {w: i for i, w in enumerate(self.basis_words(d))})

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        self._check_degree(d)
        return len(self.basis_words(d))

    @property
    def unit(self) -> np.ndarray:
        v = linalg.zeros(self.field, 1)
        v[0] = self.field.one
        return v

    def poly_to_vec(self, d: int, f: NcPoly) -> np.ndarray:
        """Coordinates of NF(f) in the degree-d basis (f homogeneous of degree d)."""
        idx = self._word_index(d)
        v = linalg.zeros(self.field, len(idx))
        for w, c in self.gb.normal_form(f).terms.items():
            v[idx[w]] = c
        return v

    def _word_normal_form(self, w) -> dict:
        """The terms of NF(w), reduced once per word and algebra."""
        return memo(self, ("nf", w),
                    lambda: self.gb.normal_form(NcPoly.word(self.gens, self.field, w)).terms)

    def mult_tensor(self, d1: int, d2: int) -> np.ndarray:
        self._check_degree(d1 + d2)

        def build():
            b1, b2, idx = self.basis_words(d1), self.basis_words(d2), self._word_index(d1 + d2)
            t = linalg.zeros(self.field, len(b1), len(b2), len(idx))
            for i, u in enumerate(b1):
                for j, v in enumerate(b2):
                    for w, c in self._word_normal_form(u + v).items():
                        t[i, j, idx[w]] = c
            return t

        return memo(self, ("mult", d1, d2), build)


class TabulatedAlgebra(AlgebraOracle):
    """Algebra given by per-degree dimensions and structure tensors.

    dims (absent degrees are 0) is kept as given, so a lazy mapping stays
    lazy.  The tensor of (d1, d2) is build(d1, d2), called on its first read
    and memoized; a pair with a zero dimension among d1, d2 and d1 + d2
    (d1 + d2 below valid_from included) reads zeros and never calls build;
    the unit is read from unit() once."""

    def __init__(self, field: Field, dims: Mapping, build, unit: Callable[[], np.ndarray], *,
                 valid_from: int, valid_through: int, generated_through: int):
        self.field = field
        self._dims = dims
        self._build = build
        self._unit = unit
        self.valid_from = valid_from
        self.valid_through = valid_through
        self.generated_through = generated_through

    def dim(self, d: int) -> int:
        self._check_degree(d)
        return self._dims.get(d, 0)

    @property
    def unit(self) -> np.ndarray:
        return memo(self, "unit", self._unit)

    def mult_tensor(self, d1: int, d2: int) -> np.ndarray:
        self._check_degree(d1 + d2)

        def build():
            shape = (self.dim(d1), self.dim(d2), self.dim(d1 + d2))
            return self._build(d1, d2) if all(shape) else linalg.zeros(self.field, *shape)

        return memo(self, ("mult", d1, d2), build)


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


@dataclass
class HilbertSeries:
    coeffs: tuple

    def __post_init__(self):
        self.coeffs = tuple(int(c) for c in self.coeffs)
        if any(c < 0 for c in self.coeffs):
            raise ValueError("negative dimension in Hilbert series")


def hilbert_series(alg: AlgebraOracle, D: int) -> HilbertSeries:
    if D > alg.valid_through:
        raise DegreeBeyondTruncation(f"D={D} beyond validity {alg.valid_through}")
    return HilbertSeries(tuple(alg.dim(d) for d in range(D + 1)))


def expand_rational(num, den, D: int) -> list:
    """Power-series coefficients of num/den through degree D, by exact long
    division with integer/rational arithmetic.  den[0] must be a unit; a
    ParseError says when it is not, since num/den is then no power series."""
    from fractions import Fraction

    num = list(num) + [0] * (D + 1 - len(num))
    den = list(den)
    if den[0] == 0:
        raise ParseError("series denominator has zero constant term")
    out = []
    for k in range(D + 1):
        acc = Fraction(num[k])
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= Fraction(den[j]) * out[k - j]
        out.append(acc / Fraction(den[0]))
    return out


def match_rational(series: HilbertSeries, num, den) -> bool:
    """True iff the expansion of num/den agrees with every stored coefficient."""
    exp = expand_rational(num, den, len(series.coeffs) - 1)
    return all(e == c for e, c in zip(exp, series.coeffs))


# ---------------------------------------------------------------------------
# Element tests and presentation surgery
# ---------------------------------------------------------------------------


def build_presented_algebra(pres: Presentation, D: int) -> PresentedAlgebra:
    return PresentedAlgebra(pres, D)


def is_central(alg: PresentedAlgebra, f: NcPoly) -> bool:
    """NF(f g - g f) = 0 for every generator g."""
    d = f.homogeneous_degree() if not f.is_zero() else 0
    alg._check_degree(d + max(alg.gens.degrees))
    for i in range(len(alg.gens)):
        g = NcPoly.gen(alg.gens, alg.field, i)
        if not alg.gb.normal_form(f * g - g * f).is_zero():
            return False
    return True


def is_regular_element(alg: PresentedAlgebra, f: NcPoly, window: int) -> bool:
    """Left and right multiplication by f injective on pieces 0..window."""
    if f.is_zero():
        return False
    df = f.homogeneous_degree()
    alg._check_degree(df + window)
    fv = alg.poly_to_vec(df, f)
    for d in range(window + 1):
        n = alg.dim(d)
        if n == 0:
            continue
        lm = alg.left_mult_matrix(df, fv, d)
        rm = alg.right_mult_matrix(df, fv, d)
        if linalg.rank(alg.field, lm) < n or linalg.rank(alg.field, rm) < n:
            return False
    return True


def quotient_algebra(alg: PresentedAlgebra, extra, D: int) -> PresentedAlgebra:
    return PresentedAlgebra(alg.presentation.with_extra_relations(extra), D)
