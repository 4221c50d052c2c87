import random
from fractions import Fraction
from math import gcd

import pytest
from test_gbasis_oracle import naive_normal_form, reference_groebner

from ncgraded import gbasis
from ncgraded.errors import FieldMismatch, InvalidOrder
from ncgraded.freealg import Gens, NcPoly, parse_poly
from ncgraded.gbasis import (
    MonomialOrder,
    NonHomogeneousRelation,
    Presentation,
    TruncatedGB,
    normal_form,
    normal_words,
    truncated_groebner,
)
from ncgraded.scalars import QQ, Field

F = Field(13)


def _pres(rel_texts, names=("x", "y", "z")):
    gens = Gens(tuple(names), tuple(1 for _ in names))
    order = MonomialOrder(gens, tuple(range(len(names))))
    rels = tuple(parse_poly(t, gens, F) for t in rel_texts)
    return Presentation(F, gens, rels, order)


def test_commutative_polynomial_ring_dims():
    # k[x,y,z] as a quotient of the free algebra: binomial dims
    gb = truncated_groebner(_pres(["y*x - x*y", "z*x - x*z", "z*y - y*z"]), 8)
    dims = [len(normal_words(gb, d)) for d in range(7)]
    assert dims == [1, 3, 6, 10, 15, 21, 28]


def test_skew_quadric_algebra_dims():
    gb = truncated_groebner(
        _pres(["x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"]), 8)
    dims = [len(normal_words(gb, d)) for d in range(7)]
    assert dims == [1, 3, 6, 10, 15, 21, 28]


def test_normal_form_idempotent_and_multiplicative():
    pres = _pres(["x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"])
    gb = truncated_groebner(pres, 8)
    f = parse_poly("y*x*z + x^3", pres.gens, F)
    nf = normal_form(gb, f)
    assert normal_form(gb, nf).terms == nf.terms
    g = parse_poly("z*y", pres.gens, F)
    lhs = normal_form(gb, f * g)
    rhs = normal_form(gb, normal_form(gb, f) * normal_form(gb, g))
    assert lhs.terms == rhs.terms


def test_relations_reduce_to_zero():
    pres = _pres(["x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"])
    gb = truncated_groebner(pres, 8)
    for r in pres.relations:
        assert normal_form(gb, r).is_zero()


def test_nonhomogeneous_relation_rejected():
    with pytest.raises(NonHomogeneousRelation):
        truncated_groebner(_pres(["x*y + y*x - z^3"]), 6)


def test_free_algebra_no_relations():
    gb = truncated_groebner(_pres([]), 5)
    assert [len(normal_words(gb, d)) for d in range(5)] == [1, 3, 9, 27, 81]


def test_exterior_algebra_dims():
    gb = truncated_groebner(
        _pres(["x^2", "y^2", "z^2", "x*y + y*x", "x*z + z*x", "y*z + z*y"]), 6)
    assert [len(normal_words(gb, d)) for d in range(5)] == [1, 3, 3, 1, 0]


@pytest.mark.parametrize("rels", [
    ["x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"],
    ["2*x*y + 3*y*x + 5*z^2", "2*y*z + 3*z*y + 5*x^2", "2*z*x + 3*x*z + 5*y^2"],
    ["x*y*x - y*x*y", "x^2*z - z*x^2"],
], ids=["skew-quadric", "sklyanin", "cubic"])
def test_completion_reduces_no_polynomial_twice(monkeypatch, rels):
    """Each ambiguity is queued once, a self-overlap included, so no nonzero
    polynomial reaches normal_form twice in one completion (distinct
    ambiguities may both give 0, as x*x*x does for x^2 and for y^2)."""
    seen = []
    reduce_once = TruncatedGB.normal_form

    def spy(gb, f):
        if f.terms:
            seen.append(frozenset(f.terms.items()))
        return reduce_once(gb, f)

    monkeypatch.setattr(TruncatedGB, "normal_form", spy)
    truncated_groebner(_pres(rels), 6)
    assert seen and len(seen) == len(set(seen))


def _qq_cases(seed):
    """A monic partial basis over QQ and polynomials to reduce by it, with
    denominators that share factors, numerators past 2**64, and multiples of
    the elements, whose rewrites cancel terms to zero mid-reduction."""
    rng = random.Random(f"qq-pairs/{seed}")
    gens = Gens(("x", "y", "z"), (1, 1, 1))
    order = MonomialOrder(gens, (0, 1, 2))
    dens = (1, 2, 4, 6, 12, 18, 36, 2**40 * 3**5, 10**21)

    def coeff():
        num = rng.choice((rng.randrange(1, 50), rng.randrange(2**64, 2**90)))
        return Fraction(rng.choice((-1, 1)) * num, rng.choice(dens))

    def poly(d, n):
        words = {tuple(rng.randrange(3) for _ in range(d)) for _ in range(n)}
        return NcPoly(gens, QQ, {w: coeff() for w in words})

    elements = [poly(rng.choice((2, 3)), 3).monic(order) for _ in range(3)]
    gb = TruncatedGB(Presentation(QQ, gens, (), order), elements, 5)
    cases = []
    for _ in range(6):
        g = rng.choice(elements)
        k = 5 - g.degree()
        split = rng.randrange(k + 1)
        left, right = (NcPoly.word(gens, QQ, tuple(rng.randrange(3) for _ in range(n)))
                       for n in (split, k - split))
        cases.append((left * g * right).scale(coeff()) + poly(5, rng.randrange(4)))
    return gb, cases


@pytest.mark.parametrize("seed", range(8))
def test_qq_normal_forms_match_the_naive_loop(monkeypatch, seed):
    """The reduction keeps QQ coefficients as integer pairs; its normal forms
    equal the naive loop's term for term and in order, in lowest terms."""
    cancelled = []
    qq_fma = gbasis._qq_fma

    def fma(o, a, b):
        out = qq_fma(o, a, b)
        cancelled.append(not out)
        return out

    monkeypatch.setattr(gbasis, "_qq_fma", fma)
    gb, cases = _qq_cases(seed)
    for f in cases:
        got = gb.normal_form(f)
        assert list(got.terms.items()) == list(naive_normal_form(gb.order, gb.elements, f).terms.items())
        for c in got.terms.values():
            assert type(c) is Fraction and c and gcd(c.numerator, c.denominator) == 1
    assert any(cancelled)
    assert any(abs(c.numerator) > 2**64 for f in cases for c in f.terms.values())


XY = Gens(("x", "y"), (1, 1))


@pytest.mark.parametrize("relation, order", [
    (parse_poly("x*y + 15*y*x", XY, Field(17)), None),
    (NcPoly(XY, QQ, {(0, 1): 1, (1, 0): Fraction(-3, 2)}), None),
    (parse_poly("a*b + b*a", Gens(("a", "b"), (1, 1)), F), None),
    (parse_poly("x*y + y*x", XY, F), MonomialOrder.default(Gens(("a", "b"), (1, 1)))),
], ids=["other-prime", "rationals", "other-generators", "order-over-other-generators"])
def test_presentation_rejects_a_relation_or_order_from_elsewhere(relation, order):
    """A relation is never read over another field or other generators (a
    GF(17) relation x*y + 15*y*x once completed to 7*x*y + y*x over GF(13))."""
    with pytest.raises(FieldMismatch):
        Presentation(F, XY, (relation,), order)


@pytest.mark.parametrize("rank", [(0, 1), (0, 0, 1), (0, 1, 3), (1, 2, 3)])
def test_monomial_order_ranks_are_a_permutation(rank):
    with pytest.raises(InvalidOrder):
        MonomialOrder(Gens(("x", "y", "z"), (1, 1, 1)), rank)
    assert MonomialOrder(Gens(("x", "y", "z"), (1, 1, 1)), (2, 0, 1)).key((0, 1)) == (2, (2, 0))


def _reference_cases():
    """name -> relations: the presentations of
    test_completion_reduces_no_polynomial_twice over F, and seeded Sklyanin
    algebras a*xy + b*yx + c*z^2 (and cyclic shifts) over GF(10007) and QQ."""
    gens = Gens(("x", "y", "z"), (1, 1, 1))
    cases = {name: [parse_poly(t, gens, F) for t in texts] for name, texts in (
        ("skew-quadric", ["x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"]),
        ("sklyanin", ["2*x*y + 3*y*x + 5*z^2", "2*y*z + 3*z*y + 5*x^2", "2*z*x + 3*x*z + 5*y^2"]),
        ("cubic", ["x*y*x - y*x*y", "x^2*z - z*x^2"]),
    )}
    for seed in range(4):
        rng = random.Random(f"sklyanin/{seed}")
        for field in (Field(10007), QQ):
            if field.p:
                a, b, c = (rng.randrange(1, field.p) for _ in range(3))
            else:
                a, b, c = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(1, 4))
                           for _ in range(3))
            cases[f"sklyanin-{seed}-{field}"] = [
                NcPoly(gens, field, {(i, j): a, (j, i): b, (k, k): c})
                for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    return cases


REFERENCE_CASES = _reference_cases()


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_completion_reduces_what_the_reference_driver_reduces(monkeypatch, case):
    """The completion hands normal_form the polynomials the NcPoly driver
    did, term for term and in order, and forms none of them with NcPoly
    arithmetic; both give the same basis, and its rules are the elements'."""
    rels = REFERENCE_CASES[case]
    gens, field = rels[0].gens, rels[0].field
    pres = Presentation(field, gens, tuple(rels), MonomialOrder(gens, (0, 1, 2)))
    seen = []
    reduce = TruncatedGB.normal_form

    def spy(gb, f):
        seen.append(list(f.terms.items()))
        return reduce(gb, f)

    monkeypatch.setattr(TruncatedGB, "normal_form", spy)
    want = reference_groebner(pres, 6)
    want_seen, seen[:] = list(seen), []
    arith = []
    for op in ("__add__", "__sub__", "__mul__", "__neg__"):
        monkeypatch.setattr(NcPoly, op, lambda *args, op=op: arith.append(op))
    gb = truncated_groebner(pres, 6)
    assert seen == want_seen and arith == []
    assert len(want_seen) > len(pres.relations)
    assert [list(g.terms.items()) for g in gb.elements] == [list(g.terms.items()) for g in want]
    # rules compiled one install or tail at a time are those of the final basis
    fresh = TruncatedGB(pres, gb.elements, 6)
    assert gb._lw_index == fresh._lw_index and gb._lw_lengths == fresh._lw_lengths
