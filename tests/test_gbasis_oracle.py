"""Normal forms and completion against the reduction loop they replaced.

``naive_normal_form`` is that loop, kept here as the reference: each step
scans every term for its order-largest reducible subword (leftmost
occurrence), rewrites the order-largest reducible term, and builds the next
polynomial with NcPoly arithmetic.  ``naive_groebner`` is the completion
that used it.  Both must agree with ``gbasis`` term for term, over GF(p)
and QQ, on graded and weighted generators, and on element sets that are
not Groebner bases, where the normal form depends on which leading word
rewrites a word, and where.

Normal forms are compared with their terms in order.  Each word has one
fixed rewrite, so the polynomial does not depend on which term is rewritten
first; the order in which terms enter the result does, and records the
sequence of reductions.
"""

import heapq

from hypothesis import given, settings, strategies as st

from ncgraded.freealg import Gens, MonomialOrder, NcPoly, parse_poly
from ncgraded.gbasis import Presentation, TruncatedGB, truncated_groebner
from ncgraded.scalars import QQ, Field

FIELDS = [Field(13), Field(32003), QQ]
GRADED = Gens(("x", "y", "z"), (1, 1, 1))
WEIGHTED = Gens(("x", "y", "z"), (1, 1, 2))


def _find_reduction(order, leading_words, w):
    best = None
    for u in set(leading_words):
        for pos in range(len(w) - len(u) + 1):
            if w[pos : pos + len(u)] == u:
                if best is None or order.key(u) > order.key(best[0]):
                    best = (u, pos)
                break
    return best


def naive_normal_form(order, elements, f):
    gens, field = f.gens, f.field
    leading_words = [g.leading_word(order) for g in elements]
    cur = f
    while True:
        target = None
        for w in cur.terms:
            red = _find_reduction(order, leading_words, w)
            if red is not None and (target is None or order.key(w) > order.key(target[0])):
                target = (w, red)
        if target is None:
            return cur
        w, (u, pos) = target
        g = elements[leading_words.index(u)]
        left = NcPoly.word(gens, field, w[:pos], cur.terms[w])
        right = NcPoly.word(gens, field, w[pos + len(u) :])
        cur = cur - left * g * right


def naive_groebner(pres, D):
    order, gens, field = pres.order, pres.gens, pres.field
    elements = []
    pending, seq = [], 0

    def push(d, f):
        nonlocal seq
        heapq.heappush(pending, (d, seq, f))
        seq += 1

    def overlaps(a, b):
        va, vb = a.leading_word(order), b.leading_word(order)
        for k in range(1, min(len(va), len(vb))):
            if va[len(va) - k :] == vb[:k]:
                d = gens.word_degree(va) + gens.word_degree(vb) - gens.word_degree(vb[:k])
                if d <= D:
                    push(d, a * NcPoly.word(gens, field, vb[k:])
                         - NcPoly.word(gens, field, va[: len(va) - k]) * b)

    for r in pres.relations:
        if not r.is_zero() and r.degree() <= D:
            push(r.degree(), r)
    while pending:
        _, _, f = heapq.heappop(pending)
        h = naive_normal_form(order, elements, f)
        if h.is_zero():
            continue
        h = h.monic(order)
        lw = h.leading_word(order)
        retired = [g for g in elements if any(
            g.leading_word(order)[p : p + len(lw)] == lw
            for p in range(len(g.leading_word(order)) - len(lw) + 1))]
        elements = [g for g in elements if g not in retired] + [h]
        for g in list(elements):
            overlaps(h, g)
            overlaps(g, h)
        for g in retired:
            push(g.degree(), g)
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(elements):
            red = naive_normal_form(order, elements[:i] + elements[i + 1 :], g)
            if red != g:
                changed = True
                elements[i] = red.monic(order)
                break
    return sorted(elements, key=lambda g: order.key(g.leading_word(order)))


def _assert_same_terms(got, want):
    assert list(got.terms.items()) == list(want.terms.items())


def _coeff(field):
    if field.is_prime_field:
        return st.integers(1, field.p - 1)
    return st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)


@st.composite
def _word(draw, gens, d):
    w = []
    while d:
        i = draw(st.sampled_from([i for i, g in enumerate(gens.degrees) if g <= d]))
        w.append(i)
        d -= gens.degrees[i]
    return tuple(w)


@st.composite
def _homogeneous(draw, gens, field, d, max_terms=5):
    terms = draw(st.lists(st.tuples(_word(gens, d), _coeff(field)), min_size=1, max_size=max_terms))
    return NcPoly(gens, field, dict(terms))


def _presentation(field, gens, texts):
    return Presentation(field, gens, tuple(parse_poly(t, gens, field) for t in texts),
                        MonomialOrder(gens, tuple(range(len(gens)))))


# D = 5 over three fields: the skew quadric (graded) and a Heisenberg-type
# algebra with z = [x, y] in degree 2 (weighted)
BASES = {
    (kind, str(field)): truncated_groebner(_presentation(field, gens, rels), 5)
    for field in FIELDS
    for kind, gens, rels in (
        ("graded", GRADED, ("x*y + y*x - z^2", "x*z + z*x", "y*z + z*y")),
        ("weighted", WEIGHTED, ("y*x - x*y + z", "z*x - x*z", "z*y - y*z")),
    )
}


@settings(max_examples=120, deadline=None)
@given(st.data(), st.sampled_from(sorted(BASES)), st.integers(1, 5))
def test_normal_form_matches_naive_loop(data, key, d):
    gb = BASES[key]
    f = data.draw(_homogeneous(gb.gens, gb.field, d))
    _assert_same_terms(gb.normal_form(f), naive_normal_form(gb.order, gb.elements, f))


@st.composite
def _partial_basis(draw):
    """Monic homogeneous elements taken as they are, not completed."""
    field = draw(st.sampled_from(FIELDS))
    gens = draw(st.sampled_from([GRADED, WEIGHTED]))
    order = MonomialOrder(gens, tuple(range(len(gens))))
    elements = []
    for d in draw(st.lists(st.integers(2, 3), min_size=1, max_size=4)):
        g = draw(_homogeneous(gens, field, d, max_terms=3))
        elements.append(g.monic(order))
    f = draw(_homogeneous(gens, field, draw(st.integers(2, 5)), max_terms=6))
    pres = Presentation(field, gens, (), order)
    return TruncatedGB(pres, elements, 5), f


@settings(max_examples=200, deadline=None)
@given(_partial_basis())
def test_normal_form_matches_naive_loop_on_a_partial_basis(case):
    gb, f = case
    _assert_same_terms(gb.normal_form(f), naive_normal_form(gb.order, gb.elements, f))


@st.composite
def _quadratic_presentation(draw):
    field = draw(st.sampled_from(FIELDS))
    gens = draw(st.sampled_from([Gens(("x", "y"), (1, 1)), GRADED]))
    rels = draw(st.lists(_homogeneous(gens, field, 2, max_terms=4), min_size=1, max_size=3))
    return Presentation(field, gens, tuple(rels), MonomialOrder(gens, tuple(range(len(gens)))))


@settings(max_examples=40, deadline=None)
@given(_quadratic_presentation())
def test_completion_matches_naive_completion(pres):
    got = truncated_groebner(pres, 4).elements
    want = naive_groebner(pres, 4)
    assert [list(g.terms.items()) for g in got] == [list(g.terms.items()) for g in want]
