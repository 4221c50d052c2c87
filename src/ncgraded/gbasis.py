"""Truncated two-sided Groebner bases for homogeneous ideals of the free
algebra (diamond-lemma completion), plus normal forms and normal-word
enumeration.

Everything is degree-truncated: a TruncatedGB certifies its answers only
through ``complete_through`` and queries beyond that raise, never return a
silent partial answer.

Reduction is top down: the largest word still to be processed (in the
monomial order) is either normal and final, or is rewritten with the
element whose leading word is the order-largest subword of it, at that
subword's leftmost occurrence.  The order is admissible and every element
is monic, so a rewrite only adds words smaller than the one it removes;
reducing the largest word first therefore does the same reductions, in the
same sequence, as always reducing the largest reducible term.

Each element is compiled once, when it is installed, into its rule: its
terms in its own order with negated coefficients, so rewriting c*w adds
c times the rule's terms, shifted to the match.  Two memos live on the
basis: word -> heap key, fixed by the order and never cleared, and word ->
(leading word, position) of its rewrite.  That memo names the leading word,
not its rule, so replacing an element's tail leaves it valid; and
completion installs leading words in degree order, so a new one lies in no
memoized word but itself, and only that word's entry is dropped.  Over QQ a
reduction runs on reduced (numerator, denominator) integer pairs, converted
from and back to Fractions at entry and exit; the zero tests stay exact, so
the rewrites, and the order in which terms enter the result, are those of
Fraction arithmetic.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DegreeBeyondTruncation, NonHomogeneous, TruncationTooLow
from .freealg import Gens, MonomialOrder, NcPoly, Word
from .scalars import Field

NonHomogeneousRelation = NonHomogeneous

_UNSEEN = object()


# QQ coefficients inside a reduction: (numerator, denominator) pairs in lowest
# terms with a positive denominator, combined as Fraction combines them.


def _qq_pair(c):
    return (c.numerator, c.denominator)


def _qq_mul(a, b):
    """a*b, reduced."""
    n1, d1 = a
    n2, d2 = b
    if d1 == 1 and d2 == 1:
        return (n1 * n2, 1)
    g1, g2 = gcd(n1, d2), gcd(n2, d1)
    return ((n1 // g1) * (n2 // g2), (d1 // g2) * (d2 // g1))


def _qq_fma(o, a, b):
    """o + a*b, reduced; 0 when it is zero."""
    n, d = _qq_mul(a, b)
    on, od = o
    g = gcd(od, d)
    s = od // g
    t = on * (d // g) + n * s
    if not t:
        return 0
    g2 = gcd(t, g)
    return (t // g2, s * (d // g2))


@dataclass(frozen=True)
class Presentation:
    field: Field
    gens: Gens
    relations: tuple
    order: MonomialOrder = None

    def __post_init__(self):
        if self.order is None:
            object.__setattr__(self, "order", MonomialOrder.default(self.gens))
        rels = tuple(self.relations)
        object.__setattr__(self, "relations", rels)
        for r in rels:
            if r.is_zero():
                continue
            if not r.is_homogeneous():
                raise NonHomogeneous(f"relation {r} is not homogeneous")
            if r.degree() < 1:
                raise NonHomogeneous(f"relation {r} has degree < 1")

    def check_truncation(self, D: int):
        """TruncationTooLow when D is below the degree of a relation."""
        maxrel = max((r.degree() for r in self.relations if not r.is_zero()), default=0)
        if D < maxrel:
            raise TruncationTooLow(f"D={D} below max relation degree {maxrel}")

    def with_extra_relations(self, extra) -> "Presentation":
        return Presentation(self.field, self.gens, tuple(self.relations) + tuple(extra), self.order)


class TruncatedGB:
    """Inter-reduced monic homogeneous basis, complete through degree D."""

    def __init__(self, pres: Presentation, elements, complete_through: int):
        self.presentation = pres
        self.field = pres.field
        self.gens = pres.gens
        self.order = pres.order
        self.complete_through = complete_through
        self._normal_cache: dict[int, list[Word]] = {}
        self._neg_rank = tuple(-r for r in self.order.rank)
        self._heap_keys: dict = {}
        self._reducers: dict = {}
        self._lw_index: dict = {}
        p = self.field.p
        if p is None:
            self._enter, self._mul, self._fma = _qq_pair, _qq_mul, _qq_fma
        else:
            self._enter = int
            self._mul = lambda c, a: c * a % p
            self._fma = lambda o, c, a: (o + c * a) % p
        elements = list(elements)
        self._set_elements(elements, [g.leading_word(self.order) for g in elements])

    def _set_elements(self, elements, leading_words):
        """Install the elements and rebuild every lookup derived from them:
        leading word -> (order key, rule of the first element listed with
        it), and the leading-word lengths.  A rule is the element's terms in
        its own order with negated coefficients.  The rewrite memo keeps
        every entry but those of new leading words: a caller may add a
        leading word only when it is no proper subword of a word reduced
        before (completion adds them in degree order)."""
        self.elements = list(elements)
        self.leading_words = list(leading_words)
        old = self._lw_index
        self._lw_index = {}
        for u, g in zip(self.leading_words, self.elements):
            if u not in self._lw_index:
                rule = tuple((v, self._enter(self.field.neg(c))) for v, c in g.terms.items())
                self._lw_index[u] = (self.order.key(u), rule)
                if u not in old:
                    self._reducers.pop(u, None)
        self._lw_lengths = sorted({len(u) for u in self._lw_index})
        self._normal_cache.clear()

    # -- reduction ---------------------------------------------------------

    def _heap_key(self, w: Word):
        """(-degree, negated ranks of the letters): a key that reverses the
        monomial order, so that a min-heap pops the order-largest word
        (words of one degree are never prefixes of each other, so negating
        the ranks reverses the lexicographic part); memoized, never empty."""
        k = self._heap_keys[w] = (-self.gens.word_degree(w), *map(self._neg_rank.__getitem__, w))
        return k

    def _reducer(self, w: Word):
        """(leading word, position) of the order-largest leading word that
        is a subword of w, at its leftmost occurrence; None if w is normal."""
        best = best_key = None
        n = len(w)
        for lu in self._lw_lengths:
            if lu > n:
                break
            for pos in range(n - lu + 1):
                u = w[pos : pos + lu]
                hit = self._lw_index.get(u)
                if hit is not None and (best is None or hit[0] > best_key):
                    best_key, best = hit[0], (u, pos)
        return best

    def _reduce(self, terms: dict, keep=None) -> dict:
        """The reduction of the term map ``terms``, top down, leaving the
        word ``keep`` alone.  Inside, QQ coefficients are reduced
        (numerator, denominator) pairs; terms keep their insertion order."""
        t = {w: self._enter(c) for w, c in terms.items()}
        mul, fma = self._mul, self._fma
        keys, key_of, reducers, index = self._heap_keys, self._heap_key, self._reducers, self._lw_index
        heap = [(keys.get(w) or key_of(w), w) for w in t]
        heapq.heapify(heap)
        while heap:
            _, w = heapq.heappop(heap)
            c = t.get(w)
            if c is None or w == keep:
                continue
            red = reducers.get(w, _UNSEEN)
            if red is _UNSEEN:
                red = reducers[w] = self._reducer(w)
            if red is None:
                continue
            u, pos = red
            left, right = w[:pos], w[pos + len(u) :]
            for v, na in index[u][1]:
                x = left + v + right
                old = t.get(x)
                if old is None:
                    t[x] = mul(c, na)
                    heapq.heappush(heap, (keys.get(x) or key_of(x), x))
                else:
                    new = fma(old, c, na)
                    if new:
                        t[x] = new
                    else:
                        del t[x]
        if self.field.p is None:
            return {w: Fraction(n, d) for w, (n, d) in t.items()}
        return t

    def normal_form(self, f: NcPoly) -> NcPoly:
        """The normal form of f: the largest word first, each reducible word
        rewritten with the order-largest leading word it contains, at its
        leftmost occurrence.  Relies on an admissible order and monic
        elements (see the module docstring)."""
        d = f.degree()
        if d is not None and d > self.complete_through:
            raise DegreeBeyondTruncation(
                f"degree {d} exceeds completion bound {self.complete_through}"
            )
        return NcPoly._canonical(self.gens, self.field, self._reduce(f.terms))

    def normal_words(self, d: int) -> list[Word]:
        """All degree-d words with no leading word as subword, sorted ascending
        by the monomial order."""
        if d > self.complete_through:
            raise DegreeBeyondTruncation(f"degree {d} exceeds completion bound {self.complete_through}")
        if d < 0:
            return []
        if d in self._normal_cache:
            return self._normal_cache[d]
        degrees = self.gens.degrees
        # build all normal words of degree <= d by extension on the right
        frontier = {0: [()]}
        maxdeg = 0
        while maxdeg < d:
            newdeg = maxdeg + 1
            out = []
            for d0 in range(maxdeg + 1):
                for i, gd in enumerate(degrees):
                    if d0 + gd != newdeg:
                        continue
                    for w in frontier.get(d0, []):
                        w2 = w + (i,)
                        # w is normal, so only suffixes ending at the new
                        # letter can match a leading word
                        ok = True
                        for start in range(len(w2)):
                            if w2[start:] in self._lw_index:
                                ok = False
                                break
                        if ok:
                            out.append(w2)
            frontier[newdeg] = out
            maxdeg = newdeg
        for dd, ws in frontier.items():
            self._normal_cache.setdefault(dd, sorted(ws, key=self.order.key))
        return self._normal_cache[d]


def _overlaps(u: Word, v: Word):
    """Proper overlaps: nonempty proper suffix of u = nonempty proper prefix
    of v; yields (left cofactor of v-side, right cofactor of u-side) so the
    ambiguity word is u + v[k:] = u[:len(u)-k] + v."""
    for k in range(1, min(len(u), len(v))):
        if u[len(u) - k :] == v[:k]:
            yield k


def truncated_groebner(pres: Presentation, D: int) -> TruncatedGB:
    """Degree-truncated two-sided completion (noncommutative Buchberger).

    Deterministic: ambiguities are processed by (degree, discovery order).
    """
    pres.check_truncation(D)
    order = pres.order
    gens = pres.gens
    field = pres.field

    gb = TruncatedGB(pres, [], D)

    pending = []  # heap of (degree, seq, payload)
    seq = itertools.count()

    def queue_overlaps(h: NcPoly, u: Word):
        for g, v in zip(gb.elements, gb.leading_words):
            # a self-overlap is one ambiguity: queued twice, its second copy
            # would only reduce to zero
            pairs = ((h, g, u, v),) if g is h else ((h, g, u, v), (g, h, v, u))
            for a, b, va, vb in pairs:
                for k in _overlaps(va, vb):
                    wdeg = gens.word_degree(va) + gens.word_degree(vb) - gens.word_degree(vb[:k])
                    if wdeg > D:
                        continue
                    right = NcPoly.word(gens, field, vb[k:])
                    left = NcPoly.word(gens, field, va[: len(va) - k])
                    spoly = a * right - left * b
                    heapq.heappush(pending, (wdeg, next(seq), spoly))

    for r in pres.relations:
        if not r.is_zero():
            heapq.heappush(pending, (r.degree(), next(seq), r))

    while pending:
        _, _, f = heapq.heappop(pending)
        h = gb.normal_form(f)
        if h.is_zero():
            continue
        h = h.monic(order)
        # no element is ever retired: work is popped by degree, so a new
        # degree-d leading word could only lie inside a longer one (none is
        # added yet) or equal one of degree d (h is reduced)
        lw = h.leading_word(order)
        gb._set_elements(gb.elements + [h], gb.leading_words + [lw])
        queue_overlaps(h, lw)

    # final inter-reduction of tails.  The leading words form an antichain
    # under the subword relation and every element is homogeneous, so no
    # other element touches g's leading word, g never applies to its own
    # tail, and the reduced element stays monic with the same leading word.
    changed = True
    while changed:
        changed = False
        for i, (g, u) in enumerate(zip(gb.elements, gb.leading_words)):
            red = NcPoly._canonical(gens, field, gb._reduce(g.terms, keep=u))
            if red != g:
                changed = True
                gb._set_elements(gb.elements[:i] + [red] + gb.elements[i + 1 :], gb.leading_words)
                break
    # canonical element order: by (degree, leading word)
    pairs = sorted(
        zip(gb.elements, gb.leading_words),
        key=lambda gl: order.key(gl[1]),
    )
    gb._set_elements([g for g, _ in pairs], [l for _, l in pairs])
    return gb


def normal_form(gb: TruncatedGB, f: NcPoly) -> NcPoly:
    return gb.normal_form(f)


def normal_words(gb: TruncatedGB, d: int) -> list[Word]:
    return gb.normal_words(d)
