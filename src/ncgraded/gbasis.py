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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import DegreeBeyondTruncation, NonHomogeneous, TruncationTooLow
from .freealg import Gens, MonomialOrder, NcPoly, Word
from .scalars import Field

NonHomogeneousRelation = NonHomogeneous


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

    @property
    def max_relation_degree(self) -> int:
        degs = [r.degree() for r in self.relations if not r.is_zero()]
        return max(degs) if degs else 0

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
        elements = list(elements)
        self._set_elements(elements, [g.leading_word(self.order) for g in elements])

    def _set_elements(self, elements, leading_words):
        """Install the elements and rebuild every lookup derived from them:
        leading word -> (order key, first element listed with it), and the
        leading-word lengths."""
        self.elements = list(elements)
        self.leading_words = list(leading_words)
        self._lw_index = {}
        for u, g in zip(self.leading_words, self.elements):
            self._lw_index.setdefault(u, (self.order.key(u), g))
        self._lw_lengths = sorted({len(u) for u in self._lw_index})
        self._normal_cache.clear()

    # -- reduction ---------------------------------------------------------

    def _desc_key(self, w: Word):
        """A key that reverses the monomial order, so that a min-heap pops
        the order-largest word (words of one degree are never prefixes of
        each other, so negating the ranks reverses the lexicographic part)."""
        return (-self.gens.word_degree(w), tuple(map(self._neg_rank.__getitem__, w)))

    def _reducer(self, w: Word):
        """(element, position, length) of the order-largest leading word that
        is a subword of w, at its leftmost occurrence; None if w is normal."""
        best = best_key = None
        n = len(w)
        for lu in self._lw_lengths:
            if lu > n:
                break
            for pos in range(n - lu + 1):
                hit = self._lw_index.get(w[pos : pos + lu])
                if hit is not None and (best is None or hit[0] > best_key):
                    best_key, best = hit[0], (hit[1], pos, lu)
        return best

    def _reduce(self, t: dict, keep=None) -> dict:
        """Reduce the term dict t in place, top down, leaving the word
        ``keep`` alone; returns t."""
        field, desc = self.field, self._desc_key
        heap = [(desc(w), w) for w in t]
        heapq.heapify(heap)
        while heap:
            _, w = heapq.heappop(heap)
            c = t.get(w)
            if c is None or w == keep:
                continue
            red = self._reducer(w)
            if red is None:
                continue
            g, pos, lu = red
            left, right = w[:pos], w[pos + lu :]
            for v, a in g.terms.items():
                x = left + v + right
                old = t.get(x)
                if old is None:
                    t[x] = field.neg(field.mul(c, a))
                    heapq.heappush(heap, (desc(x), x))
                else:
                    new = field.sub(old, field.mul(c, a))
                    if field.is_zero(new):
                        del t[x]
                    else:
                        t[x] = new
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
        return NcPoly(self.gens, self.field, self._reduce(dict(f.terms)))

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
    maxrel = pres.max_relation_degree
    if D < maxrel:
        raise TruncationTooLow(f"D={D} below max relation degree {maxrel}")
    order = pres.order
    gens = pres.gens
    field = pres.field

    gb = TruncatedGB(pres, [], D)

    def add_element(h: NcPoly):
        """Add a fully reduced monic element, keeping leading words inter-reduced."""
        lw = h.leading_word(order)
        # retire existing elements whose leading word contains lw
        retired = []
        keep_e, keep_l = [], []
        for g, u in zip(gb.elements, gb.leading_words):
            contains = any(u[p : p + len(lw)] == lw for p in range(len(u) - len(lw) + 1))
            if contains:
                retired.append(g)
            else:
                keep_e.append(g)
                keep_l.append(u)
        gb._set_elements(keep_e + [h], keep_l + [lw])
        return retired

    pending = []  # heap of (degree, seq, payload)
    seq = 0

    def queue_poly(f: NcPoly):
        nonlocal seq
        if f.is_zero():
            return
        d = f.homogeneous_degree()
        if d > D:
            return
        heapq.heappush(pending, (d, seq, f))
        seq += 1

    def queue_overlaps(h: NcPoly, u: Word):
        nonlocal seq
        for g, v in zip(gb.elements, gb.leading_words):
            for a, b, va, vb in ((h, g, u, v), (g, h, v, u)):
                for k in _overlaps(va, vb):
                    wdeg = gens.word_degree(va) + gens.word_degree(vb) - gens.word_degree(vb[:k])
                    if wdeg > D:
                        continue
                    right = NcPoly.word(gens, field, vb[k:])
                    left = NcPoly.word(gens, field, va[: len(va) - k])
                    spoly = a * right - left * b
                    heapq.heappush(pending, (wdeg, seq, spoly))
                    seq += 1

    for r in pres.relations:
        if not r.is_zero():
            queue_poly(r)

    while pending:
        _, _, f = heapq.heappop(pending)
        h = gb.normal_form(f)
        if h.is_zero():
            continue
        h = h.monic(order)
        retired = add_element(h)
        queue_overlaps(h, gb.leading_words[-1])
        for g in retired:
            if g is not h:
                queue_poly(g)

    # final inter-reduction of tails.  The leading words form an antichain
    # under the subword relation and every element is homogeneous, so no
    # other element touches g's leading word, g never applies to its own
    # tail, and the reduced element stays monic with the same leading word.
    changed = True
    while changed:
        changed = False
        for i, (g, u) in enumerate(zip(gb.elements, gb.leading_words)):
            red = NcPoly(gens, field, gb._reduce(dict(g.terms), keep=u))
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
