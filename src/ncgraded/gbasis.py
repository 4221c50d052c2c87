"""Truncated two-sided Groebner bases for homogeneous ideals of the free
algebra (diamond-lemma completion), plus normal forms and normal-word
enumeration.

Everything is degree-truncated: a TruncatedGB certifies its answers only
through ``complete_through`` and queries beyond that raise, never return a
silent partial answer.
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
        self.elements = list(elements)
        self.complete_through = complete_through
        self.leading_words = [g.leading_word(self.order) for g in self.elements]
        self._lw_set = set(self.leading_words)
        self._normal_cache: dict[int, list[Word]] = {}

    # -- reduction ---------------------------------------------------------

    def _find_reduction(self, w: Word):
        """(leading word, position) for the order-largest reducible subword of
        w, leftmost occurrence; None if w is normal."""
        best = None
        for u in self._lw_set:
            lu = len(u)
            if lu > len(w):
                continue
            for pos in range(len(w) - lu + 1):
                if w[pos : pos + lu] == u:
                    if best is None or self.order.key(u) > self.order.key(best[0]):
                        best = (u, pos)
                    break
        return best

    def normal_form(self, f: NcPoly) -> NcPoly:
        d = f.degree()
        if d is not None and d > self.complete_through:
            raise DegreeBeyondTruncation(
                f"degree {d} exceeds completion bound {self.complete_through}"
            )
        cur = f
        while True:
            target = None
            for w in cur.terms:
                red = self._find_reduction(w)
                if red is not None and (target is None or self.order.key(w) > self.order.key(target[0])):
                    target = (w, red)
            if target is None:
                return cur
            w, (u, pos) = target
            g = self.elements[self.leading_words.index(u)]
            c = cur.terms[w]
            left = NcPoly.word(self.gens, self.field, w[:pos], c)
            right = NcPoly.word(self.gens, self.field, w[pos + len(u) :])
            cur = cur - left * g * right

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
                            if w2[start:] in self._lw_set:
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
        gb.elements = keep_e + [h]
        gb.leading_words = keep_l + [lw]
        gb._lw_set = set(gb.leading_words)
        gb._normal_cache.clear()
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

    def queue_overlaps(h: NcPoly):
        nonlocal seq
        u = h.leading_word(order)
        for g in list(gb.elements):
            v = g.leading_word(order)
            for a, b, du in ((h, g, u), (g, h, v)):
                va = a.leading_word(order)
                vb = b.leading_word(order)
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
        queue_overlaps(h)
        for g in retired:
            if g is not h:
                queue_poly(g)

    # final inter-reduction of tails
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(list(gb.elements)):
            rest = TruncatedGB(
                pres,
                [x for j, x in enumerate(gb.elements) if j != i],
                D,
            )
            red = rest.normal_form(g)
            if red != g:
                changed = True
                if red.is_zero():
                    gb.elements.pop(i)
                    gb.leading_words.pop(i)
                else:
                    red = red.monic(order)
                    gb.elements[i] = red
                    gb.leading_words[i] = red.leading_word(order)
                gb._lw_set = set(gb.leading_words)
                gb._normal_cache.clear()
                break
    # canonical element order: by (degree, leading word)
    pairs = sorted(
        zip(gb.elements, gb.leading_words),
        key=lambda gl: order.key(gl[1]),
    )
    gb.elements = [g for g, _ in pairs]
    gb.leading_words = [l for _, l in pairs]
    gb._lw_set = set(gb.leading_words)
    return gb


def normal_form(gb: TruncatedGB, f: NcPoly) -> NcPoly:
    return gb.normal_form(f)


def normal_words(gb: TruncatedGB, d: int) -> list[Word]:
    return gb.normal_words(d)
