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

Each element is compiled when it is installed, and no other rule is
touched: its rule is its terms in its own order with negated coefficients,
so rewriting c*w adds c times the rule's terms, shifted to the match.  Two
memos live on the basis: word -> heap key, fixed by the order and never
cleared, and word -> (leading word, position) of its rewrite.  That memo
names the leading word, not its rule, so replacing an element's tail
recompiles that rule alone and leaves the memo valid; and completion
installs leading words in degree order, so a new one lies in no memoized
word but itself, and only that word's entry is dropped.

Completion queues an ambiguity as its two elements and cofactor words and
forms the S-polynomial a * right - left * b from their terms only when it
is popped, in the term order NcPoly arithmetic gives it.  The tails are
inter-reduced at the end in one pass: whether a tail is normal depends on
the leading words alone, which a tail replacement never changes.  Over QQ a
reduction runs on reduced (numerator, denominator) integer pairs, converted
from and back to Fractions at entry and exit; the zero tests stay exact, so
the rewrites, and the order in which terms enter the result, are those of
Fraction arithmetic.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DegreeBeyondTruncation, FieldMismatch, NonHomogeneous, TruncationTooLow
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
        if self.order.gens != self.gens:
            raise FieldMismatch("the monomial order is over other generators")
        for r in rels:
            if r.field != self.field or r.gens != self.gens:
                raise FieldMismatch(f"relation {r} is over another field or other generators")
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
        self._normal_words: list[list[Word]] = []  # degree n at index n
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
        self.elements: list[NcPoly] = []
        self.leading_words: list[Word] = []
        self._lw_lengths: list[int] = []
        for g in elements:
            self._install(g, g.leading_word(self.order))

    def _rule(self, g: NcPoly) -> tuple:
        """g's terms in its own order with negated coefficients."""
        return tuple((v, self._enter(self.field.neg(c))) for v, c in g.terms.items())

    def _install(self, g: NcPoly, u: Word):
        """Append g with leading word u.  A new leading word gets g's rule,
        its length and its order key; an element listed after another with
        the same leading word rewrites nothing.  The rewrite memo keeps every
        entry but u's: a caller may add a leading word only when it is no
        proper subword of a word reduced before (completion adds them in
        degree order)."""
        self.elements.append(g)
        self.leading_words.append(u)
        if u in self._lw_index:
            return
        self._lw_index[u] = (self.order.key(u), self._rule(g))
        self._reducers.pop(u, None)
        if len(u) not in self._lw_lengths:
            bisect.insort(self._lw_lengths, len(u))
        self._normal_words.clear()

    def _replace_tail(self, i: int, g: NcPoly):
        """Put g, whose leading word is element i's, in element i's place and
        recompile that word's rule; leading words are distinct (as in a
        completion), so the rule was element i's."""
        self.elements[i] = g
        u = self.leading_words[i]
        self._lw_index[u] = (self._lw_index[u][0], self._rule(g))

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
        """All degree-d words with no leading word as a subword, ascending in
        the monomial order.  Each degree is built once, upward from the cached
        lower degrees, in a loop: a word of degree n is normal exactly when
        it is a letter i before a normal word of degree n - deg(i) and no
        leading word is a prefix of it.  Taking the letters by rank, and each
        lower degree in its order, gives degree n in order with no sort."""
        if d > self.complete_through:
            raise DegreeBeyondTruncation(f"degree {d} exceeds completion bound {self.complete_through}")
        if d < 0:
            return []
        words, index, lengths = self._normal_words, self._lw_index, self._lw_lengths
        degrees = self.gens.degrees
        letters = sorted(range(len(degrees)), key=self.order.rank.__getitem__)
        for n in range(len(words), d + 1):
            out = [] if n else [()]
            for i in letters:
                for w in words[n - degrees[i]] if degrees[i] <= n else ():
                    v = (i,) + w
                    # a slice longer than v is v, a leading word only when
                    # v is not normal
                    if not any(v[:k] in index for k in lengths):
                        out.append(v)
            words.append(out)
        return words[d]


def _overlaps(u: Word, v: Word):
    """The lengths k of the proper overlaps of u with v: a nonempty proper
    suffix of u equals a prefix of v, so u + v[k:] = u[:len(u)-k] + v is an
    ambiguity word."""
    for k in range(1, min(len(u), len(v))):
        if u[len(u) - k :] == v[:k]:
            yield k


def truncated_groebner(pres: Presentation, D: int) -> TruncatedGB:
    """Degree-truncated two-sided completion (noncommutative Buchberger).

    Deterministic: relations and ambiguities are processed by (degree,
    discovery order).  An ambiguity is queued as (a, b, left, right), and
    its S-polynomial a * right - left * b is formed only when it is popped,
    from the two elements' terms; its terms come in that product's order
    (a's shifted terms, then b's new words), which fixes the reductions.
    Installing an element compiles its rule alone, and the tails are then
    inter-reduced in one pass.
    """
    pres.check_truncation(D)
    order = pres.order
    gens = pres.gens
    field = pres.field
    sub, neg = field.sub, field.neg

    gb = TruncatedGB(pres, [], D)

    pending = []  # heap of (degree, seq, relation or ambiguity)
    seq = itertools.count()

    def queue_overlaps(h: NcPoly, u: Word):
        for g, v in zip(gb.elements, gb.leading_words):
            # a self-overlap is one ambiguity: queued twice, its second copy
            # would only reduce to zero
            pairs = ((h, g, u, v),) if g is h else ((h, g, u, v), (g, h, v, u))
            for a, b, va, vb in pairs:
                for k in _overlaps(va, vb):
                    right = vb[k:]
                    wdeg = gens.word_degree(va) + gens.word_degree(right)
                    if wdeg <= D:
                        heapq.heappush(pending, (wdeg, next(seq), (a, b, va[: len(va) - k], right)))

    def s_polynomial(a: NcPoly, b: NcPoly, left: Word, right: Word) -> NcPoly:
        """a * right - left * b, its terms in the order NcPoly gives them."""
        t = {w + right: c for w, c in a.terms.items()}
        for v, c in b.terms.items():
            x = left + v
            t[x] = sub(t[x], c) if x in t else neg(c)
        return NcPoly._canonical(gens, field, t)

    for r in pres.relations:
        if not r.is_zero():
            heapq.heappush(pending, (r.degree(), next(seq), r))

    while pending:
        _, _, item = heapq.heappop(pending)
        h = gb.normal_form(item if isinstance(item, NcPoly) else s_polynomial(*item))
        if h.is_zero():
            continue
        h = h.monic(order)
        # no element is ever retired: work is popped by degree, so a new
        # degree-d leading word could only lie inside a longer one (none is
        # added yet) or equal one of degree d (h is reduced)
        lw = h.leading_word(order)
        gb._install(h, lw)
        queue_overlaps(h, lw)

    # inter-reduction of tails, in one pass.  The leading words form an
    # antichain under the subword relation and every element is homogeneous,
    # so no other element touches g's leading word, g never applies to its
    # own tail, and the reduced element stays monic with the same leading
    # word.  Whether a tail is normal depends on the leading words alone, so
    # a later replacement leaves an earlier reduced tail reduced.
    for i, (g, u) in enumerate(zip(gb.elements, gb.leading_words)):
        red = NcPoly._canonical(gens, field, gb._reduce(g.terms, keep=u))
        if red != g:
            gb._replace_tail(i, red)
    # canonical element order: by (degree, leading word); the rules are
    # keyed by leading word, so they stay as they are
    pairs = sorted(zip(gb.elements, gb.leading_words), key=lambda gl: order.key(gl[1]))
    gb.elements = [g for g, _ in pairs]
    gb.leading_words = [u for _, u in pairs]
    return gb


def normal_form(gb: TruncatedGB, f: NcPoly) -> NcPoly:
    return gb.normal_form(f)


def normal_words(gb: TruncatedGB, d: int) -> list[Word]:
    return gb.normal_words(d)
