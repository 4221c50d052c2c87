"""The one memo for derived objects, below every layer that keeps one, and
Pieces, a mapping of degrees whose values are built on first read."""

from collections.abc import Mapping
from typing import Callable


def memo(owner, key, build):
    """build(), computed on the first call for (owner, key) and kept in one
    dict on owner, so it lives as long as owner does.  A key holds every
    object whose identity it uses, which keeps that object alive; callers
    never mutate the result."""
    table = vars(owner).setdefault("_memo", {})
    if key not in table:
        table[key] = build()
    return table[key]


class Pieces(Mapping):
    """d -> build(d) over the degrees lo..hi, each built on its first read
    and kept; any other degree is absent (a KeyError, or .get's default)."""

    def __init__(self, lo: int, hi: int, build: Callable):
        self._degrees = range(lo, hi + 1)
        self._build = build

    def __getitem__(self, d):
        if d not in self._degrees:
            raise KeyError(d)
        return memo(self, d, lambda: self._build(d))

    def __contains__(self, d) -> bool:  # Mapping's default would build the piece
        return d in self._degrees

    def __iter__(self):
        return iter(self._degrees)

    def __len__(self) -> int:
        return len(self._degrees)
