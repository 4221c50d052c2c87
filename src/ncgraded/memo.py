"""The one memo for derived objects, below every layer that keeps one."""


def memo(owner, key, build):
    """build(), computed on the first call for (owner, key) and kept in one
    dict on owner, so it lives as long as owner does.  A key holds every
    object whose identity it uses, which keeps that object alive; callers
    never mutate the result."""
    table = vars(owner).setdefault("_memo", {})
    if key not in table:
        table[key] = build()
    return table[key]
