import time

from ncgraded.scalars import Field, _is_prime, root_of_unity


def _smallest_of_each_order(p):
    """order n -> the smallest element of GF(p) of multiplicative order n,
    by computing the order of every element."""
    smallest = {}
    for a in range(1, p):
        x, order = a, 1
        while x != 1:
            x, order = x * a % p, order + 1
        smallest.setdefault(order, a)
    return smallest


def test_root_of_unity_matches_a_brute_force_scan():
    for p in filter(_is_prime, range(300)):
        field = Field(p)
        want = _smallest_of_each_order(p)
        assert sorted(want) == [n for n in range(1, p) if (p - 1) % n == 0]
        for n, a in want.items():
            assert root_of_unity(field, n) == a, (p, n)
    assert root_of_unity(Field(13), 4) == 5


def test_root_of_unity_in_a_large_field_is_fast():
    field = Field(1000000009)
    start = time.perf_counter()
    r = root_of_unity(field, 4)
    assert time.perf_counter() - start < 1
    assert pow(r, 4, field.p) == 1 and pow(r, 2, field.p) != 1
