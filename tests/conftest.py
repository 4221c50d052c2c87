import pytest

from ncgraded.algebra import build_presented_algebra, quotient_algebra
from ncgraded.endo import EndoAlgebra
from ncgraded.freealg import Gens, parse_poly
from ncgraded.gbasis import MonomialOrder, Presentation
from ncgraded.gmodule import cyclic_module, direct_sum, free_graded_module
from ncgraded.homology import Window
from ncgraded.scalars import Field

MAX_DEG = 12


@pytest.fixture(scope="session")
def F13():
    return Field(13)


@pytest.fixture(scope="session")
def window():
    return Window()


@pytest.fixture(scope="session")
def S(F13):
    gens = Gens(("x", "y", "z"), (1, 1, 1))
    order = MonomialOrder(gens, (0, 1, 2))
    rels = tuple(parse_poly(t, gens, F13)
                 for t in ("x*y + y*x - z^2", "x*z + z*x", "y*z + z*y"))
    return build_presented_algebra(Presentation(F13, gens, rels, order), MAX_DEG)


@pytest.fixture(scope="session")
def A(S, F13):
    return quotient_algebra(S, (parse_poly("x^2 + y^2", S.gens, F13),), MAX_DEG)


@pytest.fixture(scope="session")
def basic_modules(A, F13):
    # the four cyclic modules A/gA with g in degree 1, plus A itself
    eqs = ("x - y + z", "x - y - z", "x + y + 5*z", "x + y - 5*z")
    mods = {"A": free_graded_module(A, [0], 0, MAX_DEG)}
    for i, e in enumerate(eqs, start=1):
        mods[f"X{i}"] = cyclic_module(A, [parse_poly(e, A.gens, F13)], MAX_DEG)
    mods["k"] = cyclic_module(A, [parse_poly(g, A.gens, F13) for g in "xyz"], MAX_DEG)
    return mods


@pytest.fixture(scope="session")
def X(basic_modules):
    return direct_sum([basic_modules[n] for n in ("A", "X1", "X2", "X3", "X4")])


@pytest.fixture(scope="session")
def B(X, window):
    return EndoAlgebra(X, window)
