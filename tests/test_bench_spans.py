"""Every callable the benchmark's tracer wraps still exists under its name."""

import importlib
import pathlib
import runpy

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves_in_the_library():
    tracer = runpy.run_path(str(TRACER))  # compiles from source, writes nothing
    for modname, qualname, _ in tracer["SPANS"] + tracer["COUNTED"]:
        owner = importlib.import_module(f"ncgraded.{modname}")
        *cls, attr = qualname.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            assert attr in vars(owner), qualname  # wrapped on the class that defines it
        assert callable(getattr(owner, attr)), f"{modname}.{qualname}"
