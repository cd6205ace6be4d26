"""The reachability gate's def-to-code mapping (``scripts/reachability.py``).

The gate matches each ``def`` in ``src/repro`` to the code objects a
profiler saw start, by file, first line and name.  Here a toy module
runs under an in-process profiler: every function it calls must map to
its ``def``, whatever its shape, and the one it never calls must be the
one the verdict flags.
"""

import importlib.util
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import reachability  # noqa: E402  (needs the path above)

TOY = '''\
import functools
from abc import ABC, abstractmethod
from typing import Protocol


def traced(function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        return function(*args, **kwargs)
    return wrapper


@traced
@functools.lru_cache(maxsize=None)
def decorated(x):
    return x + 1


class Box:
    def __init__(self):
        self.value = 1

    def method(self):
        def nested():
            return self.value
        return nested()

    @property
    def twice(self):
        return 2 * self.value


async def waiting():
    return 3


def counting():
    yield 1
    yield 2


def never():
    return 0


class Shape(Protocol):
    def area(self) -> float: ...


class Base(ABC):
    @abstractmethod
    def run(self): ...
'''


def _drive(path):
    """Import the toy module (which runs ``traced``) and call every
    other function of it but ``never``."""
    spec = importlib.util.spec_from_file_location("toy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.decorated(1)
    box = module.Box()
    box.method()
    box.twice
    coroutine = module.waiting()
    try:
        coroutine.send(None)
    except StopIteration:
        pass
    list(module.counting())


def test_every_def_maps_to_the_code_that_ran(tmp_path):
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    seen = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _drive(path)
    finally:
        sys.setprofile(previous)
    reached = {reachability.code_key(code) for code in seen}

    defined = reachability.definitions(path)
    names = {qualname: key for key, (qualname, _) in defined.items()}
    assert sorted(names) == [
        "Base.run", "Box.__init__", "Box.method", "Box.method.<locals>.nested",
        "Box.twice", "Shape.area", "counting", "decorated", "never",
        "traced", "traced.<locals>.wrapper", "waiting"]
    # A decorated function's code starts at its first decorator.
    lines = TOY.splitlines()
    assert lines[names["decorated"][1] - 1] == "@traced"
    assert lines[names["Box.twice"][1] - 1].strip() == "@property"
    assert {qualname for key, (qualname, exempt) in defined.items()
            if exempt} == {"Box.__init__", "Shape.area", "Base.run"}
    for qualname, key in names.items():
        if qualname not in ("never", "Shape.area", "Base.run"):
            assert key in reached, qualname

    flagged, stale = reachability.verdict(reached, defined,
                                          {"gone": "fault handling"})
    assert flagged == ["never"]
    assert stale == ["gone"]
    assert reachability.verdict(reached, defined,
                                {"never": "fault handling"}) == ([], [])


def test_the_allow_list_takes_only_its_reasons(tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("# comment\n\n"
                    "repro.a:f  # fault handling\n"
                    "repro.a:g  # handy for tests\n"
                    "repro.a:f  # test reference\n")
    allowed, problems = reachability.read_allow_list(path)
    assert allowed == {"repro.a:f": "test reference",
                       "repro.a:g": "handy for tests"}
    assert len(problems) == 2
    assert "'handy for tests' is not one of" in problems[0]
    assert "repro.a:f listed twice" in problems[1]
