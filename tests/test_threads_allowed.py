"""Which modules may start or synchronise threads.

The service and the observability plane run on one loop per process:
the HTTP/SSE server, the publisher, the metrics registry and the stall
breakdown are touched only by the thread that drives the kernel, so
none of them needs a lock.  Two threads are kept on purpose: the
archive's writer (disk I/O stays off the loop) and the flight
recorder's ``StallWatchdog`` (it must fire while the loop is wedged).
This scan pins that: an import of ``threading`` — at module level or
inside a function — anywhere else in those two packages fails it.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

#: package -> the modules in it that may import ``threading``.
ALLOWED = {"observability": {"archive.py", "flight.py"},
           "service": set()}


def imports_threading(path: Path) -> bool:
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "threading" for name in names):
            return True
    return False


def test_only_the_archive_and_the_flight_recorder_import_threading():
    found = {package: {path.name
                       for path in sorted((SRC / package).glob("*.py"))
                       if imports_threading(path)}
             for package in ALLOWED}
    assert found == ALLOWED
