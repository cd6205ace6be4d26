"""What leaves the process, pinned byte-for-byte.

``scripts/capture_egress_golden.py`` renders fixed inputs through every
output format the telemetry plane speaks (Prometheus text, Chrome trace
events, SSE frames, the HTTP routes of both front-ends);
``tests/golden/egress/`` holds what that produced before the formats were
folded behind one writer each.  These tests re-render and compare, so a
refactor of the writers cannot move a byte unnoticed.

The loader matrix at the bottom pins the other direction: every "read a
JSON file we wrote" entry point fails with one friendly line (exit 2 from
the CLI) on a missing, truncated, alien or wrong-version file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.observability import load_flight_dump, load_metrics_json, load_spans

REPO_ROOT = Path(__file__).resolve().parent.parent
EGRESS_DIR = REPO_ROOT / "tests" / "golden" / "egress"

sys.path.insert(0, str(REPO_ROOT / "scripts"))

import capture_egress_golden as capture  # noqa: E402  (path tweak above)


def _golden(name: str) -> str:
    path = EGRESS_DIR / name
    assert path.exists(), (
        f"missing egress fixture {path}; run scripts/capture_egress_golden.py")
    return path.read_text(encoding="utf-8")


@pytest.mark.parametrize("render", [capture.prometheus_fixtures,
                                    capture.trace_fixtures,
                                    capture.sse_fixtures],
                         ids=["prometheus", "chrome-trace", "sse"])
def test_rendered_formats_match_the_fixtures_byte_for_byte(render):
    rendered = render()
    assert rendered, "capture function produced nothing"
    for name, text in rendered.items():
        assert text == _golden(name), (
            f"{name}: output drifted from tests/golden/egress — an egress "
            "format changed. If intended, regenerate with "
            "scripts/capture_egress_golden.py and say so in the PR.")


@pytest.mark.parametrize("front_end", ["live", "service"])
def test_every_route_keeps_status_content_type_and_keys(front_end):
    routes = {"live": capture.live_routes,
              "service": capture.service_routes}[front_end]()
    expected = json.loads(_golden(f"routes_{front_end}.json"))
    assert set(routes) == set(expected)
    for route, seen in routes.items():
        assert seen == expected[route], route


def test_every_fixture_file_is_rendered_by_the_capture_script():
    # A stale file nothing renders any more would pin nothing.
    rendered = set(capture.prometheus_fixtures()) \
        | set(capture.trace_fixtures()) | set(capture.sse_fixtures()) \
        | {"routes_live.json", "routes_service.json"}
    assert rendered == {path.name for path in EGRESS_DIR.iterdir()}


# --------------------------------------------------------------------------
# One friendly line from every loader
# --------------------------------------------------------------------------

#: kind -> (loader, CLI argv prefix, a file that is the right shape but
#: the wrong version).
LOADERS = {
    "metrics": (load_metrics_json, ["metrics", "--from"],
                {"version": 999, "strategy": "DSE", "metrics": {}}),
    "spans": (load_spans, ["explain", "--from"],
              {"version": 999, "clock": "kernel-seconds", "spans": []}),
    "flight": (load_flight_dump, ["top", "--replay"],
               {"version": 999, "reason": "drain", "entries": []}),
    "trace": (None, ["trace", "--from"],
              {"version": 999, "reason": "drain", "entries": []}),
}

BROKEN = {
    "missing": None,
    "truncated": '{"version": 1, "entr',
    "alien": '["not", "ours"]',
}


@pytest.mark.parametrize("problem", ["missing", "truncated", "alien",
                                     "wrong-version"])
@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loaders_fail_with_one_line(kind, problem, tmp_path, capsys):
    loader, argv, wrong_version = LOADERS[kind]
    path = tmp_path / f"{problem}.json"
    text = (json.dumps(wrong_version) if problem == "wrong-version"
            else BROKEN[problem])
    if text is not None:
        path.write_text(text)

    if loader is not None:
        with pytest.raises(ConfigurationError) as caught:
            loader(path)
        message = str(caught.value)
        assert "\n" not in message and str(path) in message

    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert str(path) in lines[0]
    assert captured.out == ""
