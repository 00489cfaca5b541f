import functools
import hashlib
import json
import pathlib
import platform

import numpy as np
import pytest

# the one numpy build and machine on which the sha256 pins were recorded
PINNED_BUILD = ("2.4.6", "x86_64")
PINS = pathlib.Path(__file__).with_name("pins.json")  # pin key -> sha256 hex digest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "pinned: compares bytes or messages recorded on numpy "
                   f"{PINNED_BUILD[0]} / {PINNED_BUILD[1]}; skipped on any other build")


def pytest_runtest_setup(item):
    if item.get_closest_marker("pinned") and (np.__version__, platform.machine()) != PINNED_BUILD:
        pytest.skip("the pinned bytes carry the last bits of one numpy/LAPACK build "
                    f"(numpy {PINNED_BUILD[0]} on {PINNED_BUILD[1]})")


@functools.cache
def _pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


# what the session did with the pinned tests, for the stale-pin guard
_PINNED = {"read": set(), "modules": set(), "deselected": False, "collected": 0, "ran": 0}


def pytest_itemcollected(item):
    _PINNED["modules"].add(item.path)


def pytest_deselected(items):
    _PINNED["deselected"] |= any(item.get_closest_marker("pinned") for item in items)


def pytest_collection_finish(session):
    _PINNED["collected"] = sum(bool(item.get_closest_marker("pinned")) for item in session.items)


def pytest_runtest_logreport(report):
    if report.when == "call" and not report.skipped and "pinned" in report.keywords:
        _PINNED["ran"] += 1


def pytest_sessionfinish(session, exitstatus):
    """Fail a session that ran every pinned test, none deselected or skipped,
    if some key of tests/pins.json was never read: a pin that no test checks.
    A node id in the arguments, or a test module not collected, runs only part
    of the suite."""
    whole = (not any("::" in arg for arg in session.config.args)
             and _PINNED["modules"] >= set(PINS.parent.glob("test_*.py")))
    if not whole or _PINNED["deselected"] or not 0 < _PINNED["ran"] == _PINNED["collected"]:
        return
    unread = sorted(set(_pins()) - _PINNED["read"])
    if unread:
        session.config.get_terminal_writer().line(
            f"\ntests/pins.json holds {len(unread)} key(s) that no pinned test read: "
            f"{', '.join(unread)}", red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture
def assert_pinned():
    """``assert_pinned(key, data)``: the sha256 of the bytes ``data`` is the
    digest recorded under ``key`` in tests/pins.json."""
    def check(key, data):
        _PINNED["read"].add(key)
        digest = hashlib.sha256(data).hexdigest()
        assert digest == _pins()[key], f"{key}: sha256 {digest}, pinned {_pins()[key]}"
    return check


@pytest.fixture
def seeded_trials():
    """The seeded trial stream drawn the plain way: one generator seeded with
    ``seed``, drawing trial by trial in trial order.  Yields
    ``(t, kind, dim, draw(kind, dim, rng))`` for trials 0..count-1, on the
    grid cell that cycles kinds fastest, then dims."""
    def trials(seed, kinds, dims, count, draw):
        rng = np.random.default_rng(seed)
        for t in range(count):
            kind, dim = kinds[t % len(kinds)], dims[(t // len(kinds)) % len(dims)]
            yield t, kind, dim, draw(kind, dim, rng)
    return trials
