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


@pytest.fixture
def assert_pinned():
    """``assert_pinned(key, data)``: the sha256 of the bytes ``data`` is the
    digest recorded under ``key`` in tests/pins.json."""
    def check(key, data):
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
