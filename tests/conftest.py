import numpy as np
import pytest


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
