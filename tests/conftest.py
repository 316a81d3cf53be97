import tracemalloc

import numpy as np
import pytest

from netrecover import UniformShifts, make_activation, sample_teacher


@pytest.fixture(scope="session")
def tanh_act():
    return make_activation("tanh")


@pytest.fixture(scope="session")
def sigmoid_act():
    return make_activation("sigmoid")


def random_teacher(dim, m, seed, act=None, shift_law=None):
    act = act or make_activation("tanh")
    law = shift_law or UniformShifts(-0.5, 0.5)
    return sample_teacher(dim, m, law, act, seed)


def random_unit_columns(dim, m, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((dim, m))
    return w / np.linalg.norm(w, axis=0)


def traced_peak(fn, *args, **kw):
    """``fn(*args, **kw)`` and the peak bytes it held in new allocations."""
    tracemalloc.start()
    try:
        out = fn(*args, **kw)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
