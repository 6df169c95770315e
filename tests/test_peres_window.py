"""PerES fleet kernel: the released-cost ring against the scalar window.

The scalar ``PerESStrategy._adapt_v`` averages ``_released_costs[-50:]``
with a strict left fold (not ``sum``, which compensates from Python 3.12
on).  The fleet kernel keeps a (D, 50) ring
per device instead (``_ring_push`` / ``_ring_means``).  Whether a mean
lands a few ulps off rarely flips a ``mean > omega`` decision, so the
fleet-vs-scalar suites cannot see such drift; this test pins the means
bit for bit, across ring wraps and releases longer than the window.
"""

import operator
from functools import reduce

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines.peres import _V_WINDOW, _ring_means, _ring_push


def _left_fold(xs):
    return reduce(operator.add, xs, 0.0)


cost = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
    st.integers(min_value=1, max_value=300).map(lambda k: k / 7.0),
)
release = st.tuples(
    st.integers(min_value=0, max_value=3),  # device
    st.lists(cost, min_size=1, max_size=130),  # costs, queue order
)


@settings(max_examples=80, deadline=None)
@given(batches=st.lists(st.lists(release, min_size=1, max_size=4), max_size=12))
def test_ring_means_match_the_scalar_window(batches):
    D, W = 4, _V_WINDOW
    ring = np.zeros((D, W))
    history = [[] for _ in range(D)]
    for batch in batches:
        by_dev = {}
        for dev, costs in batch:  # one release per device per slot
            by_dev.setdefault(dev, costs)
        devs = np.asarray(sorted(by_dev), dtype=np.int64)
        for d in devs:
            costs = by_dev[d]
            first = len(history[d])
            history[d].extend(costs)
            keep = costs[-W:]
            ordinals = np.arange(len(history[d]) - len(keep), len(history[d]))
            assert ordinals[0] >= first
            _ring_push(ring, np.full(len(keep), d), ordinals, np.asarray(keep))
        totals = np.asarray([len(history[d]) for d in devs], dtype=np.int64)
        means = _ring_means(ring, devs, totals)
        for d, mean in zip(devs, means):
            recent = history[d][-W:]
            assert mean == _left_fold(recent) / len(recent)


def test_wrapped_ring_folds_from_the_oldest_cost():
    """Past a wrap the fold must start at the oldest cost, not cell 0:
    summation order decides the rounding of a 1e16 + 1.0 tail."""
    W = _V_WINDOW
    ring = np.zeros((1, W))
    dev = np.zeros(1, dtype=np.int64)
    history = [2.0] * 10 + [1.0] * (W - 1) + [1e16]
    for lo, hi in ((0, 10), (10, 10 + W)):  # two releases; the second wraps
        ordinals = np.arange(lo, hi)
        _ring_push(ring, np.zeros_like(ordinals), ordinals, np.asarray(history[lo:hi]))
    (mean,) = _ring_means(ring, dev, np.asarray([len(history)]))
    recent = history[-W:]
    assert mean == _left_fold(recent) / len(recent)
    rotated = recent[-10:] + recent[:-10]  # the fold read from cell 0
    assert mean != _left_fold(rotated) / W
