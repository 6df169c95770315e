"""The Θ-cost step's three implementations are bit-identical twins.

The etrain fleet kernel's dominant phase folds per-app closed-form delay
costs into a per-device P(t) array.  Three interchangeable
implementations exist:

* :func:`repro.sim.fleet.engine._theta_costs_numpy` — the reference
  (grouped NumPy expressions, sequential per-app fold);
* :func:`repro.sim.fleet.engine._theta_costs_loops` — a scalar-loop
  twin written op-for-op like the NumPy expressions;
* the chunk-bound closure :func:`~repro.sim.fleet.engine._theta_step_for`
  builds — the per-app row fold the kernel actually runs.

Because the vectorized-vs-scalar equivalence suite certifies the NumPy
path, *bit-identity* here transitively certifies the loop twin and the
closure.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.fleet import engine


def random_case(rng):
    A = int(rng.integers(1, 5))
    D = int(rng.integers(1, 33))
    kinds = rng.integers(0, 3, size=A).astype(np.int64)
    dls = rng.uniform(5.0, 120.0, size=A)
    u = float(rng.uniform(0.0, 7200.0))
    n_pre = rng.integers(0, 40, size=(A, D)).astype(np.float64)
    n_post = rng.integers(0, 40, size=(A, D)).astype(np.float64)
    s_pre = rng.uniform(0.0, 7200.0, size=(A, D)) * n_pre
    s_post = rng.uniform(0.0, 7200.0, size=(A, D)) * n_post
    return u, kinds, dls, n_pre, s_pre, n_post, s_post


def run_impl(impl, case):
    u, kinds, dls, n_pre, s_pre, n_post, s_post = case
    out = np.full(n_pre.shape[1], np.nan)
    impl(u, kinds, dls, n_pre, s_pre, n_post, s_post, out)
    return out


def run_closure(case):
    u, kinds, dls, n_pre, s_pre, n_post, s_post = case
    out = np.full(n_pre.shape[1], np.nan)
    step = engine._theta_step_for(kinds, dls)
    step(u, n_pre, s_pre, n_post, s_post, out)
    return out


class TestBitIdentity:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_loops_twin_matches_numpy_bitwise(self, seed):
        case = random_case(np.random.default_rng(seed))
        ref = run_impl(engine._theta_costs_numpy, case)
        loops = run_impl(engine._theta_costs_loops, case)
        np.testing.assert_array_equal(
            ref.view(np.uint64), loops.view(np.uint64)
        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_chunk_closure_matches_numpy_bitwise(self, seed):
        case = random_case(np.random.default_rng(seed))
        ref = run_impl(engine._theta_costs_numpy, case)
        closed = run_closure(case)
        np.testing.assert_array_equal(
            ref.view(np.uint64), closed.view(np.uint64)
        )
