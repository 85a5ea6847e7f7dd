"""Property test of purity_curve's fused step against the composition of the
public single-step operations; needs Hypothesis, skipped without it."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from torus_echo.dynamics import MapParams, build_propagator  # noqa: E402
from torus_echo.hilbert import coherent_state, make_space  # noqa: E402
from torus_echo.selftest import random_symmetric_kernel  # noqa: E402

from composition_oracle import assert_matches_composition  # noqa: E402


@settings(max_examples=40, deadline=None)
@given(N=st.integers(3, 24), a=st.sampled_from([2, 4, 6]), b=st.sampled_from([2, 4, 6]),
       k=st.floats(0.0, 0.05), seed=st.integers(0, 2**16),
       center=st.tuples(st.floats(0.0, 0.99), st.floats(0.0, 0.99)))
def test_fused_step_matches_composition(N, a, b, k, seed, center):
    space = make_space(N)
    assert_matches_composition(coherent_state(space, *center),
                               build_propagator(space, MapParams(a, b, k)),
                               random_symmetric_kernel(N, seed), 4)
