"""Property tests of the A/B heralding algebra on random states.

Random unit-trace positive-semidefinite states with n <= 8, random
bipartition masks and delta in [0, pi/2]: both measurement branches are
valid states, the Lambda-coefficient form reproduces the failure state,
and the channel decomposition reassembles its input.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mergosim.criteria import Bipartition
from mergosim.evolution import DensityMatrix
from mergosim.tree import channel_decompose
from mergosim.weakmeas import measurement_branches, reconstruct_rho0

EXAMPLES = 60


@st.composite
def states_and_masks(draw):
    n = draw(st.integers(1, 8))
    parts = draw(hnp.arrays(np.float64, (2, n, n),
                            elements=st.floats(-1.0, 1.0)))
    a = parts[0] + 1j * parts[1]
    rho = a @ a.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-6)
    mask = draw(hnp.arrays(np.bool_, n))
    return DensityMatrix(rho / trace), Bipartition(mask)


def assert_valid_state(state: DensityMatrix) -> None:
    mat = state.matrix
    assert abs(np.trace(mat) - 1.0) < 1e-12
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    assert np.min(np.linalg.eigvalsh(mat)) >= -1e-12


@settings(max_examples=EXAMPLES)
@given(states_and_masks(), st.floats(0.0, math.pi / 2))
def test_branches_are_valid_states(state_mask, delta):
    state, bip = state_mask
    branches = measurement_branches(state, bip, delta)
    assert abs(branches.p0 + branches.p1 - 1.0) < 1e-15
    if branches.p1 > 1e-9:
        assert_valid_state(branches.rho1)
    if branches.p0 > 1e-9:
        assert_valid_state(branches.rho0)


@settings(max_examples=EXAMPLES)
@given(states_and_masks(), st.floats(0.0, math.pi / 2))
def test_lambda_form_matches_failure_state(state_mask, delta):
    state, bip = state_mask
    branches = measurement_branches(state, bip, delta)
    assume(branches.p0 > 1e-3)
    rebuilt = reconstruct_rho0(state, bip, delta)
    assert np.max(np.abs(rebuilt - branches.rho0.matrix)) < 1e-12


@settings(max_examples=EXAMPLES)
@given(states_and_masks())
def test_channel_decomposition_reassembles(state_mask):
    state, bip = state_mask
    parts = channel_decompose(state, bip)
    rebuilt = parts.coherence.astype(complex)
    for weight, block in ((parts.p0, parts.rho_suc),
                          (1.0 - parts.p0, parts.rho_nsuc)):
        if block is not None:
            rebuilt = rebuilt + weight * block.matrix
    assert np.max(np.abs(rebuilt - state.matrix)) < 1e-14
