import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinpi.bounds import BoundInputs, generalization_bound, rademacher_bound


def test_unit_diagonal_small_cases():
    assert rademacher_bound(1.0, np.ones(4)) == 0.5
    assert rademacher_bound(1.0, np.ones(100)) == pytest.approx(0.1, rel=1e-15)


def test_unit_diagonal_equals_cap_over_sqrt_m_exactly():
    for m in (1, 4, 100):
        for cap in (1.0, 2.5, 0.3):
            assert rademacher_bound(cap, np.ones(m)) == cap / math.sqrt(m)


def test_hand_evaluated_diagonal():
    # (2 / 2) * sqrt(4 + 9)
    assert rademacher_bound(2.0, np.array([4.0, 9.0])) == pytest.approx(
        math.sqrt(13.0), rel=1e-14
    )


def test_linear_scaling_in_cap():
    diag = np.array([1.0, 2.0, 0.5])
    assert rademacher_bound(3.0, diag) == pytest.approx(3.0 * rademacher_bound(1.0, diag))


def test_generalization_bound_hand_value():
    inp = BoundInputs(
        weight_norm_cap=1.0, lipschitz=1.0, delta=0.05,
        kernel_diag=np.ones(100), empirical_error=0.0,
    )
    expected = 2.0 * 0.1 + math.sqrt(math.log(20.0) / 200.0)
    assert generalization_bound(inp, 100) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.32238, abs=5e-5)


def test_confidence_term_vanishes_as_delta_approaches_one():
    inp = BoundInputs(
        weight_norm_cap=1.0, lipschitz=1.0, delta=0.999999,
        kernel_diag=np.ones(10), empirical_error=0.0,
    )
    value = generalization_bound(inp, 10)
    complexity_part = 2.0 * rademacher_bound(1.0, np.ones(10))
    assert value - complexity_part <= 3e-4


def test_bound_monotone_nonincreasing_in_m():
    values = []
    for m in (10, 100, 1000):
        inp = BoundInputs(
            weight_norm_cap=1.0, lipschitz=1.0, delta=0.05,
            kernel_diag=np.ones(m), empirical_error=0.1,
        )
        values.append(generalization_bound(inp, m))
    assert values[0] >= values[1] >= values[2]


def test_validation():
    with pytest.raises(ValueError, match="delta"):
        BoundInputs(1.0, 1.0, 1.5, np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        BoundInputs(0.0, 1.0, 0.5, np.ones(3))
    with pytest.raises(ValueError, match="non-empty"):
        rademacher_bound(1.0, np.array([]))
    inp = BoundInputs(1.0, 1.0, 0.5, np.ones(3))
    with pytest.raises(ValueError, match="does not match"):
        generalization_bound(inp, 4)


@pytest.mark.parametrize("args, message", [
    ((-2.0, 1.0, 0.5, np.ones(3)), "weight norm cap must be positive, got -2.0"),
    ((float("nan"), 1.0, 0.5, np.ones(3)), "weight norm cap must be positive, got nan"),
    ((1.0, 0.0, 0.5, np.ones(3)), "Lipschitz constant must be positive, got 0.0"),
    ((1.0, 1.0, 0.5, np.array([])), "kernel diagonal must be non-empty"),
    ((1.0, 1.0, 0.5, np.array([1.0, -1e-300])),
     "kernel diagonal entries must be finite and non-negative"),
    ((1.0, 1.0, 0.5, np.array([1.0, np.inf])),
     "kernel diagonal entries must be finite and non-negative"),
    ((1.0, 1.0, 0.5, np.array([np.nan])),
     "kernel diagonal entries must be finite and non-negative"),
    ((1.0, 1.0, 0.5, np.ones(3), -0.5), "empirical error must be non-negative, got -0.5"),
])
def test_bound_inputs_reject_bad_values_with_their_messages(args, message):
    with pytest.raises(ValueError) as info:
        BoundInputs(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("cap", [0.0, -1.0])
def test_rademacher_bound_rejects_a_bad_cap_with_its_message(cap):
    with pytest.raises(ValueError) as info:
        rademacher_bound(cap, np.ones(3))
    assert str(info.value) == f"weight norm cap must be positive, got {cap}"


@given(
    cap=st.floats(0.01, 100),
    lip=st.floats(0.01, 100),
    delta=st.floats(0.001, 0.999),
    emp=st.floats(0, 1000),
    m=st.integers(1, 500),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=100, deadline=None)
def test_bound_dominates_empirical_error(cap, lip, delta, emp, m, seed):
    diag = np.random.default_rng(seed).uniform(0.0, 5.0, m)
    inp = BoundInputs(cap, lip, delta, diag, emp)
    assert generalization_bound(inp, m) >= emp
