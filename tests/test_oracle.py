import numpy as np
import pytest

from support import draw_well_posed, rel_err

from twinpi.model import Hyperparams, build_workspace, fit, solve_alpha, solve_beta
from twinpi.oracle import build_stacked_system, solve_stacked_kkt

from test_model import REF_DATA, REF_HP, REF_V1, REF_V1_STAR, REF_NULL_DIR


def test_stacked_solution_satisfies_its_own_system():
    rng = np.random.default_rng(0)
    data, hp = draw_well_posed(rng, "rbf")
    ws = build_workspace(data, hp)
    for side in ("down", "up"):
        system = build_stacked_system(ws, data.targets, hp, side)
        v, v_star, mult = solve_stacked_kkt(ws, data.targets, hp, side)
        solution = np.concatenate([v, v_star, mult])
        residual = np.max(np.abs(system.matrix @ solution - system.rhs))
        assert residual <= 1e-10 * (1 + np.max(np.abs(system.rhs)))


def test_block_layout_covers_the_system():
    rng = np.random.default_rng(1)
    data, hp = draw_well_posed(rng, "linear")
    ws = build_workspace(data, hp)
    system = build_stacked_system(ws, data.targets, hp, "down")
    size = system.matrix.shape[0]
    assert system.rhs.shape == (size,)
    covered = (
        (system.v_block.stop - system.v_block.start)
        + (system.v_star_block.stop - system.v_star_block.start)
        + (system.multiplier_block.stop - system.multiplier_block.start)
    )
    assert covered == size


def test_down_side_reproduces_reference_weights():
    ws = build_workspace(REF_DATA, REF_HP)
    v1, v1_star, _ = solve_stacked_kkt(ws, REF_DATA.targets, REF_HP, "down")
    assert rel_err(v1, REF_V1) <= 1e-8
    assert rel_err(v1_star, REF_V1_STAR) <= 1e-8


def test_zero_targets_symmetric_parameters_mirror_the_sides():
    rng = np.random.default_rng(2)
    data, hp = draw_well_posed(rng, "rbf")
    hp = Hyperparams(
        c1=hp.c1, c2=hp.c2, c3=hp.c3, c4=hp.c1, c5=hp.c2, c6=hp.c3,
        eps1=0.01, eps2=0.01, kernel=hp.kernel,
    )
    ws = build_workspace(data, hp)
    zero = np.zeros(data.n_samples)
    v_down, vs_down, m_down = solve_stacked_kkt(ws, zero, hp, "down")
    v_up, vs_up, m_up = solve_stacked_kkt(ws, zero, hp, "up")
    np.testing.assert_allclose(v_up, -v_down, atol=1e-10)
    np.testing.assert_allclose(vs_up, vs_down, atol=1e-10)
    np.testing.assert_allclose(m_up, m_down, atol=1e-10)


def test_unknown_side_rejected():
    ws = build_workspace(REF_DATA, REF_HP)
    with pytest.raises(ValueError, match="side"):
        solve_stacked_kkt(ws, REF_DATA.targets, REF_HP, "sideways")


@pytest.mark.parametrize("targets", [[0.0, 1.0], [0.0, 1.0, 2.0, 3.0]])
@pytest.mark.parametrize("solve", [
    lambda ws, y: solve_alpha(ws, y, REF_HP),
    lambda ws, y: solve_beta(ws, y, REF_HP),
    lambda ws, y: build_stacked_system(ws, y, REF_HP, "down"),
], ids=["solve_alpha", "solve_beta", "build_stacked_system"])
def test_a_wrong_target_count_is_rejected_with_its_message(solve, targets):
    with pytest.raises(ValueError) as info:
        solve(build_workspace(REF_DATA, REF_HP), targets)
    assert str(info.value) == f"got {len(targets)} targets for 3 training rows"


def test_down_side_solvable_across_100_random_valid_instances():
    rng = np.random.default_rng(3)
    for i in range(100):
        kind = ("rbf", "linear", None)[i % 3]
        data, hp = draw_well_posed(rng, kind)
        ws = build_workspace(data, hp)
        v, v_star, mult = solve_stacked_kkt(ws, data.targets, hp, "down")
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(v_star))
        assert np.all(np.isfinite(mult))


def test_closed_form_fit_agrees_blockwise_with_stacked_solve():
    rng = np.random.default_rng(4)
    for i in range(30):
        kind = ("rbf", "linear", None)[i % 3]
        data, hp = draw_well_posed(rng, kind)
        model = fit(data, hp)
        ws = build_workspace(data, hp)
        v1, v1_star, alpha = solve_stacked_kkt(ws, data.targets, hp, "down")
        v2, v2_star, beta = solve_stacked_kkt(ws, data.targets, hp, "up")
        assert rel_err(model.v1, v1) <= 1e-8
        assert rel_err(model.v1_star, v1_star) <= 1e-8
        assert rel_err(model.duals.alpha, alpha) <= 1e-8
        assert rel_err(model.v2, v2) <= 1e-8
        assert rel_err(model.v2_star, v2_star) <= 1e-8
        assert rel_err(model.duals.beta, beta) <= 1e-8


def test_degenerate_reference_multiplier_identifiable_part_agrees():
    ws = build_workspace(REF_DATA, REF_HP)
    model = fit(REF_DATA, REF_HP)
    _, _, alpha_oracle = solve_stacked_kkt(ws, REF_DATA.targets, REF_HP, "down")
    diff = model.duals.alpha - alpha_oracle
    perp = diff - (diff @ REF_NULL_DIR) * REF_NULL_DIR
    assert np.max(np.abs(perp)) <= 1e-8
