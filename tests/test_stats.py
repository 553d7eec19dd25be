import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twinpi.cli import main
from twinpi.data import DataError
from twinpi.stats import (
    ScoreTable,
    compute_report,
    format_report,
    friedman,
    load_score_csv,
    nemenyi_cd,
    rank_rows,
    significance_table,
)

# Published benchmark RMSE of six regression models on 12 synthetic noise
# scenarios (rows) used as a ranking fixture; lower is better.
SYNTHETIC_RMSE_TABLE = np.array([
    [0.1341, 0.1329, 0.1347, 0.1310, 0.1440, 0.1264],
    [0.1431, 0.1397, 0.1419, 0.1428, 0.1430, 0.1298],
    [0.1974, 0.1951, 0.1990, 0.1908, 0.1947, 0.1928],
    [0.1045, 0.1025, 0.1053, 0.1040, 0.1301, 0.0979],
    [0.1047, 0.1023, 0.1052, 0.1022, 0.1034, 0.0963],
    [0.1433, 0.1401, 0.1421, 0.1424, 0.1439, 0.1301],
    [0.1997, 0.1970, 0.2009, 0.1934, 0.1986, 0.1918],
    [0.1042, 0.1008, 0.1043, 0.1027, 0.1301, 0.0973],
    [0.1452, 0.1432, 0.1445, 0.1422, 0.1443, 0.1411],
    [0.1425, 0.1397, 0.1414, 0.1415, 0.1432, 0.1299],
    [0.1957, 0.1914, 0.1948, 0.1875, 0.1921, 0.1878],
    [0.1050, 0.1019, 0.1053, 0.1051, 0.1319, 0.0993],
])
SYNTHETIC_AVG_RANKS = [4.83, 2.58, 4.75, 2.67, 5.0, 1.17]


def test_rank_single_row():
    table = ScoreTable(np.array([[0.1, 0.3, 0.2], [0.5, 0.6, 0.4]]))
    ranks, _ = rank_rows(table)
    np.testing.assert_array_equal(ranks[0], [1.0, 3.0, 2.0])


def test_rank_ties_get_average_positions():
    table = ScoreTable(np.array([[0.1, 0.1, 0.2], [0.3, 0.2, 0.1]]))
    ranks, _ = rank_rows(table)
    np.testing.assert_array_equal(ranks[0], [1.5, 1.5, 3.0])


def test_rank_higher_better_direction():
    table = ScoreTable(np.array([[0.9, 0.1], [0.8, 0.2]]), direction="higher_better")
    ranks, avg = rank_rows(table)
    np.testing.assert_array_equal(avg, [1.0, 2.0])


def test_rank_rows_sum_to_constant():
    rng = np.random.default_rng(0)
    table = ScoreTable(rng.normal(size=(9, 5)))
    ranks, _ = rank_rows(table)
    np.testing.assert_allclose(ranks.sum(axis=1), np.full(9, 15.0), atol=1e-9)


@pytest.mark.parametrize("direction", ["lower_better", "higher_better"])
def test_ranks_equal_scipy_rankdata_bitwise(direction):
    from scipy.stats import rankdata

    rng = np.random.default_rng(7)
    # Few distinct values force ties, including -0.0 against 0.0; the normal
    # draws and the extremes cover untied rows and the ends of the float range.
    pool = np.array([0.0, -0.0, 0.5, -0.5, 1.0, 3.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324])
    for trial in range(400):
        n, l = int(rng.integers(2, 6)), int(rng.integers(2, 13))
        if trial % 2:
            scores = rng.choice(pool, size=(n, l))
        else:
            scores = np.round(rng.normal(size=(n, l)), int(rng.integers(0, 4)))
        ranks, avg = rank_rows(ScoreTable(scores, direction))
        oriented = scores if direction == "lower_better" else -scores
        expected = np.vstack([rankdata(row, method="average") for row in oriented])
        assert ranks.dtype == expected.dtype
        assert ranks.tobytes() == expected.tobytes()
        assert avg.tobytes() == expected.mean(axis=0).tobytes()


def test_import_loads_no_scipy():
    probe = (
        "import sys, twinpi.stats\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "[]"


def test_benchmark_fixture_average_ranks():
    ranks, avg = rank_rows(ScoreTable(SYNTHETIC_RMSE_TABLE))
    np.testing.assert_allclose(avg, SYNTHETIC_AVG_RANKS, atol=0.05)


def test_friedman_synthetic_golden_values():
    fr = friedman(SYNTHETIC_AVG_RANKS, n=12, l=6)
    assert fr.chi2_f == pytest.approx(43.0135, abs=0.01)
    assert fr.f_f == pytest.approx(27.8544, abs=0.01)
    assert fr.chi2_dof == 5
    assert fr.f_dof == (5, 55)


def test_friedman_real_world_golden_values():
    fr = friedman([2.43, 4.1, 2.81, 4.0, 5.52, 2.14], n=21, l=6)
    assert fr.chi2_f == pytest.approx(48.9660, abs=0.01)
    assert fr.f_f == pytest.approx(17.4772, abs=0.01)


def test_friedman_null_case_is_zero():
    l, n = 6, 10
    fr = friedman([(l + 1) / 2.0] * l, n=n, l=l)
    assert fr.chi2_f == pytest.approx(0.0, abs=1e-9)


def test_friedman_degenerate_denominator_flagged():
    # maximally spread ranks over few datasets push chi2 past n (l - 1)
    fr = friedman([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], n=2, l=6)
    assert fr.degenerate
    assert fr.f_f is None


def test_friedman_invariant_to_column_order():
    ranks = [2.43, 4.1, 2.81, 4.0, 5.52, 2.14]
    a = friedman(ranks, n=21, l=6)
    b = friedman(list(reversed(ranks)), n=21, l=6)
    assert a.chi2_f == pytest.approx(b.chi2_f, rel=1e-12)


def test_friedman_validation():
    with pytest.raises(ValueError, match="l >= 2"):
        friedman([1.0], n=5, l=1)
    with pytest.raises(ValueError, match="average ranks"):
        friedman([1.0, 2.0], n=5, l=3)


@pytest.mark.parametrize("l, n", [(1, 5), (3, 1), (0, 0)])
def test_rank_tests_need_two_models_and_two_datasets(l, n):
    with pytest.raises(ValueError) as info:
        friedman(np.arange(1.0, l + 1), n=n, l=l)
    assert str(info.value) == f"need l >= 2 models and n >= 2 datasets, got l={l}, n={n}"
    with pytest.raises(ValueError) as info:
        nemenyi_cd(l, n, 2.0)
    assert str(info.value) == f"need l >= 2 and n >= 2, got l={l}, n={n}"


@pytest.mark.parametrize("cd", [0.0, -1.0, float("nan")])
def test_significance_table_needs_a_positive_critical_difference(cd):
    with pytest.raises(ValueError) as info:
        significance_table([1.0, 2.0], cd)
    assert str(info.value) == f"critical difference must be positive, got {cd}"


def test_nemenyi_golden_values():
    assert nemenyi_cd(6, 12, 2.850) == pytest.approx(2.1767, abs=0.0005)
    assert nemenyi_cd(6, 21, 2.850) == pytest.approx(1.6454, abs=0.0005)


def test_nemenyi_default_q_alpha_follows_the_model_count():
    # Demšar 2006, Table 5a, at the 5% level; sqrt(l (l + 1) / (6 n)) is 1/2
    # for l = 2, n = 4 and 1 for l = 5, n = 5
    assert nemenyi_cd(2, 4) == 1.960 * 0.5
    assert nemenyi_cd(5, 5) == 2.728
    assert nemenyi_cd(6, 12) == nemenyi_cd(6, 12, 2.850)
    assert nemenyi_cd(10, 4) == nemenyi_cd(10, 4, 3.164)
    with pytest.raises(ValueError, match="no default q_alpha for 11 models"):
        nemenyi_cd(11, 4)
    assert nemenyi_cd(11, 4, 3.2) > 0


def test_nemenyi_quadruple_datasets_halves_cd():
    assert nemenyi_cd(6, 48, 2.850) == pytest.approx(nemenyi_cd(6, 12, 2.850) / 2.0, rel=1e-12)


def test_significance_pairs():
    cd = 2.1767
    assert significance_table([1.17, 5.0], cd)[0, 1]
    assert not significance_table([1.17, 5.0], cd)[0, 0]
    assert not significance_table([1.17, 2.58], cd)[0, 1]


def test_significance_matrix_symmetric_false_diagonal():
    sig = significance_table([1.0, 2.5, 6.0, 3.3], cd=1.5)
    np.testing.assert_array_equal(sig, sig.T)
    assert not sig.diagonal().any()


def test_time_series_ranks_golden_values():
    fr = friedman([3.55, 2.2, 3.6, 5.9, 3.9, 1.85], n=10, l=6)
    assert fr.chi2_f == pytest.approx(29.5571, abs=0.01)
    assert fr.f_f == pytest.approx(13.0126, abs=0.01)


def test_compute_report_end_to_end():
    table = ScoreTable(
        SYNTHETIC_RMSE_TABLE,
        model_names=tuple(f"m{i}" for i in range(6)),
        dataset_names=tuple(f"d{i}" for i in range(12)),
    )
    report = compute_report(table, q_alpha=2.850, f_critical=2.3828)
    assert report.reject_null is True
    assert report.cd == pytest.approx(2.1767, abs=0.0005)
    text = format_report(report)
    assert "reject" in text and "cd" in text


def test_format_report_names_unnamed_models_by_column():
    report = compute_report(ScoreTable(SYNTHETIC_RMSE_TABLE[:, :3]))
    assert format_report(report).splitlines() == [
        "average ranks:",
        "  model1: 2.4167",
        "  model2: 1.0000",
        "  model3: 2.5833",
        "chi2_f = 18.1667 (dof 2)",
        "f_f = 34.2571 (dof 2, 22)",
        "nemenyi cd = 0.9565 (q_alpha = 2.343)",
        "pairwise significant (|rank gap| > cd):",
        "  model1 vs model2: yes",
        "  model1 vs model3: no",
        "  model2 vs model3: yes",
    ]


def test_score_csv_round_trip(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("dataset,a,b\nd1,0.1,0.2\nd2,0.4,0.3\n")
    table = load_score_csv(path)
    assert table.model_names == ("a", "b")
    assert table.dataset_names == ("d1", "d2")
    np.testing.assert_array_equal(table.scores, [[0.1, 0.2], [0.4, 0.3]])


def test_score_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("dataset,a,b\nd1,0.1\nd2,0.4,0.3\n")
    with pytest.raises(DataError, match="cells"):
        load_score_csv(path)
    path.write_text("dataset,a,b\nd1,x,0.2\nd2,0.4,0.3\n")
    with pytest.raises(DataError, match="non-numeric"):
        load_score_csv(path)


@pytest.mark.parametrize("text, message", [
    ("ds,a,a\nd1,0.1,0.2\nd2,0.4,0.3\n", "model name 'a' appears more than once"),
    ("ds,a,b\nd1,0.1,0.2\nd1,0.4,0.3\n", "dataset name 'd1' appears more than once"),
])
def test_score_csv_with_a_repeated_name_is_a_data_error(tmp_path, capsys, text, message):
    path = tmp_path / "scores.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
        load_score_csv(path)
    out = tmp_path / "stats"
    assert main(["stats", "--scores", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"data error: {path}: {message}\n"
    assert captured.out == "" and not out.exists()


def test_score_table_validation():
    with pytest.raises(ValueError, match="at least 2"):
        ScoreTable(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="direction"):
        ScoreTable(np.ones((2, 2)), direction="sideways")


@pytest.mark.parametrize("kwargs, message", [
    (dict(scores=np.ones(4)), "scores must be a 2-d matrix (datasets x models)"),
    (dict(scores=np.ones((2, 2, 1))), "scores must be a 2-d matrix (datasets x models)"),
    (dict(scores=np.ones((1, 3))), "need at least 2 datasets and 2 models, got 1 x 3"),
    (dict(scores=np.ones((3, 1))), "need at least 2 datasets and 2 models, got 3 x 1"),
    (dict(scores=[[1.0, np.nan], [0.5, 0.2]]), "scores contain non-finite entries"),
    (dict(scores=[[1.0, np.inf], [0.5, 0.2]]), "scores contain non-finite entries"),
    (dict(scores=np.ones((2, 2)), direction="lower"),
     "direction must be one of ('lower_better', 'higher_better')"),
    (dict(scores=np.ones((2, 3)), model_names=("a", "b")),
     "model_names length does not match column count"),
    (dict(scores=np.ones((2, 3)), dataset_names=("d1", "d2", "d3")),
     "dataset_names length does not match row count"),
])
def test_score_table_rejects_malformed_tables_with_their_messages(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ScoreTable(**kwargs)
