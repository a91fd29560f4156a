import numpy as np
import pytest

from attnpool.bench import (OpCounter, SWEEP_F, SWEEP_K, SWEEP_N, SWEEP_P,
                            bench_wallclock, flops_full_second_order,
                            flops_rank_p, full_scores_counted,
                            rank_p_scores_counted, sweep_rows, write_csv)


class TestAnalyticFormulas:
    def test_pinned_large_scale_counts(self):
        assert flops_full_second_order(49, 2048, 393) == 3_707_764_736
        assert flops_rank_p(49, 2048, 393, 1) == 2_011_136
        ratio = flops_full_second_order(49, 2048, 393) / flops_rank_p(49, 2048, 393, 1)
        assert ratio == pytest.approx(1843.6, abs=0.1)

    def test_rank_p_linear_in_p(self):
        for P in (1, 2, 5, 17):
            assert flops_rank_p(3, 5, 7, P) == P * flops_rank_p(3, 5, 7, 1)

    def test_hand_counts(self):
        # n=2, f=3, K=1: full = 2*2*9 + 2*1*9 = 54; rank-1 = 4*6 + 2*3 = 30
        assert flops_full_second_order(2, 3, 1) == 54
        assert flops_rank_p(2, 3, 1, 1) == 30


class TestInstrumentedScorers:
    def test_counter_matches_formula_everywhere(self):
        for row in sweep_rows():
            assert row["flops_measured"] == row["flops_analytic"], row

    def test_rank1_scores_correct_and_lean(self):
        rng = np.random.default_rng(0)
        n, f, K = 6, 5, 3
        X = rng.standard_normal((n, f))
        A = rng.standard_normal((f, K))
        b = rng.standard_normal(f)
        c = OpCounter()
        s = rank_p_scores_counted(X, [A], [b], c)
        np.testing.assert_allclose(s, (X @ A).T @ (X @ b), rtol=1e-12)
        # temporaries are exactly h (n), pooled (f), scores (K): no f^2 buffer
        assert c.allocation_sizes == [n, f, K]
        assert c.allocated == n + f + K

    def test_full_scores_allocate_f_squared(self):
        rng = np.random.default_rng(1)
        n, f, K = 4, 6, 2
        X = rng.standard_normal((n, f))
        W = rng.standard_normal((f, f))
        c = OpCounter()
        s = full_scores_counted(X, W, K, c)
        G = X.T @ X
        np.testing.assert_allclose(s, np.full(K, (G * W).sum()), rtol=1e-12)
        assert f * f in c.allocation_sizes

    def test_rank1_cheaper_than_full_across_sweep(self):
        for n in SWEEP_N:
            for f in SWEEP_F:
                for K in SWEEP_K:
                    assert flops_rank_p(n, f, K, 1) < flops_full_second_order(n, f, K)


class TestWallclock:
    def test_returns_sane_timing(self):
        row = bench_wallclock("rank_p", n=7, f=16, K=4, P=1, repetitions=20)
        assert row["ns_median"] > 0
        assert row["ns_iqr"] >= 0
        assert row["kind"] == "rank_p"

    def test_rows_carry_the_formulas_flops(self):
        full = bench_wallclock("full", n=3, f=4, K=2, P=5, repetitions=3)
        rank = bench_wallclock("rank_p", n=3, f=4, K=2, P=5, repetitions=3)
        assert (full["P"], full["flops_analytic"]) == (0, flops_full_second_order(3, 4, 2))
        assert (rank["P"], rank["flops_analytic"]) == (5, flops_rank_p(3, 4, 2, 5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            bench_wallclock("quadratic", n=2, f=2, K=1)


def test_sweep_grid_shape():
    rows = sweep_rows()
    expected = len(SWEEP_N) * len(SWEEP_F) * len(SWEEP_K) * (1 + len(SWEEP_P))
    assert len(rows) == expected


def test_write_csv(tmp_path):
    rows = [{"kind": "full", "n": 1, "f": 8, "K": 1, "P": 0,
             "flops_analytic": 144, "flops_measured": 144}]
    path = tmp_path / "bench.csv"
    write_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "kind,n,f,K,P,flops_analytic,flops_measured,ns_median,ns_iqr"
    assert lines[1].startswith("full,1,8,1,0,144,144")
    assert len(lines) == 2
