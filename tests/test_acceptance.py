"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Comparative-run accuracies were pinned from the first oracle run of this
implementation (task seed 7, run seed 0) and are enforced with a
3-point tolerance; the hard contracts (gap, localization, orderings)
are asserted directly.
"""

import time

import pytest

from attnpool import selftest
from attnpool.cli import main as cli_main
from attnpool.synth import (Dataset, PlantedTaskConfig, gen_planted,
                            metric_accuracy)
from attnpool.train import TrainConfig, eval_scores, train

# pinned oracle-run numbers (first run of this implementation)
PIN_AVG_VAL = 0.216
PIN_ATT_VAL = 0.428
PIN_ATT_LOC = 0.900
PIN_TOL = 0.03

PIN_P1_LOSS = 1.5553
PIN_P5_LOSS = 1.2054


def criterion(capsys, num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def default_data():
    return gen_planted(PlantedTaskConfig())


def _subset(ds, count):
    return Dataset(config=ds.config, X=ds.X[:count], labels=ds.labels[:count],
                   planted=ds.planted[:count])


def test_criterion_01_rank1_equivalence(capsys):
    t0 = time.perf_counter()
    ok, detail = selftest.check_rank1_equivalence(count=1000)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    criterion(capsys, 1, ok, f"{detail}; {elapsed:.2f}s (< 5s)")


def test_criterion_02_symmetry_and_combined_map(capsys):
    ok, detail = selftest.check_symmetry_and_combined(count=1000)
    criterion(capsys, 2, ok, detail)


def test_criterion_03_rank_p_oracle(capsys):
    ok, detail = selftest.check_rank_p_oracle(ranks=(1, 2, 5))
    criterion(capsys, 3, ok, detail)


def test_criterion_04_gradient_correctness(capsys):
    ok, detail = selftest.check_gradients(seeds=20)
    criterion(capsys, 4, ok, detail)


def test_criterion_05_tensorsketch_unbiasedness(capsys):
    t0 = time.perf_counter()
    ok, detail = selftest.check_sketch_unbiased(f=16, d=64, trials=10000)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    criterion(capsys, 5, ok, f"{detail}; {elapsed:.1f}s (< 30s)")


def test_criterion_06_comparative_run(capsys, default_data):
    tr, va = default_data
    t0 = time.perf_counter()
    avg = train(TrainConfig(head="avg_pool"), tr, va)
    att = train(TrainConfig(head="attention"), tr, va)
    elapsed = time.perf_counter() - t0
    gap = att.final_val_metric - avg.final_val_metric
    checks = [
        ("gap >= 0.10", gap >= 0.10),
        ("localization >= 0.8", att.final_localization >= 0.8),
        ("avg pinned", abs(avg.final_val_metric - PIN_AVG_VAL) <= PIN_TOL),
        ("att pinned", abs(att.final_val_metric - PIN_ATT_VAL) <= PIN_TOL),
        ("loc pinned", abs(att.final_localization - PIN_ATT_LOC) <= PIN_TOL),
        ("runtime < 300s", elapsed < 300.0),
    ]
    ok = all(c for _, c in checks)
    failed = [name for name, c in checks if not c]
    criterion(capsys, 6, ok,
              f"avg_pool val {avg.final_val_metric:.4f}, attention val "
              f"{att.final_val_metric:.4f} (gap {gap:.4f}), localization "
              f"{att.final_localization:.4f}, {elapsed:.0f}s"
              + (f"; failed: {failed}" if failed else ""))


def test_criterion_07_rank_p_training_loss_ordering(capsys, default_data):
    tr, va = default_data
    p1 = train(TrainConfig(head="rank_p", rank=1), tr, va)
    p5 = train(TrainConfig(head="rank_p", rank=5), tr, va)
    ok = (p5.final_train_loss <= p1.final_train_loss
          and abs(p1.final_train_loss - PIN_P1_LOSS) <= 0.05
          and abs(p5.final_train_loss - PIN_P5_LOSS) <= 0.05)
    criterion(capsys, 7, ok,
              f"final train loss P=1: {p1.final_train_loss:.4f}, "
              f"P=5: {p5.final_train_loss:.4f}")


def test_criterion_08_per_class_overfitting(capsys, default_data):
    # Faithful implementation of the criterion.  At this desk scale the
    # per-class head memorizes the 200-example split but does NOT fall
    # below the shared-b attention head on validation (it matches or
    # beats it in every regime we measured), so the second assertion is
    # expected to fail; see the repository's test output.
    tr, va = default_data
    small = _subset(tr, 200)
    cfg_pc = TrainConfig(head="per_class", epochs=300)
    cfg_att = TrainConfig(head="attention", epochs=300)
    pc = train(cfg_pc, small, va)
    att = train(cfg_att, small, va)
    pc_train_acc = metric_accuracy(
        eval_scores(pc.params, cfg_pc, small.X), small.labels)
    ok = pc_train_acc >= 0.99 and pc.final_val_metric < att.final_val_metric
    criterion(capsys, 8, ok,
              f"per_class train acc {pc_train_acc:.4f} (>= 0.99), per_class "
              f"val {pc.final_val_metric:.4f} vs attention val "
              f"{att.final_val_metric:.4f} (expected per_class < attention)")


def test_criterion_09_flop_accounting(capsys):
    ok, detail = selftest.check_flops()
    criterion(capsys, 9, ok, detail)


def test_criterion_10_determinism(capsys):
    ok, detail = selftest.check_determinism()
    criterion(capsys, 10, ok, detail)


def test_criterion_11_selftest_command(capsys):
    t0 = time.perf_counter()
    with capsys.disabled():
        rc = cli_main(["selftest"])
    elapsed = time.perf_counter() - t0
    ok = rc == 0 and elapsed < 120.0
    criterion(capsys, 11, ok, f"exit code {rc}, {elapsed:.1f}s (< 120s)")
