from dataclasses import replace

import numpy as np
import pytest

from attnpool import rng
from attnpool.autograd import ShapeError
from attnpool.cli import _write_split, load_split
from attnpool.synth import (CHUNK_VALUES, KEYPOINT_OFFSETS, Dataset, PlantedTaskConfig,
                            class_prototypes, gen_planted, gen_pose_targets,
                            metric_accuracy, metric_map,
                            nearest_prototype_accuracy, read_labels,
                            write_labels)
from attnpool.train import true_classes

SMALL = PlantedTaskConfig(n1=3, n2=3, f=16, K=4, train_samples=64,
                          val_samples=32, seed=11)


class TestPrototypes:
    def test_centered_across_classes(self):
        protos, _, _ = class_prototypes(SMALL)
        np.testing.assert_allclose(protos.mean(axis=0), np.zeros(SMALL.f), atol=1e-12)

    def test_marker_unit_norm_and_orthogonal_to_prototypes(self):
        protos, _, marker = class_prototypes(SMALL)
        assert np.linalg.norm(marker) == pytest.approx(1.0, rel=1e-12)
        np.testing.assert_allclose(protos @ marker, np.zeros(SMALL.K), atol=1e-10)

    def test_distractors_unit_norm(self):
        _, distractors, _ = class_prototypes(SMALL)
        assert distractors.shape == (SMALL.clutter_classes, SMALL.f)
        np.testing.assert_allclose(np.linalg.norm(distractors, axis=1),
                                   np.ones(SMALL.clutter_classes), rtol=1e-12)

    def test_deterministic_in_seed(self):
        a = class_prototypes(SMALL)
        b = class_prototypes(SMALL)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def reference_example(sub_seed, config, protos, distractors, marker):
    """One example from its own stream, one numpy pipeline per example:
    (X, label, planted cell, its (class, cell) slots)."""
    n, f, K, C = config.n, config.f, config.K, config.clutter_classes
    # fixed per-example draw budget: 8 header u64s, 2 per clutter cell,
    # then an even number for the background normals
    n_norm = 2 * ((n * f + 1) // 2)
    u = rng.u64_stream(int(sub_seed), 8 + 2 * C + n_norm)
    head, rest = u[:8 + 2 * C], u[8 + 2 * C:]
    X = rng.normals_from_u64(rest)[: n * f].reshape(n, f)

    if config.multi_label:
        num = 1 + int(head[0] % 3)
        labels = np.zeros(K)
        slots = []
        for j in range(3):
            cls = int(head[1 + 2 * j] % K)
            loc = int(head[2 + 2 * j] % n)
            if j < num:
                while loc in [cell for _, cell in slots]:  # dedupe by linear probing
                    loc = (loc + 1) % n
                slots.append((cls, loc))
                labels[cls] = 1.0
                X[loc] += config.signal_strength * (protos[cls] + marker)
        label, primary = labels, slots[0][1]
        planted = min(slots, key=lambda slot: slot[0])[1]  # the first slot of the lowest class
    else:
        cls = int(head[0] % K)
        primary = planted = int(head[1] % n)
        slots = [(cls, primary)]
        X[primary] += config.signal_strength * (protos[cls] + marker)
        label = cls

    for j in range(C):
        if n > 1:
            cell = (primary + 1 + int(head[8 + 2 * j] % (n - 1))) % n
        else:
            cell = primary  # degenerate single-cell grid
        pattern = int(head[9 + 2 * j] % C)
        X[cell] += config.signal_strength * distractors[pattern]
    return X, label, planted, tuple(slots)


def reference_planted(config):
    """(train, val) generated one example at a time, as gen_planted's reference;
    each split comes with its examples' planted cells, one tuple per example."""
    protos, distractors, marker = class_prototypes(config)
    total = config.train_samples + config.val_samples
    sub = rng.u64_stream(config.seed, 3 + total)[3:]
    splits = []
    for seeds in (sub[:config.train_samples], sub[config.train_samples:]):
        m = len(seeds)
        Xs = np.empty((m, config.n, config.f))
        planted = np.empty(m, dtype=np.int64)
        cells = []
        if config.multi_label:
            labels = np.zeros((m, config.K))
        else:
            labels = np.empty(m, dtype=np.int64)
        for i, s in enumerate(seeds):
            X, label, planted[i], slots = reference_example(s, config, protos, distractors,
                                                            marker)
            Xs[i] = X
            labels[i] = label
            cells.append(tuple(cell for _, cell in slots))
        splits.append((Dataset(config=config, X=Xs, labels=labels, planted=planted), cells))
    return splits


# examples per chunk at the default 7x7 grid with f=32
DEFAULT_STEP = CHUNK_VALUES // (49 * 32)


class TestMatchesPerExampleReference:
    @pytest.mark.parametrize("multi_label", [False, True])
    @pytest.mark.parametrize("m", [DEFAULT_STEP - 1, DEFAULT_STEP, DEFAULT_STEP + 1,
                                   3 * DEFAULT_STEP + 5])
    def test_chunk_boundaries(self, m, multi_label):
        assert 1 < DEFAULT_STEP < 100
        self.check(PlantedTaskConfig(train_samples=m, val_samples=DEFAULT_STEP + 1,
                                     multi_label=multi_label, seed=0))

    @pytest.mark.parametrize("kwargs", [
        dict(n1=1, n2=1, f=8, K=2),                                   # one cell
        dict(n1=1, n2=1, f=8, K=2, clutter_classes=0, seed=2**64 - 1),
        dict(n1=3, n2=5, f=7, K=4, clutter_classes=0, seed=2**64 - 1),  # odd n*f
        dict(n1=3, n2=5, f=7, K=4, clutter_classes=9, seed=0),
        dict(n1=3, n2=5, f=7, K=5, clutter_classes=9, multi_label=True, seed=2**64 - 1),
        dict(n1=1, n2=3, f=6, K=5, clutter_classes=0, multi_label=True, seed=0),
        dict(n1=7, n2=7, f=32, K=8, clutter_classes=11, multi_label=True, seed=3),
        dict(n1=7, n2=7, f=32, K=8, clutter_classes=0, seed=2**64 - 1),
    ])
    def test_grids_clutter_and_seeds(self, kwargs):
        self.check(PlantedTaskConfig(train_samples=150, val_samples=50, **kwargs))

    @pytest.mark.parametrize("multi_label", [False, True])
    def test_one_example_per_chunk_above_budget(self, multi_label):
        cfg = PlantedTaskConfig(n1=7, n2=7, f=1338, K=8, train_samples=3, val_samples=2,
                                multi_label=multi_label, seed=2**64 - 1)
        assert CHUNK_VALUES // (cfg.n * cfg.f) == 0
        self.check(cfg)

    @staticmethod
    def check(config):
        for got, (want, _) in zip(gen_planted(config), reference_planted(config)):
            assert got.X.tobytes() == want.X.tobytes()
            assert got.labels.dtype == want.labels.dtype
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.planted.dtype == want.planted.dtype
            assert got.planted.tobytes() == want.planted.tobytes()


def test_multi_label_planted_slot_carries_the_true_class():
    # the default multi-label val split: slot 0 holds another class than
    # the lowest in about a third of the examples
    config = PlantedTaskConfig(multi_label=True)
    val = gen_planted(config)[1]
    tables, classes = class_prototypes(config), true_classes(val)
    sub = rng.u64_stream(config.seed, 3 + config.train_samples + config.val_samples)
    others = 0
    for i, s in enumerate(sub[3 + config.train_samples:]):
        slots = reference_example(s, config, *tables)[3]
        assert dict((cell, cls) for cls, cell in slots)[val.planted[i]] == classes[i]
        others += slots[0][0] != classes[i]
    assert others == 172


class TestGeneration:
    def test_byte_identical_across_runs(self):
        tr1, va1 = gen_planted(SMALL)
        tr2, va2 = gen_planted(SMALL)
        for d1, d2 in zip((tr1, va1), (tr2, va2)):
            assert d1.X.tobytes() == d2.X.tobytes()
            np.testing.assert_array_equal(d1.labels, d2.labels)
            np.testing.assert_array_equal(d1.planted, d2.planted)

    def test_shapes_and_label_range(self):
        tr, va = gen_planted(SMALL)
        assert tr.X.shape == (64, 9, 16) and va.X.shape == (32, 9, 16)
        assert tr.labels.min() >= 0 and tr.labels.max() < SMALL.K
        assert tr.planted.min() >= 0 and tr.planted.max() < SMALL.n

    def test_different_seed_different_data(self):
        tr1, _ = gen_planted(SMALL)
        tr2, _ = gen_planted(PlantedTaskConfig(n1=3, n2=3, f=16, K=4,
                                               train_samples=64, val_samples=32,
                                               seed=12))
        assert tr1.X.tobytes() != tr2.X.tobytes()

    def test_zero_signal_is_chance(self):
        cfg = PlantedTaskConfig(n1=3, n2=3, f=16, K=4, train_samples=400,
                                val_samples=100, signal_strength=0.0, seed=5)
        tr, _ = gen_planted(cfg)
        # with no planted signal the oracle can only guess
        acc = nearest_prototype_accuracy(tr)
        assert abs(acc - 1.0 / cfg.K) < 0.1

    def test_single_cell_grid_degenerate(self):
        cfg = PlantedTaskConfig(n1=1, n2=1, f=8, K=2, train_samples=16,
                                val_samples=8, seed=2)
        tr, _ = gen_planted(cfg)
        assert np.all(tr.planted == 0)

    def test_multi_label_mode(self):
        cfg = PlantedTaskConfig(n1=4, n2=4, f=16, K=6, train_samples=64,
                                val_samples=16, seed=4, multi_label=True)
        tr, _ = gen_planted(cfg)
        (_, cells), _ = reference_planted(cfg)  # each example's planted cells
        assert tr.labels.shape == (64, 6) and len(cells) == len(tr)
        counts = tr.labels.sum(axis=1)
        assert counts.min() >= 1 and counts.max() <= 3
        for i, locs in enumerate(cells):
            assert len(set(locs)) == len(locs)  # planted cells are distinct
            assert tr.planted[i] in locs  # the cell of the lowest class, not always slot 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlantedTaskConfig(K=40, f=32)
        with pytest.raises(ValueError):
            PlantedTaskConfig(n1=0)
        with pytest.raises(ValueError):
            PlantedTaskConfig(clutter_classes=-1)

    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 2), (2, 1)])
    def test_multi_label_needs_three_cells(self, n1, n2):
        # up to 3 distinct planted cells: fewer cells would probe forever
        with pytest.raises(ValueError, match="multi_label"):
            PlantedTaskConfig(n1=n1, n2=n2, f=8, K=4, multi_label=True)
        PlantedTaskConfig(n1=n1, n2=n2, f=8, K=4)  # single-label is fine
        PlantedTaskConfig(n1=1, n2=3, f=8, K=4, multi_label=True)


class TestDataset:
    @pytest.mark.parametrize("edit", ["negative", "n"])
    def test_planted_cell_outside_the_grid_is_rejected(self, edit):
        """A 3x3 pose task: cells -9..-1, or one cell 9, would index another
        cell, or past the grid, in pose_reg's targets and in localization."""
        tr, _ = gen_planted(PlantedTaskConfig(n1=3, n2=3, f=8, K=4, train_samples=32,
                                              val_samples=8, pose=True, seed=5))
        planted = (tr.planted - 9 if edit == "negative"
                   else np.where(np.arange(len(tr)) == 3, 9, tr.planted))
        with pytest.raises(ValueError, match="out of range"):
            replace(tr, planted=planted)

    def test_feature_maps_fit_the_grid_and_width(self):
        """A 3x3 task's maps with 4 locations would localize against 9-cell
        planted indices; f - 1 features, or one map alone, do not fit either.
        An empty split of (n, f) maps is valid."""
        tr, _ = gen_planted(SMALL)
        for X in (tr.X[:, :4], tr.X[:, :, 1:], tr.X[0]):
            with pytest.raises(ValueError, match=r"not \(m, 9, 16\)"):
                replace(tr, X=X)
        assert len(replace(tr, X=tr.X[:0], labels=tr.labels[:0], planted=tr.planted[:0])) == 0

    def test_one_label_and_cell_per_feature_map(self):
        tr, _ = gen_planted(SMALL)
        for field in ("labels", "planted"):
            with pytest.raises(ValueError, match="feature maps"):
                replace(tr, **{field: getattr(tr, field)[1:]})


class TestOracleProperty:
    @pytest.mark.parametrize("K,s", [(2, 3.0), (3, 3.0), (4, 3.5), (8, 4.0)])
    def test_planted_cell_oracle_accuracy(self, K, s):
        cfg = PlantedTaskConfig(K=K, signal_strength=s, seed=7)
        tr, va = gen_planted(cfg)
        assert nearest_prototype_accuracy(tr) >= 0.95
        assert nearest_prototype_accuracy(va) >= 0.95

    def test_oracle_requires_prototypes(self, tmp_path):
        """The oracle derives the prototypes from the split's config, so a
        split read back from disk, which stores none, scores as generated;
        it rejects multi-label data."""
        tr, _ = gen_planted(SMALL)
        _write_split(str(tmp_path), tr)
        assert nearest_prototype_accuracy(load_split(str(tmp_path))) == \
            nearest_prototype_accuracy(tr) > 0.5
        with pytest.raises(ValueError):
            nearest_prototype_accuracy(gen_planted(replace(SMALL, multi_label=True))[0])


class TestMetrics:
    def test_accuracy_hand_example(self):
        scores = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert metric_accuracy(scores, np.array([0, 0])) == 0.5

    def test_accuracy_tie_breaks_low(self):
        scores = np.array([[0.5, 0.5]])
        assert metric_accuracy(scores, np.array([0])) == 1.0
        assert metric_accuracy(scores, np.array([1])) == 0.0

    def test_accuracy_shape_errors(self):
        with pytest.raises(ShapeError):
            metric_accuracy(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ShapeError):
            metric_accuracy(np.zeros((3, 2)), np.zeros(2))

    def test_map_hand_example(self):
        # one class: positives ranked 1st and 3rd -> AP = (1 + 2/3)/2
        scores = np.array([[0.9], [0.8], [0.7]])
        labels = np.array([[1.0], [0.0], [1.0]])
        val, skipped = metric_map(scores, labels)
        assert val == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)
        assert skipped == []

    def test_map_perfect_ranking(self):
        scores = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
        labels = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        val, skipped = metric_map(scores, labels)
        assert val == 1.0 and skipped == []

    def test_map_skips_empty_classes(self):
        scores = np.array([[0.5, 0.1], [0.4, 0.2]])
        labels = np.array([[1.0, 0.0], [0.0, 0.0]])
        val, skipped = metric_map(scores, labels)
        assert skipped == [1]
        assert val == 1.0

    def test_map_all_empty_raises(self):
        with pytest.raises(ValueError):
            metric_map(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_map_tie_break_by_index(self):
        # equal scores: stable sort ranks example 0 first
        scores = np.array([[1.0], [1.0]])
        labels = np.array([[0.0], [1.0]])
        val, _ = metric_map(scores, labels)
        assert val == pytest.approx(0.5)


class TestPoseTargets:
    def test_masks_and_peaks(self):
        cfg = PlantedTaskConfig(n1=4, n2=4, f=8, K=4)
        heatmaps, masks = gen_pose_targets(cfg)
        assert heatmaps.shape == (cfg.n, cfg.n, 16) and masks.shape == (cfg.n, 16)
        for p in range(cfg.n):
            pr, pc = divmod(p, cfg.n2)
            for c, (dr, dc) in enumerate(KEYPOINT_OFFSETS):
                on_grid = 0 <= pr + dr < cfg.n1 and 0 <= pc + dc < cfg.n2
                assert masks[p, c] == (1.0 if on_grid else 0.0)
                if on_grid:
                    peak = (pr + dr) * cfg.n2 + (pc + dc)
                    assert heatmaps[p, peak, c] == pytest.approx(1.0)
                    assert np.argmax(heatmaps[p, :, c]) == peak
                else:
                    assert not heatmaps[p, :, c].any()

    @pytest.mark.parametrize("n1,n2", [(7, 7), (3, 5), (1, 1)])
    def test_matches_per_example_loop(self, n1, n2):
        """Each example's row of the table, heatmaps[planted] and
        masks[planted], equals a loop over its keypoint channels."""
        cfg = PlantedTaskConfig(n1=n1, n2=n2, f=8, K=4, train_samples=40,
                                val_samples=4, seed=5)
        tr, _ = gen_planted(cfg)
        rows, cols = np.divmod(np.arange(cfg.n), cfg.n2)
        want_maps = np.zeros((len(tr), cfg.n, len(KEYPOINT_OFFSETS)))
        want_masks = np.zeros((len(tr), len(KEYPOINT_OFFSETS)))
        for i in range(len(tr)):
            pr, pc = divmod(int(tr.planted[i]), cfg.n2)
            for c, (dr, dc) in enumerate(KEYPOINT_OFFSETS):
                kr, kc = pr + dr, pc + dc
                if 0 <= kr < cfg.n1 and 0 <= kc < cfg.n2:
                    want_masks[i, c] = 1.0
                    d2 = (rows - kr) ** 2 + (cols - kc) ** 2
                    want_maps[i, :, c] = np.exp(-d2 / 2.0)
        heatmaps, masks = gen_pose_targets(cfg)
        np.testing.assert_array_equal(masks[tr.planted], want_masks)
        np.testing.assert_array_equal(heatmaps[tr.planted], want_maps)


class TestLabelFiles:
    def test_round_trip_single_label(self, tmp_path):
        tr, _ = gen_planted(SMALL)
        path = tmp_path / "labels.tsv"
        write_labels(path, tr)
        labels, planted = read_labels(path, SMALL.K, multi_label=False)
        np.testing.assert_array_equal(labels, tr.labels)
        np.testing.assert_array_equal(planted, tr.planted)

    def test_round_trip_multi_label(self, tmp_path):
        cfg = PlantedTaskConfig(n1=4, n2=4, f=16, K=6, train_samples=32,
                                val_samples=8, seed=4, multi_label=True)
        tr, _ = gen_planted(cfg)
        path = tmp_path / "labels.tsv"
        write_labels(path, tr)
        labels, planted = read_labels(path, cfg.K, multi_label=True)
        np.testing.assert_array_equal(labels, tr.labels)
        np.testing.assert_array_equal(planted, tr.planted)

    @pytest.mark.parametrize("lines,why", [
        (["0\t1\t0", "0\t2\t3"], "example index"),     # duplicate: row 1 never set
        (["0\t1\t0", "-1\t2\t3"], "example index"),    # negative index
        (["0\t1\t0", "2\t2\t3"], "example index"),     # index >= m
        (["0\t1\t0", "1\t9\t3"], "label '9'"),         # class id >= K
        (["0\t1\t0", "1\t-1\t3"], "label '-1'"),       # negative class id
    ])
    def test_rejects_corrupt_single_label(self, tmp_path, lines, why):
        path = tmp_path / "labels.tsv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=why) as err:
            read_labels(path, 8, multi_label=False)
        assert str(path) in str(err.value)

    def test_rejects_class_out_of_range_multi_label(self, tmp_path):
        path = tmp_path / "labels.tsv"
        path.write_text("0\t1,5\t0\n1\t-2\t3\n")
        with pytest.raises(ValueError, match="label '-2'"):
            read_labels(path, 6, multi_label=True)
