import dataclasses

import pytest

from attnpool.config import (DEFAULTS, KNOWN_KEYS, ConfigError, build,
                             parse_config_text, resolve, serialize)
from attnpool.synth import PlantedTaskConfig
from attnpool.train import TrainConfig

# a valid value other than the default, for every key
NON_DEFAULT = {
    "task.n1": "5", "task.n2": "6", "task.f": "40", "task.classes": "3",
    "task.train_samples": "11", "task.val_samples": "12",
    "task.signal_strength": "2.5", "task.clutter_classes": "0", "task.seed": "99",
    "task.multi_label": "true", "task.pose": "yes",
    "train.head": "rank_p", "train.rank": "4", "train.lr": "0.5",
    "train.momentum": "0.0", "train.weight_decay": "0.0", "train.batch_size": "9",
    "train.epochs": "0", "train.seed": "12", "train.lambda_pose": "2.0",
    "train.hdim": "7", "train.sketch_dim": "8",
    "train.use_bias": "on",
}


class TestParse:
    def test_sections_and_comments(self):
        text = """
        # a comment
        [task]
        f = 16          # inline comment
        classes = 4

        [train]
        lr = 0.05
        head = attention
        """
        out = parse_config_text(text)
        assert out == {"task.f": 16, "task.classes": 4,
                       "train.lr": 0.05, "train.head": "attention"}

    def test_bool_coercion(self):
        for raw, want in (("true", True), ("1", True), ("yes", True),
                          ("on", True), ("false", False), ("0", False),
                          ("no", False), ("off", False)):
            assert parse_config_text(f"[task]\nmulti_label = {raw}") == {
                "task.multi_label": want}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("[task]\nbogus = 1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("[task]\nf = banana")
        with pytest.raises(ConfigError):
            parse_config_text("[task]\nmulti_label = maybe")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("[task]\njust some words")


class TestResolve:
    @pytest.mark.parametrize("text,match", [
        (b"[task]\nf = 16\njust some words\n", "line 3: expected 'key = value'"),
        (b"[task]\nf = 16\nseed = \xf3\n", "line 3 is not UTF-8 text"),
    ], ids=["bad_line", "not_utf8"])
    def test_config_file_errors_name_the_file(self, tmp_path, text, match):
        path = tmp_path / "run.cfg"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=match) as info:
            resolve(str(path), env={})
        assert str(info.value).startswith(f"{path}: ")
    def test_defaults_only(self):
        assert resolve(env={}) == DEFAULTS

    def test_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[train]\nepochs = 7\n")
        cfg = resolve(str(path), env={})
        assert cfg["train.epochs"] == 7
        assert cfg["train.lr"] == DEFAULTS["train.lr"]

    def test_env_seed_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[task]\nseed = 3\n")
        cfg = resolve(str(path), env={"ATTNPOOL_SEED": "99"})
        assert cfg["task.seed"] == 99
        assert cfg["train.seed"] == 99

    def test_cli_override_wins_over_env(self):
        cfg = resolve(overrides=("task.seed=5",), env={"ATTNPOOL_SEED": "99"})
        assert cfg["task.seed"] == 5
        assert cfg["train.seed"] == 99  # only the overridden key changes

    def test_bad_env_seed(self):
        with pytest.raises(ConfigError):
            resolve(env={"ATTNPOOL_SEED": "not-a-number"})

    def test_bad_override(self):
        with pytest.raises(ConfigError):
            resolve(overrides=("no_equals_sign",), env={})
        with pytest.raises(ConfigError):
            resolve(overrides=("task.bogus=1",), env={})

    def test_resolution_is_pure(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("[train]\nlr = 0.07\n")
        a = resolve(str(path), overrides=("task.f=64",), env={})
        b = resolve(str(path), overrides=("task.f=64",), env={})
        assert serialize(a) == serialize(b)


class TestSerialize:
    def test_sorted_key_value_lines(self):
        text = serialize({"b.x": 2, "a.y": True})
        assert text == "a.y = True\nb.x = 2\n"

    def test_round_trip_through_parser(self):
        cfg = resolve(overrides=("train.epochs=3", "task.multi_label=true"), env={})
        # serialized form has fully-qualified keys; reparse without sections
        reparsed = parse_config_text(serialize(cfg))
        assert reparsed == cfg


class TestSchema:
    def test_keys_are_the_dataclass_fields(self):
        task = {f"task.{fld.name}" for fld in dataclasses.fields(PlantedTaskConfig)}
        train = {f"train.{fld.name}" for fld in dataclasses.fields(TrainConfig)}
        assert set(KNOWN_KEYS) == (task - {"task.K"}) | {"task.classes"} | train
        assert set(NON_DEFAULT) == set(KNOWN_KEYS)

    def test_defaults_build_default_configs(self):
        assert build(PlantedTaskConfig, DEFAULTS) == PlantedTaskConfig()
        assert build(TrainConfig, DEFAULTS) == TrainConfig()
        assert build(TrainConfig, {}) == TrainConfig()  # absent keys keep defaults

    @pytest.mark.parametrize("key", sorted(NON_DEFAULT))
    def test_every_key_reaches_its_field(self, key):
        cfg = resolve(overrides=(f"{key}={NON_DEFAULT[key]}",), env={})
        changed = {}
        for cls in (PlantedTaskConfig, TrainConfig):
            built, default = build(cls, cfg), cls()
            changed.update({f"{cls.__name__}.{fld.name}": getattr(built, fld.name)
                            for fld in dataclasses.fields(cls)
                            if getattr(built, fld.name) != getattr(default, fld.name)})
        section, name = key.split(".")
        field = {"task.classes": "K"}.get(key, name)
        owner = {"task": "PlantedTaskConfig", "train": "TrainConfig"}[section]
        assert changed == {f"{owner}.{field}": cfg[key]}
        assert cfg[key] != DEFAULTS[key] and type(cfg[key]) is type(DEFAULTS[key])


@pytest.mark.parametrize("key", ["train.hdim", "train.sketch_dim"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_sizes_below_one_rejected(key, value):
    cfg = resolve(overrides=(f"{key}={value}",), env={})
    with pytest.raises(ValueError, match="hdim/sketch_dim"):
        build(TrainConfig, cfg)
