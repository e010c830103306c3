"""Experiment configuration: lossless INI round-trips, the exact rendered
text, per-dataset training defaults, and strict rejection of unknown
sections, keys, and bad values."""

import pytest

from orsnn.config import (
    ExperimentConfig,
    load_config,
    parse_config,
    render_config,
    save_config,
)
from orsnn.errors import ConfigError, DatasetNotFound
from orsnn.neuron import LIFConfig
from orsnn.residual import JoinMode
from orsnn.training import TABLE_DEFAULTS, TrainConfig

SMALL = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4"


CUSTOM_TEXT = """\
[experiment]
dataset = synth:moving-bar
arch = c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4
join = ADD
attention = none
in_channels = 2
out_dir = runs/exp7
seed = 3

[lif]
tau = 2.5
u_threshold = 0.75
u_reset = 0.1
surrogate_alpha = 4.0
reset_mode = hard
detach_reset = false

[train]
lr = 0.3333333333333333
time_steps = 8
batch_size = 32
epochs = 12
seed = 11
transforms = flip(0.5),normalize(0.5,0.5)
patience = 3
"""


def minimal(dataset, extra=""):
    return parse_config(f"[experiment]\ndataset = {dataset}\narch = {SMALL}\n{extra}")


def custom_config():
    return ExperimentConfig(
        dataset="synth:moving-bar",
        arch=SMALL,
        join="ADD",
        attention="none",
        in_channels=2,
        out_dir="runs/exp7",
        seed=3,
        lif=LIFConfig(tau=2.5, u_threshold=0.75, u_reset=0.1,
                      surrogate_alpha=4.0, detach_reset=False),
        train=TrainConfig(lr=1 / 3, time_steps=8, batch_size=32, epochs=12,
                          seed=11, transforms=("flip(0.5)", "normalize(0.5,0.5)"),
                          patience=3),
    )


class TestRoundTrip:
    def test_default_config_round_trips_exactly(self):
        cfg = ExperimentConfig(dataset="mnist", arch=SMALL)
        assert parse_config(render_config(cfg)) == cfg

    def test_custom_config_round_trips_exactly(self):
        cfg = custom_config()
        back = parse_config(render_config(cfg))
        assert back == cfg
        assert back.train.lr == 1 / 3  # repr-based float fidelity
        assert back.lif.detach_reset is False
        assert back.train.transforms == ("flip(0.5)", "normalize(0.5,0.5)")

    def test_rendered_text_is_pinned(self):
        assert render_config(custom_config()) == CUSTOM_TEXT

    def test_the_one_optimizer_and_loss_still_load(self):
        """optimizer and loss are no options any more, but a file that names
        their one value loads as before, and any other value is refused."""
        fixed = CUSTOM_TEXT.replace("seed = 11\n",
                                    "optimizer = adam\nloss = cross-entropy\nseed = 11\n")
        assert parse_config(fixed) == custom_config()
        for key, value in (("optimizer", "sgd"), ("loss", "mse"), ("optimizer", "")):
            with pytest.raises(ConfigError, match=f"unknown {key} '{value}'"):
                parse_config(CUSTOM_TEXT + f"{key} = {value}\n")

    def test_render_is_stable(self):
        cfg = custom_config()
        once = render_config(cfg)
        assert render_config(parse_config(once)) == once

    def test_rendered_text_shape(self):
        text = render_config(ExperimentConfig(dataset="mnist", arch=SMALL))
        assert text.startswith("[experiment]\n")
        assert "\n[lif]\n" in text
        assert "\n[train]\n" in text
        assert "detach_reset = true" in text

    def test_file_round_trip(self, tmp_path):
        cfg = custom_config()
        save_config(tmp_path / "exp.cfg", cfg)
        assert load_config(tmp_path / "exp.cfg") == cfg

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetNotFound):
            load_config(tmp_path / "absent.cfg")


class TestDefaults:
    def test_known_dataset_pulls_training_defaults(self):
        cfg = minimal("mnist")
        assert cfg.train.lr == 1e-2
        assert cfg.train.time_steps == 16
        assert cfg.train.batch_size == 128
        assert cfg.train.epochs == 100

    def test_dvs_gesture_without_train_section_gets_its_table_row(self):
        train = minimal("dvs-gesture").train
        assert (train.lr, train.time_steps, train.batch_size, train.epochs) == (
            1e-4, 32, 32, 1000)
        assert train == TrainConfig(**TABLE_DEFAULTS["dvs-gesture"])

    def test_fashion_mnist_gets_its_transforms(self):
        assert minimal("fashion-mnist").train.transforms == (
            "flip(0.5)", "normalize(0.5,0.5)")

    def test_explicit_keys_override_the_table(self):
        train = minimal("dvs-gesture", "[train]\nlr = 0.5\ntransforms =\n").train
        assert train.lr == 0.5
        assert train.transforms == ()
        assert train.time_steps == 32
        assert minimal("cifar10-dvs", "[train]\nlr = 0.5\n").train.epochs == 500

    def test_unknown_dataset_gets_generic_training_settings(self):
        assert minimal("synth:moving-bar:8:4:8:8").train == TrainConfig()
        assert minimal("runs/set.evt").train == TrainConfig()

    def test_table_filled_config_round_trips(self):
        for dataset in TABLE_DEFAULTS:
            cfg = minimal(dataset, "[train]\nseed = 4\n")
            assert parse_config(render_config(cfg)) == cfg
            assert cfg.train.seed == 4

    def test_overrides_apply_to_experiment_fields(self):
        cfg = minimal("mnist", "join = ADD\nseed = 5\nout_dir = runs/x\n")
        assert cfg.join == "ADD"
        assert cfg.seed == 5
        assert cfg.train == TrainConfig(**TABLE_DEFAULTS["mnist"])
        assert cfg.out_dir == "runs/x"

    def test_minimal_ini_fills_defaults(self):
        cfg = parse_config("[experiment]\ndataset = mnist\narch = " + SMALL + "\n")
        assert cfg.join == "OR"
        assert cfg.attention == "none"
        assert cfg.in_channels == 1
        assert cfg.lif == LIFConfig()
        assert cfg.train == TrainConfig()


class TestValidation:
    def test_empty_arch_rejected(self):
        with pytest.raises(ConfigError, match="arch"):
            ExperimentConfig(dataset="mnist", arch="  ").validate()

    def test_bad_in_channels_rejected(self):
        with pytest.raises(ConfigError, match="in_channels"):
            ExperimentConfig(dataset="mnist", arch=SMALL, in_channels=0).validate()

    def test_bad_join_rejected(self):
        with pytest.raises(ConfigError, match="bad join"):
            ExperimentConfig(dataset="mnist", arch=SMALL, join="XOR").validate()

    def test_bad_attention_rejected(self):
        with pytest.raises(ConfigError, match="bad attention"):
            ExperimentConfig(dataset="mnist", arch=SMALL, attention="Q/a").validate()

    def test_join_and_attention_accessors(self):
        cfg = ExperimentConfig(dataset="mnist", arch=SMALL, join="or",
                               attention="T/b")
        assert cfg.join_mode() is JoinMode.OR
        plan = cfg.attention_plan()
        assert plan.flavor == "T"
        assert plan.placement == "b"
        none_cfg = ExperimentConfig(dataset="mnist", arch=SMALL)
        assert none_cfg.attention_plan() is None


class TestParseErrors:
    BASE = "[experiment]\ndataset = mnist\narch = " + SMALL + "\n"

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[misc\]"):
            parse_config(self.BASE + "[misc]\nx = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match=r"unknown key 'color'"):
            parse_config(self.BASE + "color = red\n")
        with pytest.raises(ConfigError, match=r"unknown key 'momentum' in section \[train\]"):
            parse_config(self.BASE + "[train]\nmomentum = 0.9\n")

    def test_section_name_is_not_a_key(self):
        for key in ("train", "lif"):
            with pytest.raises(ConfigError, match=rf"unknown key '{key}' in section \[experiment\]"):
                parse_config(self.BASE + f"{key} = x\n")

    def test_missing_experiment_section(self):
        with pytest.raises(ConfigError, match=r"missing section \[experiment\]"):
            parse_config("[train]\nlr = 0.1\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing key 'arch'"):
            parse_config("[experiment]\ndataset = mnist\n")
        with pytest.raises(ConfigError, match="missing key 'dataset'"):
            parse_config("[experiment]\narch = " + SMALL + "\n")

    def test_bad_int_value(self):
        with pytest.raises(ConfigError, match=r"bad value 'abc' for \[experiment\] in_channels"):
            parse_config(self.BASE + "in_channels = abc\n")

    def test_bad_bool_value(self):
        with pytest.raises(ConfigError, match="expected a boolean"):
            parse_config(self.BASE + "[lif]\ndetach_reset = maybe\n")

    def test_bad_lif_value_is_wrapped(self):
        with pytest.raises(ConfigError, match=r"bad \[lif\] section"):
            parse_config(self.BASE + "[lif]\ntau = 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("section,key", [
        ("lif", "tau"), ("lif", "u_threshold"), ("lif", "u_reset"),
        ("lif", "surrogate_alpha"), ("train", "lr")])
    def test_a_non_finite_number_is_refused(self, section, key, value):
        with pytest.raises(ConfigError, match=rf"bad value '{value}' for \[{section}\] {key}"):
            parse_config(self.BASE + f"[{section}]\n{key} = {value}\n")

    @pytest.mark.parametrize("spec", ["translate(nan,0)", "translate(0,inf)",
                                      "normalize(0,inf)", "normalize(nan)", "flip(nan)"])
    def test_a_non_finite_transform_argument_is_refused(self, spec):
        with pytest.raises(ConfigError, match="non-finite args"):
            parse_config(self.BASE + f"[train]\ntransforms = {spec}\n")

    def test_malformed_ini(self):
        with pytest.raises(ConfigError, match="malformed config"):
            parse_config("not an ini file at all")

    def test_train_validation_applies(self):
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(self.BASE + "[train]\nbatch_size = 0\n")


def test_build_assembles_the_configured_network():
    cfg = ExperimentConfig(dataset="synth:moving-bar", arch=SMALL, join="OR",
                           in_channels=2,
                           train=TrainConfig(time_steps=4, batch_size=4, epochs=1))
    net = cfg.build()
    assert net.arch_string == SMALL
    assert net.time_steps == 4
    assert net.in_channels == 2
    assert net.join_mode is JoinMode.OR
