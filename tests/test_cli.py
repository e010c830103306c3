"""Command-line interface: in-process exit codes, artifacts, and error
reporting for every subcommand."""

import gzip

import numpy as np
import pytest

import orsnn.cli
import orsnn.data
from orsnn.checkpoint import load_checkpoint, save_checkpoint
from orsnn.cli import main, resolve_splits
from orsnn.config import load_config
from orsnn.data import (FramedEventSet, load_events, read_csv, save_events,
                        save_idx_images, save_idx_labels, synth_events, write_csv)
from orsnn.errors import DataFormatError, DatasetNotFound
from orsnn.network import build_network
from orsnn.residual import JoinMode

from conftest import FullDisk

SPEC = "synth:two-class-motion:40:4:12:12:5"
ARCH = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC2"
TRACE_FIELDS = ["epoch", "layer", "rate"]


def write_config(path, out_dir, *, arch=ARCH, dataset=SPEC, epochs=2, seed=3):
    path.write_text(
        "[experiment]\n"
        f"arch = {arch}\n"
        f"dataset = {dataset}\n"
        "join = OR\n"
        "in_channels = 2\n"
        f"seed = {seed}\n"
        f"out_dir = {out_dir}\n"
        "\n"
        "[train]\n"
        "lr = 0.005\n"
        "time_steps = 4\n"
        "batch_size = 8\n"
        f"epochs = {epochs}\n"
        "patience = 3\n")
    return path


@pytest.fixture(scope="session")
def run_dir(tmp_path_factory):
    """One trained run shared by the read-only command tests."""
    base = tmp_path_factory.mktemp("clirun")
    cfg = write_config(base / "exp.cfg", base / "run")
    assert main(["train", "--config", str(cfg)]) == 0
    return base / "run"


def write_idx_dir(directory, train=9, test=4):
    """An IDX directory of random 12x12 images, `train` and `test` of them."""
    directory.mkdir(exist_ok=True)
    rng = np.random.default_rng(0)
    for split, n in (("train", train), ("t10k", test)):
        images = (rng.random((n, 12, 12)) < 0.3).astype(np.uint8) * 255
        save_idx_images(directory / f"{split}-images-idx3-ubyte", images)
        save_idx_labels(directory / f"{split}-labels-idx1-ubyte",
                        (np.arange(n) % 2).astype(np.uint8))
    return directory


def push_beta(net, suffixes, value=5.0):
    for name, p in net.named_params():
        if name.endswith(suffixes):
            p.data[...] = value


def save_net(path, **kwargs):
    defaults = dict(time_steps=4, in_channels=2, seed=0)
    defaults.update(kwargs)
    net = build_network(ARCH, **defaults)
    save_checkpoint(net, path)
    return net


class TestTrain:
    def test_artifacts_written(self, run_dir):
        for name in ("config.cfg", "train_log.csv", "firing_rates.csv",
                     "checkpoint.ckpt"):
            assert (run_dir / name).exists(), name
        rows = read_csv(run_dir / "train_log.csv")
        assert [int(r["epoch"]) for r in rows] == [0, 1]
        assert set(rows[0]) == {"epoch", "train_loss", "train_acc", "val_loss",
                                "val_acc", "spikes_per_sample", "flagged",
                                "seconds"}
        net, epoch = load_checkpoint(run_dir / "checkpoint.ckpt")
        assert epoch == 2
        assert net.arch_string == ARCH

    def test_stored_config_round_trips(self, run_dir, tmp_path):
        stored = load_config(run_dir / "config.cfg")
        original = load_config(write_config(tmp_path / "exp.cfg", run_dir))
        assert stored == original

    def test_progress_lines(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.cfg", tmp_path / "run", epochs=1)
        assert main(["train", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "epoch 0:" in out
        assert "done: artifacts under" in out

    def test_missing_dataset_is_a_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.cfg", tmp_path / "run",
                           dataset=str(tmp_path / "nowhere"))
        assert main(["train", "--config", str(cfg)]) == 2
        assert "ERROR DatasetNotFound:" in capsys.readouterr().err

    def test_a_max_pool_window_of_padding_alone_is_a_usage_error(self, tmp_path, capsys):
        arch = "c8k3s1p1-BN-LIF-MPk2s2p2-c8k3s1p1-BN-LIF-AP-FC2"
        cfg = write_config(tmp_path / "exp.cfg", tmp_path / "run", arch=arch)
        assert main(["train", "--config", str(cfg)]) == 2
        assert ("ERROR BuildError: max pool padding 2 must be below its window 2"
                in capsys.readouterr().err)

    def test_bad_transform_is_rejected_before_any_write(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "exp.cfg", tmp_path / "run")
        cfg.write_text(cfg.read_text() + "transforms = rotate(3)\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "ERROR ConfigError: unknown transform 'rotate'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("extra,what", [
        ("[lif]\ntau = nan\n", "bad value 'nan' for [lif] tau"),
        ("[lif]\nu_threshold = inf\n", "bad value 'inf' for [lif] u_threshold"),
        ("transforms = translate(nan,0)\n", "non-finite args in 'translate(nan,0)'"),
        ("transforms = normalize(0,inf)\n", "non-finite args in 'normalize(0,inf)'")],
        ids=["tau-nan", "u_threshold-inf", "translate-nan", "normalize-inf"])
    def test_a_non_finite_setting_is_rejected_before_any_write(self, extra, what, tmp_path,
                                                              capsys):
        cfg = write_config(tmp_path / "exp.cfg", tmp_path / "run")
        cfg.write_text(cfg.read_text() + extra)
        assert main(["train", "--config", str(cfg)]) == 2
        assert f"ERROR ConfigError: {what}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resume_extends_the_same_log(self, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", str(write_config(tmp_path / "a.cfg", out,
                                                    epochs=1))])
        ckpt = out / "checkpoint.ckpt"
        assert load_checkpoint(ckpt)[1] == 1
        cfg3 = write_config(tmp_path / "b.cfg", out, epochs=3)
        assert main(["train", "--config", str(cfg3),
                     "--resume", str(ckpt)]) == 0
        rows = read_csv(out / "train_log.csv")
        assert [int(r["epoch"]) for r in rows] == [0, 1, 2]
        assert load_checkpoint(ckpt)[1] == 3

    @pytest.mark.parametrize("arch", [
        "c8k3s1p1-BN-LIF-{c8k3s1p1-BN-LIF}*2-(OR-SEW Block(c16))-AP-FC2",
        "c8k3s2p0-BN-LIF-(OR-SEW Block(c16))-AP-FC2",
    ], ids=["repeat-group", "p0"])
    def test_resume_accepts_any_spelling_of_the_architecture(self, arch, tmp_path):
        """The checkpoint stores the canonical architecture string; a config
        that spells it another way still resumes its own run."""
        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(
            tmp_path / "a.cfg", out, arch=arch, epochs=1))]) == 0
        assert main(["train", "--config", str(write_config(
            tmp_path / "b.cfg", out, arch=arch, epochs=2)),
                     "--resume", str(out / "checkpoint.ckpt")]) == 0
        assert [int(r["epoch"]) for r in read_csv(out / "train_log.csv")] == [0, 1]

    def test_resume_guards_the_architecture(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(write_config(tmp_path / "a.cfg", out,
                                                    epochs=1))])
        other = write_config(tmp_path / "b.cfg", out,
                             arch="c8k3s1p1-BN-LIF-AP-FC2", epochs=2)
        assert main(["train", "--config", str(other),
                     "--resume", str(out / "checkpoint.ckpt")]) == 2
        assert "ERROR ArchMismatch:" in capsys.readouterr().err

    @pytest.mark.parametrize("artifact", ["train_log.csv", "firing_rates.csv",
                                          "checkpoint.ckpt"])
    def test_a_broken_epoch_write_leaves_a_resumable_run(self, artifact, tmp_path,
                                                         monkeypatch):
        """Epoch 1's write of one artifact fails part-way (FullDisk). The
        checkpoint is written last, so it still says epoch 1 and the log
        reaches it; the resume re-runs epoch 1 and ends with one row per
        epoch."""
        out = tmp_path / "run"
        cfg = write_config(tmp_path / "a.cfg", out, epochs=2)
        writes = []

        def breaking_open(path, mode="r", **kwargs):
            if "w" in mode and artifact in str(path):
                writes.append(path)
                if len(writes) == 2:
                    return FullDisk(path, mode, **kwargs)
            return open(path, mode, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(orsnn.data, "open", breaking_open, raising=False)
            with pytest.raises(OSError):
                main(["train", "--config", str(cfg)])
        ckpt = out / "checkpoint.ckpt"
        assert load_checkpoint(ckpt)[1] == 1
        assert [int(r["epoch"]) for r in read_csv(out / "train_log.csv")][:1] == [0]
        assert main(["train", "--config", str(write_config(tmp_path / "b.cfg", out, epochs=3)),
                     "--resume", str(ckpt)]) == 0
        assert [int(r["epoch"]) for r in read_csv(out / "train_log.csv")] == [0, 1, 2]
        assert sorted({int(r["epoch"]) for r in read_csv(out / "firing_rates.csv")}) == [0, 1, 2]
        assert load_checkpoint(ckpt)[1] == 3

    @pytest.mark.parametrize("log_rows", [[1], []], ids=["gap", "no-log"])
    def test_resume_refuses_a_log_behind_the_checkpoint(self, log_rows, tmp_path, capsys):
        """A checkpoint at epoch 2 whose log lacks a row below it is refused
        typed (exit 2), before anything in the run directory is written."""
        out = tmp_path / "run"
        assert main(["train", "--config", str(write_config(tmp_path / "a.cfg", out,
                                                           epochs=2))]) == 0
        log_path = out / "train_log.csv"
        rows = [r for r in read_csv(log_path) if int(r["epoch"]) in log_rows]
        if rows:
            write_csv(log_path, rows)
        else:
            log_path.unlink()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cfg = write_config(tmp_path / "b.cfg", out, epochs=3, seed=4)
        assert main(["train", "--config", str(cfg),
                     "--resume", str(out / "checkpoint.ckpt")]) == 2
        missing = "[0]" if log_rows else "[0, 1]"
        assert (f"ERROR DataFormatError: {log_path}: no row for epoch(s) {missing}"
                in capsys.readouterr().err)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_rerun_is_deterministic(self, tmp_path):
        outs = []
        for tag in ("p", "q"):
            out = tmp_path / tag
            cfg = write_config(tmp_path / f"{tag}.cfg", out)
            assert main(["train", "--config", str(cfg)]) == 0
            outs.append(out)
        a, b = outs
        assert (a / "checkpoint.ckpt").read_bytes() == (b / "checkpoint.ckpt").read_bytes()
        assert (a / "firing_rates.csv").read_bytes() == (b / "firing_rates.csv").read_bytes()
        strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"}
                              for r in rows]
        assert strip(read_csv(a / "train_log.csv")) == strip(read_csv(b / "train_log.csv"))


class TestResolveSplit:
    """`resolve_splits` is the one dispatch from a dataset spec to arrays."""

    def test_sample_counts_per_spec_kind_and_split(self, tmp_path, monkeypatch):
        whole = synth_events("two-class-motion", 40, 4, 12, 12, seed=5)
        (train_x, train_y), (test_x, test_y) = resolve_splits(SPEC, "train", "test")
        assert (len(train_x), len(test_x)) == (32, 8)  # first 4/5, then the rest
        np.testing.assert_array_equal(np.concatenate([train_x, test_x]), whole.frames)
        np.testing.assert_array_equal(np.concatenate([train_y, test_y]), whole.labels)
        for split in ("train", "test"):  # one split alone is the same slice
            (x, y), = resolve_splits(SPEC, split)
            np.testing.assert_array_equal(x, train_x if split == "train" else test_x)
        evt = tmp_path / "d.evt"
        save_events(evt, synth_events("moving-bar", 6, 4, 12, 12, seed=1))
        for split in ("train", "test"):  # one file for either split
            (x, y), = resolve_splits(str(evt), split)
            assert (x.shape, x.dtype, len(y)) == ((6, 4, 2, 12, 12), np.uint8, 6)
        idx = write_idx_dir(tmp_path / "idx")
        monkeypatch.setenv("ORSNN_MNIST_DIR", str(idx))
        for spec in (str(idx), "mnist"):
            train, test = resolve_splits(spec, "train", "test")
            assert len(train[0]) == 9
            assert (test[0].shape, test[0].dtype) == ((4, 1, 12, 12), np.float32)

    def test_unknown_spec_is_not_found(self, tmp_path):
        for split in ("train", "test"):
            with pytest.raises(DatasetNotFound, match="cannot resolve"):
                resolve_splits(str(tmp_path / "nowhere"), split)

    def test_an_empty_split_is_refused(self, tmp_path):
        with pytest.raises(DataFormatError, match="^empty dataset from synth:"):
            resolve_splits("synth:two-class-motion:1:4:12:12", "train", "test")
        assert len(resolve_splits("synth:two-class-motion:1:4:12:12", "train")[0][0]) == 1
        evt = tmp_path / "empty.evt"
        save_events(evt, FramedEventSet(np.zeros((0, 4, 2, 6, 8), np.uint8),
                                        np.zeros(0, np.int64)))
        with pytest.raises(DataFormatError, match="^empty dataset from"):
            resolve_splits(str(evt), "train")
        write_idx_dir(tmp_path, train=0)
        with pytest.raises(DataFormatError, match="^empty dataset from"):
            resolve_splits(str(tmp_path), "train")

    @pytest.mark.parametrize("kind", ["evt", "evt+val", "synth"])
    def test_train_resolves_its_own_spec_in_one_call(self, kind, tmp_path, monkeypatch):
        evt = tmp_path / "d.evt"
        save_events(evt, synth_events("two-class-motion", 8, 4, 12, 12, seed=1))
        spec = SPEC if kind == "synth" else str(evt)
        calls = []

        def spy(spec, *splits):
            calls.append((spec, splits))
            return resolve_splits(spec, *splits)
        monkeypatch.setattr(orsnn.cli, "resolve_splits", spy)
        cfg = write_config(tmp_path / "exp.cfg", tmp_path / "run", dataset=spec,
                           epochs=1)
        extra = ["--val-data", SPEC] if kind == "evt+val" else []
        assert main(["train", "--config", str(cfg), *extra]) == 0
        assert calls == {"evt": [(str(evt), ("train", "test"))],
                         "evt+val": [(str(evt), ("train",)), (SPEC, ("test",))],
                         "synth": [(SPEC, ("train", "test"))]}[kind]

    def test_an_event_file_validates_on_itself_with_or_without_val_data(self, tmp_path):
        """An .evt file serves both splits, so naming it again as --val-data
        changes no log row; --limit draws the same samples for both."""
        evt = tmp_path / "d.evt"
        save_events(evt, synth_events("two-class-motion", 12, 4, 12, 12, seed=1))
        cfg = write_config(tmp_path / "exp.cfg", tmp_path / "run", dataset=str(evt))
        logs = []
        for extra in ([], ["--val-data", str(evt)]):
            out = tmp_path / f"run{len(logs)}"
            assert main(["train", "--config", str(cfg), "--out", str(out),
                         "--limit", "10", *extra]) == 0
            logs.append([{k: v for k, v in r.items() if k != "seconds"}
                         for r in read_csv(out / "train_log.csv")])
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("val", [False, True], ids=["own-split", "val-data"])
    def test_train_generates_a_synth_set_once_per_spec(self, val, tmp_path, monkeypatch):
        generated = []

        def counting(kind, n, *args, seed=0):
            generated.append((n, seed))
            return synth_events(kind, n, *args, seed=seed)
        monkeypatch.setattr(orsnn.cli, "synth_events", counting)
        cfg = write_config(tmp_path / "exp.cfg", tmp_path / "run", dataset=SPEC,
                           epochs=1)
        extra = ["--val-data", "synth:two-class-motion:20:4:12:12:3"] if val else []
        assert main(["train", "--config", str(cfg), *extra]) == 0
        assert generated == ([(40, 5), (20, 3)] if val else [(40, 5)])


def count_argv(command, run_dir, tmp_path):
    ckpt = str(run_dir / "checkpoint.ckpt")
    return {
        "train": ["train", "--config",
                  str(write_config(tmp_path / "exp.cfg", tmp_path / "run"))],
        "eval": ["eval", "--ckpt", ckpt, "--data", SPEC],
        "audit": ["audit", "--ckpt", ckpt, "--data", SPEC],
        "energy": ["energy", "--ckpt", ckpt, "--data", SPEC],
        "prune": ["prune", "--ckpt", ckpt, "--trace", str(run_dir / "firing_rates.csv"),
                  "--out", str(tmp_path / "p.ckpt"), "--data", SPEC],
    }[command]


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command in ("train", "eval", "audit", "energy", "prune")
    for flag in ("--limit", "--batch-size") if (command, flag) != ("train", "--batch-size")])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_counts_below_one_are_usage_errors(command, flag, value, run_dir, tmp_path,
                                           capsys):
    assert main(count_argv(command, run_dir, tmp_path) + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"ERROR ConfigError: {flag} must be >= 1, got {value}\n"
    assert captured.out == ""
    assert not (tmp_path / "run").exists() and not (tmp_path / "p.ckpt").exists()


class TestEval:
    def test_matches_the_training_log(self, run_dir, capsys):
        assert main(["eval", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", SPEC]) == 0
        words = capsys.readouterr().out.split()
        assert words[:2] == ["samples", "8"]
        acc = float(words[words.index("acc") + 1])
        logged = float(read_csv(run_dir / "train_log.csv")[-1]["val_acc"])
        assert acc == pytest.approx(logged, abs=1e-6)

    def test_limit_caps_samples(self, run_dir, capsys):
        assert main(["eval", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", SPEC, "--limit", "5"]) == 0
        assert "samples 5 " in capsys.readouterr().out

    def test_missing_checkpoint(self, tmp_path, capsys):
        assert main(["eval", "--ckpt", str(tmp_path / "no.ckpt"),
                     "--data", SPEC]) == 2
        assert "ERROR DatasetNotFound:" in capsys.readouterr().err

    def test_corrupt_event_file(self, run_dir, tmp_path, capsys):
        bad = tmp_path / "bad.evt"
        bad.write_bytes(b"not an event container at all")
        assert main(["eval", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", str(bad)]) == 2
        assert "ERROR BadMagic:" in capsys.readouterr().err

    def test_negative_extents_are_a_usage_error(self, run_dir, tmp_path, capsys):
        """Two negative extents multiply to a positive frame size; the file
        is still refused with exit 2 and one typed line, not a traceback."""
        bad = tmp_path / "bad.evt"
        bad.write_bytes(b"ORSNN-EVT v1\n-1 -1 2 2 2\n" + bytes(4))
        assert main(["eval", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR DataFormatError: {bad}: negative extent in b'-1 -1 2 2 2'"]

    def test_a_gzip_event_file_reads_like_the_plain_one(self, run_dir, tmp_path, capsys):
        plain = tmp_path / "data.evt"
        save_events(plain, synth_events("two-class-motion", 8, 4, 12, 12, seed=1))
        packed = tmp_path / "data.evt.gz"
        packed.write_bytes(gzip.compress(plain.read_bytes()))
        outs = []
        for data in (plain, packed):
            assert main(["eval", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                         "--data", str(data)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and "samples 8 " in outs[0]

    @pytest.mark.parametrize("container", ["idx", "evt", "evt.gz"])
    @pytest.mark.parametrize("damage,kind", [("truncated", "Truncated"),
                                             ("bad-crc", "DataFormatError"),
                                             ("bad-header", "DataFormatError")])
    def test_a_corrupt_gzip_input_is_a_usage_error(self, container, damage, kind,
                                                   run_dir, tmp_path, capsys):
        """A gzip-compressed IDX file or event container (named .evt or
        .evt.gz) that is cut short, fails its CRC or names an unknown
        compression method exits 2 with a typed error naming the file, not a
        traceback."""
        if container == "idx":
            write_idx_dir(tmp_path / "idx")
            plain = tmp_path / "idx" / "t10k-images-idx3-ubyte"
            ckpt, data, path = tmp_path / "net.ckpt", tmp_path / "idx", plain.with_suffix(".gz")
            save_net(ckpt, in_channels=1, time_steps=2)
        else:
            plain = tmp_path / "plain.evt"
            save_events(plain, synth_events("two-class-motion", 8, 4, 12, 12, seed=1))
            ckpt, data = run_dir / "checkpoint.ckpt", tmp_path / f"data.{container}"
            path = data
        packed = bytearray(gzip.compress(plain.read_bytes()))
        plain.unlink()
        if damage == "truncated":
            packed = packed[:len(packed) // 2]
        elif damage == "bad-crc":
            packed[-8] ^= 0x01
        else:
            packed[2] = 9  # compression method: only 8 (deflate) is defined
        path.write_bytes(bytes(packed))
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(data)]) == 2
        err = capsys.readouterr().err
        assert f"ERROR {kind}:" in err and str(path) in err

    def test_stochastic_transforms_are_rejected(self, run_dir, capsys):
        assert main(["eval", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", SPEC, "--transforms", "flip(0.5)"]) == 2
        assert "ERROR ConfigError:" in capsys.readouterr().err

    def test_normalize_transform_is_allowed(self, run_dir, capsys):
        assert main(["eval", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", SPEC, "--transforms", "normalize(0.5,0.5)"]) == 0
        assert "samples 8 " in capsys.readouterr().out

    def test_idx_directory_split_selection(self, tmp_path, capsys):
        write_idx_dir(tmp_path)
        ckpt = tmp_path / "net.ckpt"
        save_net(ckpt, in_channels=1, time_steps=2)
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path),
                     "--split", "train"]) == 0
        assert "samples 9 " in capsys.readouterr().out
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path)]) == 0
        assert "samples 4 " in capsys.readouterr().out


class TestAudit:
    def test_or_network_passes(self, run_dir, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["audit", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", SPEC, "--out", str(out)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert "PASS" in (out / "audit.txt").read_text()

    def test_add_network_fails(self, tmp_path, capsys):
        net = build_network(ARCH, join=JoinMode.ADD, time_steps=4,
                            in_channels=2, seed=0)
        push_beta(net, (".bn2.beta", ".shortcut_bn.beta"))
        ckpt = tmp_path / "add.ckpt"
        save_checkpoint(net, ckpt)
        out = tmp_path / "rep"
        assert main(["audit", "--ckpt", str(ckpt), "--data", SPEC,
                     "--out", str(out)]) == 1
        text = capsys.readouterr().out
        assert "FAIL" in text
        assert "block1.conv3" in text
        assert "block1.conv3" in (out / "audit.txt").read_text()

    def test_an_add_network_fails_by_construction(self, tmp_path, capsys):
        """On all-zero events nothing past the encoder fires, yet the ADD
        join's type is real: exit 1, and the verdict names the join."""
        ckpt, data = tmp_path / "add.ckpt", tmp_path / "zeros.evt"
        save_net(ckpt, join=JoinMode.ADD)
        save_events(data, FramedEventSet(np.zeros((4, 4, 2, 12, 12), np.uint8),
                                         np.zeros(4, np.int64)))
        assert main(["audit", "--ckpt", str(ckpt), "--data", str(data)]) == 1
        assert capsys.readouterr().out.endswith(
            "FAIL: non-binary inputs at block1.conv3 (block1 ADD join)\n")

    def test_failed_report_write_keeps_previous_report(self, run_dir, tmp_path,
                                                        monkeypatch):
        out = tmp_path / "rep"
        argv = ["audit", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                "--data", SPEC, "--out", str(out)]
        assert main(argv) == 0
        before = (out / "audit.txt").read_bytes()
        monkeypatch.setattr(orsnn.data, "open", FullDisk, raising=False)
        with pytest.raises(OSError):
            main(argv)
        assert (out / "audit.txt").read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["audit.txt"]


class TestEnergy:
    def test_writes_energy_csv(self, run_dir, tmp_path, capsys):
        out = tmp_path / "rep"
        assert main(["energy", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", SPEC, "--out", str(out)]) == 0
        assert "uJ" in capsys.readouterr().out
        rows = read_csv(out / "energy.csv")
        assert rows, "energy.csv is empty"
        by_layer = {r["layer"]: r for r in rows}
        assert by_layer["encoder"]["klass"] == "MAC"
        assert float(by_layer["encoder"]["energy_pj"]) > 0
        assert {"layer", "klass", "ops_per_sample", "energy_pj"} <= set(rows[0])
        assert any(r["klass"] == "AC" for r in rows)


class TestPrune:
    def write_trace(self, path, rates):
        rows = [{"epoch": e + 1, "layer": "block1.shortcut_lif", "rate": r}
                for e, r in enumerate(rates)]
        write_csv(path, rows, fieldnames=TRACE_FIELDS)
        return path

    def test_nothing_to_prune(self, run_dir, tmp_path, capsys):
        trace = self.write_trace(tmp_path / "t.csv", [0.5] * 5)
        out = tmp_path / "pruned.ckpt"
        assert main(["prune", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--trace", str(trace), "--out", str(out),
                     "--patience", "3"]) == 0
        assert "nothing to prune" in capsys.readouterr().out
        assert not out.exists()

    def test_flagged_without_data_is_a_usage_error(self, run_dir, tmp_path,
                                                   capsys):
        trace = self.write_trace(tmp_path / "t.csv", [0.2, 0.0, 0.0, 0.0])
        assert main(["prune", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--trace", str(trace), "--out", str(tmp_path / "p.ckpt"),
                     "--patience", "3"]) == 2
        assert "ERROR ConfigError:" in capsys.readouterr().err

    def test_full_prune_flow(self, tmp_path, capsys):
        net = build_network(ARCH, time_steps=4, in_channels=2, seed=0)
        params = dict(net.named_params())
        params["block1.shortcut_bn.gamma"].data[...] = 0.0
        params["block1.shortcut_bn.beta"].data[...] = -5.0
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(net, ckpt, epoch=6)
        trace = self.write_trace(tmp_path / "t.csv", [0.1, 0.0, 0.0, 0.0])
        out = tmp_path / "pruned.ckpt"
        assert main(["prune", "--ckpt", str(ckpt), "--trace", str(trace),
                     "--out", str(out), "--patience", "3",
                     "--data", SPEC]) == 0
        text = capsys.readouterr().out
        assert "pruned 1 shortcut(s)" in text
        pruned, epoch = load_checkpoint(out)
        assert epoch == 6
        assert pruned.pruned_block_names() == ["block1"]
        assert pruned.count_parameters() < net.count_parameters()

    def test_active_shortcut_refuses_to_prune(self, tmp_path, capsys):
        net = build_network(ARCH, time_steps=4, in_channels=2, seed=0)
        push_beta(net, (".shortcut_bn.beta",))
        ckpt = tmp_path / "net.ckpt"
        save_checkpoint(net, ckpt)
        trace = self.write_trace(tmp_path / "t.csv", [0.1, 0.0, 0.0, 0.0])
        assert main(["prune", "--ckpt", str(ckpt), "--trace", str(trace),
                     "--out", str(tmp_path / "p.ckpt"), "--patience", "3",
                     "--data", SPEC]) == 1
        assert "ERROR PruneRefused:" in capsys.readouterr().err


    def test_a_repeated_trace_row_is_refused(self, run_dir, tmp_path, capsys):
        """Two rows for one (epoch, layer) pair would read back as the last
        one, so a shortcut that fired could be flagged as silent."""
        trace = tmp_path / "t.csv"
        write_csv(trace, [{"epoch": 0, "layer": "block1.shortcut_lif", "rate": r}
                          for r in (0.5, 0.0)], fieldnames=TRACE_FIELDS)
        assert main(["prune", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--trace", str(trace), "--out", str(tmp_path / "p.ckpt"),
                     "--patience", "1", "--data", SPEC]) == 2
        assert (f"ERROR DataFormatError: {trace}: row 2 repeats epoch 0, layer "
                "'block1.shortcut_lif'" in capsys.readouterr().err)
        assert not (tmp_path / "p.ckpt").exists()


class TestReport:
    def test_summary_aggregates_the_run(self, run_dir, capsys):
        assert main(["audit", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", SPEC, "--out", str(run_dir)]) == 0
        assert main(["energy", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", SPEC, "--out", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(["report", "--run-dir", str(run_dir)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 2
        summary = read_csv(run_dir / "summary.csv")[0]
        rows = read_csv(run_dir / "train_log.csv")
        assert int(summary["epochs"]) == len(rows)
        assert float(summary["best_val_acc"]) == pytest.approx(
            max(float(r["val_acc"]) for r in rows))
        assert summary["spike_driven"] == "yes"
        assert float(summary["energy_pj_per_sample"]) > 0
        assert float(summary["ac_ops_per_sample"]) > 0

    def test_missing_run_dir(self, tmp_path, capsys):
        assert main(["report", "--run-dir", str(tmp_path)]) == 2
        assert "ERROR DatasetNotFound:" in capsys.readouterr().err

    def test_undecodable_files_fail_typed_or_read_as_bytes(self, tmp_path, capsys):
        (tmp_path / "train_log.csv").write_bytes(b"epoch,val_acc\n0,\xff\xfe\n")
        assert main(["report", "--run-dir", str(tmp_path)]) == 2
        assert "ERROR DataFormatError:" in capsys.readouterr().err
        write_csv(tmp_path / "train_log.csv", [LOG_ROW])
        (tmp_path / "audit.txt").write_bytes(b"PASS: \xff\xfe")
        assert main(["report", "--run-dir", str(tmp_path)]) == 0
        assert read_csv(tmp_path / "summary.csv")[0]["spike_driven"] == "yes"


LOG_ROW = {"epoch": 0, "train_loss": 0.7, "train_acc": 0.5, "val_loss": 0.7,
           "val_acc": 0.5, "spikes_per_sample": 10.0, "flagged": "-", "seconds": 0.1}
TRACE_ROW = {"epoch": 1, "layer": "block1.shortcut_lif", "rate": 0.5}
ENERGY_ROW = {"layer": "encoder", "kind": "conv", "klass": "MAC",
              "ops_per_sample": 10.0, "energy_pj": 46.0}


def edited(row, **changes):
    """row with `changes` applied; a change to None drops that column."""
    row = {**row, **changes}
    return {k: v for k, v in row.items() if v is not None}


PRUNE = lambda d, ckpt: ["prune", "--ckpt", ckpt, "--trace", f"{d}/trace.csv",
                         "--out", f"{d}/p.ckpt"]
REPORT = lambda d, ckpt: ["report", "--run-dir", d]
RESUME = lambda d, ckpt: ["train", "--config", f"{d}/exp.cfg", "--resume", ckpt]


@pytest.mark.parametrize("files,bad,command", [
    ({"trace.csv": edited(TRACE_ROW, rate="fast")}, ("trace.csv", "rate"), PRUNE),
    ({"trace.csv": edited(TRACE_ROW, rate=None)}, ("trace.csv", "rate"), PRUNE),
    ({"trace.csv": edited(TRACE_ROW, epoch="1.5")}, ("trace.csv", "epoch"), PRUNE),
    ({"train_log.csv": edited(LOG_ROW, val_acc="n/a")},
     ("train_log.csv", "val_acc"), REPORT),
    ({"train_log.csv": LOG_ROW, "energy.csv": edited(ENERGY_ROW, ops_per_sample=None)},
     ("energy.csv", "ops_per_sample"), REPORT),
    ({"train_log.csv": edited(LOG_ROW, epoch="zero")}, ("train_log.csv", "epoch"), RESUME),
], ids=["prune-rate-not-a-number", "prune-no-rate", "prune-epoch-not-an-integer",
        "report-val-acc-not-a-number", "report-energy-no-ops", "resume-epoch-not-an-integer"])
def test_a_malformed_run_artifact_fails_typed(files, bad, command, tmp_path, capsys):
    """A run artifact read back with a bad value exits 2 with one typed
    error line naming the file, the row and the column."""
    ckpt = tmp_path / "net.ckpt"
    save_net(ckpt)
    write_config(tmp_path / "exp.cfg", tmp_path)
    for name, row in files.items():
        write_csv(tmp_path / name, [row])
    assert main(command(str(tmp_path), str(ckpt))) == 2
    name, column = bad
    assert (f"ERROR DataFormatError: {tmp_path / name}: row 1, column {column!r}: "
            in capsys.readouterr().err)


class TestSynth:
    def test_writes_a_loadable_event_file(self, tmp_path, capsys):
        out = tmp_path / "bars.evt"
        assert main(["synth", "--kind", "moving-bar", "--n", "8", "--t", "5",
                     "--height", "10", "--width", "12", "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        ds = load_events(out)
        assert len(ds) == 8
        assert ds.time_steps == 5
        assert sorted(set(ds.labels.tolist())) == [0, 1, 2, 3]

    def test_unknown_kind_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--kind", "sparkles", "--n", "4", "--t", "4",
                  "--height", "8", "--width", "8",
                  "--out", str(tmp_path / "x.evt")])
        assert exc.value.code == 2

    def test_bad_synth_spec_in_eval(self, run_dir, capsys):
        assert main(["eval", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", "synth:two-class-motion:abc:4:12:12"]) == 2
        assert "ERROR ConfigError:" in capsys.readouterr().err
