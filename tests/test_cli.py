"""Command-line interface: in-process exit codes, artifacts, and error
reporting for every subcommand."""

import numpy as np
import pytest

import orsnn.data
from orsnn.checkpoint import load_checkpoint, save_checkpoint
from orsnn.cli import main
from orsnn.config import load_config
from orsnn.data import load_events, read_csv, save_idx_images, save_idx_labels, write_csv
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

    def test_resume_guards_the_architecture(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(write_config(tmp_path / "a.cfg", out,
                                                    epochs=1))])
        other = write_config(tmp_path / "b.cfg", out,
                             arch="c8k3s1p1-BN-LIF-AP-FC2", epochs=2)
        assert main(["train", "--config", str(other),
                     "--resume", str(out / "checkpoint.ckpt")]) == 2
        assert "ERROR ArchMismatch:" in capsys.readouterr().err

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

    def test_stochastic_transforms_are_rejected(self, run_dir, capsys):
        assert main(["eval", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", SPEC, "--transforms", "flip(0.5)"]) == 2
        assert "ERROR ConfigError:" in capsys.readouterr().err

    def test_normalize_transform_is_allowed(self, run_dir, capsys):
        assert main(["eval", "--ckpt", str(run_dir / "checkpoint.ckpt"),
                     "--data", SPEC, "--transforms", "normalize(0.5,0.5)"]) == 0
        assert "samples 8 " in capsys.readouterr().out

    def test_idx_directory_split_selection(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        for split, n in (("train", 9), ("t10k", 4)):
            images = (rng.random((n, 12, 12)) < 0.3).astype(np.uint8) * 255
            save_idx_images(tmp_path / f"{split}-images-idx3-ubyte", images)
            save_idx_labels(tmp_path / f"{split}-labels-idx1-ubyte",
                            (np.arange(n) % 2).astype(np.uint8))
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
