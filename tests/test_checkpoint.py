"""Checkpoint container: bit-exact round trips, header guards, and
corruption detection."""

import hashlib

import numpy as np
import pytest

from orsnn import checkpoint
from orsnn.cli import main
from orsnn.attention import AttentionPlan
from orsnn.checkpoint import (
    CKPT_FORMAT,
    CKPT_VERSION,
    load_checkpoint,
    save_checkpoint,
)
from orsnn.config import ExperimentConfig, TrainConfig
from orsnn.errors import (
    ArchError,
    ArchMismatch,
    BadMagic,
    CheckpointError,
    CorruptPayload,
    DatasetNotFound,
    VersionMismatch,
)
from orsnn.metrics import apply_pruning
from orsnn.network import build_network
from orsnn.neuron import LIFConfig

SMALL = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4"
CONV_ARCH = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-(OR-SEW Block(c32))-AP-FC4"
PAYLOAD_SHA256 = "1f8c06134529f10cfbaa25b748fcd7291458694aeadbc496d82825f7ed7f5f6c"

# The header of SMALL with T/a attention, T=4, 2 input channels, seed 3,
# saved at epoch 7.
HEADER_TEXT = """\
ORSNN-CKPT v1
arch=c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4
join=OR
attention=T/a
attention_reductions=4,16,7
in_channels=2
time_steps=4
seed=3
epoch=7
pruned=
lif_tau=2.0
lif_u_threshold=1.0
lif_u_reset=0.0
lif_surrogate_alpha=2.0
lif_reset_mode=hard
lif_detach_reset=true

"""


def trained_like_net(seed=0, time_steps=2, **kwargs):
    """A net with perturbed weights and exercised norm statistics, so a
    round trip has to carry real state, not just the seeded init."""
    net = build_network(SMALL, time_steps=time_steps, in_channels=1,
                        seed=seed, **kwargs)
    rng = np.random.default_rng(seed + 100)
    for _, p in net.named_params():
        p.data += rng.normal(0, 0.05, size=p.data.shape).astype(p.data.dtype)
    for _ in range(2):
        batch = (rng.random((time_steps, 4, 1, 12, 12)) < 0.5).astype(np.float32)
        net.forward(batch, training=True)
    return net


def config_of(arch=SMALL, time_steps=2, **kwargs):
    """The experiment config that builds trained_like_net's network."""
    return ExperimentConfig(dataset="synth", arch=arch, train=TrainConfig(time_steps=time_steps),
                            **{"in_channels": 1, **kwargs})


def batch(seed=9, time_steps=2):
    rng = np.random.default_rng(seed)
    return (rng.random((time_steps, 3, 1, 12, 12)) < 0.5).astype(np.float32)


def tamper_header(path, mutate):
    raw = path.read_bytes()
    head, _, body = raw.partition(b"\n\n")
    lines = head.decode().split("\n")
    path.write_bytes(("\n".join(mutate(lines)) + "\n\n").encode() + body)


class TestRoundTrip:
    def test_forward_is_bit_identical_after_reload(self, tmp_path):
        net = trained_like_net(seed=3)
        x = batch()
        before = net.forward(x).data.tobytes()
        save_checkpoint(net, tmp_path / "run.ckpt", epoch=17)
        loaded, epoch = load_checkpoint(tmp_path / "run.ckpt")
        assert epoch == 17
        assert loaded.forward(x).data.tobytes() == before

    def test_parameters_and_buffers_round_trip_exactly(self, tmp_path):
        net = trained_like_net(seed=4)
        save_checkpoint(net, tmp_path / "run.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "run.ckpt")
        for (na, pa), (nb, pb) in zip(net.named_params(), loaded.named_params()):
            assert na == nb
            assert pa.data.tobytes() == pb.data.tobytes(), na
        for (na, ba), (nb, bb) in zip(net.named_buffers(), loaded.named_buffers()):
            assert na == nb
            assert ba.tobytes() == bb.tobytes(), na
        # the exercised norm statistics are not the fresh-init ones
        fresh = build_network(SMALL, time_steps=2, in_channels=1, seed=4)
        fresh_buffers = dict(fresh.named_buffers())
        assert any(dict(loaded.named_buffers())[n].tobytes() != b.tobytes()
                   for n, b in fresh_buffers.items())

    def test_loaded_values_are_the_saved_ones_not_the_seeded_init(self, tmp_path):
        net = trained_like_net(seed=5)
        save_checkpoint(net, tmp_path / "run.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "run.ckpt")
        fresh = build_network(SMALL, time_steps=2, in_channels=1, seed=5)
        saved = dict(net.named_params())
        live = dict(loaded.named_params())
        init = dict(fresh.named_params())
        assert live["encoder.weight"].data.tobytes() == saved["encoder.weight"].data.tobytes()
        assert live["encoder.weight"].data.tobytes() != init["encoder.weight"].data.tobytes()

    def test_expect_accepts_the_config_that_built_it(self, tmp_path):
        net = trained_like_net(seed=6)
        save_checkpoint(net, tmp_path / "run.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "run.ckpt", expect=config_of(seed=6))
        assert loaded.arch_string == SMALL

    def test_attention_plan_and_reductions_survive(self, tmp_path):
        plan = AttentionPlan("C", "a", temporal_reduction=2,
                             channel_reduction=2, spatial_kernel=5)
        net = build_network(SMALL, attention=plan, time_steps=4,
                            in_channels=1, seed=7)
        save_checkpoint(net, tmp_path / "run.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "run.ckpt")
        assert loaded.attention == plan
        x = batch(time_steps=4)
        assert loaded.forward(x).data.tobytes() == net.forward(x).data.tobytes()

    def test_header_text_is_pinned(self, tmp_path):
        net = build_network(SMALL, attention=AttentionPlan.parse("T/a"),
                            time_steps=4, in_channels=2, seed=3)
        save_checkpoint(net, tmp_path / "run.ckpt", epoch=7)
        head = (tmp_path / "run.ckpt").read_bytes().partition(b"\n\n")[0]
        assert head.decode() + "\n\n" == HEADER_TEXT

    def test_payload_bytes_are_pinned(self, tmp_path):
        """The blocks after the header hold kernels as [Cout, Cin, k, k] and
        every other tensor as built, whatever layout the activations use
        inside the network: the digest of the seeded train-conv network
        with T/a gates is fixed."""
        net = build_network(CONV_ARCH, attention=AttentionPlan.parse("T/a"),
                            time_steps=8, in_channels=2, seed=0)
        save_checkpoint(net, tmp_path / "run.ckpt")
        payload = (tmp_path / "run.ckpt").read_bytes().partition(b"\n\n")[2]
        assert hashlib.sha256(payload).hexdigest() == PAYLOAD_SHA256

    def test_custom_lif_settings_survive(self, tmp_path):
        lif = LIFConfig(tau=2.5, u_threshold=0.75, u_reset=0.1,
                        surrogate_alpha=4.0, detach_reset=False)
        save_checkpoint(trained_like_net(lif=lif), tmp_path / "run.ckpt")
        loaded, _ = load_checkpoint(tmp_path / "run.ckpt")
        assert loaded.lif_cfg == lif

    def test_pruned_network_round_trips_as_pruned(self, tmp_path):
        net = build_network(SMALL, time_steps=2, in_channels=1, seed=8)
        params = dict(net.named_params())
        params["block1.shortcut_bn.gamma"].data[...] = 0.0
        params["block1.shortcut_bn.beta"].data[...] = -5.0
        pruned = apply_pruning(net, ["block1.shortcut_lif"], batch(seed=1))
        save_checkpoint(pruned, tmp_path / "pruned.ckpt", epoch=3)
        loaded, epoch = load_checkpoint(tmp_path / "pruned.ckpt")
        assert epoch == 3
        assert loaded.pruned_block_names() == ["block1"]
        assert "block1.shortcut_conv.weight" not in dict(loaded.named_params())
        x = batch(seed=2)
        assert loaded.forward(x).data.tobytes() == pruned.forward(x).data.tobytes()

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "net.ckpt"
        save_checkpoint(trained_like_net(seed=1), path)
        before = path.read_bytes()

        def fail_after_header(fh, blocks):
            fh.write(b"partial")
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint, "_write_blocks", fail_after_header)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(trained_like_net(seed=2), path, epoch=3)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]

    def test_a_float64_network_is_refused_before_any_write(self, tmp_path):
        """v1 stores float32 blocks: a network whose parameter array was
        replaced by a float64 one would load back rounded, so saving it
        raises and leaves an existing file as it was."""
        path = tmp_path / "net.ckpt"
        save_checkpoint(trained_like_net(seed=1), path)
        before = path.read_bytes()
        net = build_network(SMALL, time_steps=2, in_channels=1, seed=1)
        weight = dict(net.named_params())["encoder.weight"]
        weight.data = weight.data.astype(np.float64)
        with pytest.raises(CheckpointError, match="encoder.weight is float64"):
            save_checkpoint(net, path, epoch=3)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]


class TestGuards:
    def save_one(self, tmp_path, **kwargs):
        net = trained_like_net(seed=1, **kwargs)
        path = tmp_path / "run.ckpt"
        save_checkpoint(net, path)
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetNotFound):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.ckpt"
        p.write_bytes(b"definitely not a checkpoint\n\nmore bytes")
        with pytest.raises(BadMagic, match="not a checkpoint file"):
            load_checkpoint(p)

    def test_version_mismatch(self, tmp_path):
        p = self.save_one(tmp_path)
        tamper_header(p, lambda ls: [f"{CKPT_FORMAT} v999"] + ls[1:])
        with pytest.raises(VersionMismatch, match="v999"):
            load_checkpoint(p)
        assert CKPT_VERSION == "v1"

    def test_expect_refuses_another_arch(self, tmp_path):
        p = self.save_one(tmp_path)
        with pytest.raises(ArchMismatch, match="differs from the config in arch "):
            load_checkpoint(p, expect=config_of("c8k3s1p1-BN-LIF-AP-FC4", seed=1))

    def test_expect_compares_the_arch_in_canonical_form(self, tmp_path):
        p = tmp_path / "run.ckpt"
        save_checkpoint(build_network("c4k3s1p0-BN-LIF-{c4k3s1p1-BN-LIF}*2-AP-FC3",
                                      time_steps=2, in_channels=1), p)
        for spelling in ("c4k3s1p0-BN-LIF-{c4k3s1p1-BN-LIF}*2-AP-FC3",
                         "c4k3s1-BN-LIF-c4k3s1p1-BN-LIF-c4k3s1p1-BN-LIF-AP-FC3",
                         " c4k3s1-BN-LIF-{c4k3s1p1-BN-LIF}*1-c4k3s1p1-BN-LIF-AP-FC3"):
            assert load_checkpoint(p, expect=config_of(spelling))[1] == 0
        with pytest.raises(ArchMismatch, match="differs from the config in arch "):
            load_checkpoint(p, expect=config_of("c4k3s1-BN-LIF-{c4k3s1p1-BN-LIF}*1-AP-FC3"))
        with pytest.raises(ArchError, match="unknown token"):
            load_checkpoint(p, expect=config_of("c4k3s1-BN-LIF-{c4k3s1p1-BN-LIF}*2-XX-FC3"))

    def test_expect_compares_the_attention_reductions(self, tmp_path):
        """A config's attention string takes the default reductions, so it
        does not describe a network built with others."""
        p = tmp_path / "run.ckpt"
        plan = AttentionPlan("C", "a", temporal_reduction=2, channel_reduction=2,
                             spatial_kernel=5)
        save_checkpoint(build_network(SMALL, attention=plan, time_steps=2, in_channels=1), p)
        with pytest.raises(ArchMismatch, match=r"in attention_reductions '2,2,5' "
                                               r"\(config: '4,16,7'\)$"):
            load_checkpoint(p, expect=config_of(attention="C/a"))

    def test_expect_names_every_differing_key(self, tmp_path):
        p = self.save_one(tmp_path)
        with pytest.raises(ArchMismatch) as err:
            load_checkpoint(p, expect=config_of(join="ADD", attention="none", seed=1,
                                                lif=LIFConfig(tau=3.0, detach_reset=False)))
        assert str(err.value) == (
            f"{p}: checkpoint differs from the config in join 'OR' (config: 'ADD'), "
            "lif_tau '2.0' (config: '3.0'), lif_detach_reset 'true' (config: 'false')")

    def test_header_never_ends(self, tmp_path):
        p = self.save_one(tmp_path)
        head = p.read_bytes().partition(b"\n\n")[0]
        p.write_bytes(head)
        with pytest.raises(CorruptPayload, match="header never ends"):
            load_checkpoint(p)

    def test_malformed_header_line(self, tmp_path):
        p = self.save_one(tmp_path)
        tamper_header(p, lambda ls: [ls[0], "this line has no equals"] + ls[1:])
        with pytest.raises(CorruptPayload, match="malformed header line"):
            load_checkpoint(p)

    def test_missing_header_key(self, tmp_path):
        p = self.save_one(tmp_path)
        tamper_header(p, lambda ls: [l for l in ls if not l.startswith("lif_tau=")])
        with pytest.raises(CorruptPayload, match="missing keys"):
            load_checkpoint(p)

    def test_bad_detach_reset_value_is_refused(self, tmp_path, capsys):
        p = self.save_one(tmp_path)
        tamper_header(p, lambda ls: [
            "lif_detach_reset=maybe" if l.startswith("lif_detach_reset=") else l
            for l in ls])
        with pytest.raises(CorruptPayload, match="expected a boolean, got 'maybe'"):
            load_checkpoint(p)
        assert main(["eval", "--ckpt", str(p), "--data", "synth:moving-bar:4:2:12:12"]) == 2
        assert "ERROR CorruptPayload:" in capsys.readouterr().err

    @pytest.mark.parametrize("epoch", ["x", "", "1.5", "-1", " 1"])
    def test_a_bad_epoch_fails_typed_through_the_cli(self, epoch, tmp_path, capsys):
        p = self.save_one(tmp_path)
        tamper_header(p, lambda ls: [f"epoch={epoch}" if l.startswith("epoch=") else l
                                     for l in ls])
        data = ["--data", "synth:moving-bar:4:2:12:12"]
        prune = ["--trace", str(tmp_path / "t.csv"), "--out", str(tmp_path / "p.ckpt")]
        for args in (["eval"] + data, ["audit"] + data, ["energy"] + data, ["prune"] + prune):
            assert main(args + ["--ckpt", str(p)]) == 2
            assert (f"ERROR CorruptPayload: {p}: epoch {epoch!r} is not an integer >= 0"
                    in capsys.readouterr().err)

    @pytest.mark.parametrize("key,value,what", [
        ("time_steps", "x", "an integer"), ("in_channels", "-1", "an integer"),
        ("seed", "1.5", "an integer"), ("seed", "", "an integer"),
        ("attention_reductions", "4,x,7", "3 integers"),
        ("attention_reductions", "4,16", "3 integers")])
    def test_a_bad_integer_field_fails_typed_through_the_cli(self, key, value, what,
                                                              tmp_path, capsys):
        """A header integer that is no integer is a corrupt payload, not an
        architecture mismatch."""
        p = self.save_one(tmp_path)
        tamper_header(p, lambda ls: [f"{key}={value}" if l.startswith(f"{key}=") else l
                                     for l in ls])
        assert main(["eval", "--ckpt", str(p), "--data", "synth:moving-bar:4:2:12:12"]) == 2
        assert (f"ERROR CorruptPayload: {p}: {key} {value!r} is not {what} >= 0"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_a_non_finite_lif_setting_is_refused(self, value, tmp_path):
        p = self.save_one(tmp_path)
        tamper_header(p, lambda ls: [f"lif_tau={value}" if l.startswith("lif_tau=") else l
                                     for l in ls])
        with pytest.raises(CorruptPayload, match=f"bad value '{value}' for \\[lif\\] tau"):
            load_checkpoint(p)

    def test_undecodable_block_name_fails_typed_through_the_cli(self, tmp_path, capsys):
        p = self.save_one(tmp_path)
        raw = bytearray(p.read_bytes())
        # header, blank line, u32 block count, u16 name length, then the name
        first_name = raw.index(b"\n\n") + 2 + 4 + 2
        raw[first_name] = 0xBC
        p.write_bytes(bytes(raw))
        with pytest.raises(CorruptPayload, match="undecodable block name"):
            load_checkpoint(p)
        assert main(["eval", "--ckpt", str(p), "--data", "synth:moving-bar:4:2:12:12"]) == 2
        assert "ERROR CorruptPayload:" in capsys.readouterr().err

    def test_payload_ends_early(self, tmp_path):
        p = self.save_one(tmp_path)
        p.write_bytes(p.read_bytes()[:-20])
        with pytest.raises(CorruptPayload, match="payload ends early"):
            load_checkpoint(p)

    def test_trailing_bytes(self, tmp_path):
        p = self.save_one(tmp_path)
        p.write_bytes(p.read_bytes() + b"JUNK")
        with pytest.raises(CorruptPayload, match="trailing bytes"):
            load_checkpoint(p)

    def test_unbuildable_arch_in_header(self, tmp_path):
        p = self.save_one(tmp_path)
        tamper_header(p, lambda ls: [
            "arch=c8k3s1p1-BN-LIF" if l.startswith("arch=") else l for l in ls])
        with pytest.raises(ArchMismatch, match="cannot rebuild saved graph"):
            load_checkpoint(p)

    def test_edited_arch_makes_shapes_mismatch(self, tmp_path):
        p = self.save_one(tmp_path)
        edited = SMALL.replace("Block(c16)", "Block(c8)")
        tamper_header(p, lambda ls: [
            f"arch={edited}" if l.startswith("arch=") else l for l in ls])
        with pytest.raises(ArchMismatch, match="holds .* values, graph expects"):
            load_checkpoint(p)

    def test_unknown_pruned_block(self, tmp_path):
        p = self.save_one(tmp_path)
        tamper_header(p, lambda ls: [
            "pruned=block9" if l.startswith("pruned=") else l for l in ls])
        with pytest.raises(ArchMismatch, match="pruned block 'block9'"):
            load_checkpoint(p)
