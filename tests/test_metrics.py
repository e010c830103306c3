"""Energy accounting against hand-computed oracles, firing-rate traces,
and natural-pruning detection and application."""

import numpy as np
import pytest

from orsnn.errors import EngineError, PruneRefused, ShapeError
from orsnn.metrics import (
    EnergyModel,
    FiringRateTrace,
    apply_pruning,
    conv_flops,
    detect_natural_pruning,
    estimate_energy,
    fc_flops,
)
from orsnn.network import build_network
from orsnn.record import SpikeRecord

SMALL = "c8k3s1p1-BN-LIF-(OR-SEW Block(c16))-AP-FC4"


class FakeNet:
    """Stands in for a network: only the stat-name order matters here."""

    def __init__(self, names):
        self._names = names

    def arithmetic_stat_names(self):
        return list(self._names)


def rated(total, nonzero):
    """A float array with an exact nonzero fraction nonzero/total."""
    arr = np.zeros(total, dtype=np.float32)
    arr[:nonzero] = 1.0
    return arr


class TestFlopHelpers:
    def test_conv_flops_value(self):
        assert conv_flops(12, 10, 3, 4, 8) == 12 * 10 * 9 * 4 * 8

    def test_fc_flops_value(self):
        assert fc_flops(512, 10) == 5120

    def test_unbound_shapes_rejected(self):
        with pytest.raises(ShapeError):
            conv_flops(None, 10, 3, 4, 8)
        with pytest.raises(ShapeError):
            conv_flops(12, 10, 0, 4, 8)
        with pytest.raises(ShapeError):
            fc_flops(None, 10)
        with pytest.raises(ShapeError):
            fc_flops(512, 0)


class TestEnergyOracle:
    def build_record(self):
        # 2 samples; hand-chosen flops and input rates:
        #   encoder: 1000 FLOPs/sample, MAC regardless of rate
        #   conv1:   500 FLOPs/sample, binary input at rate 1/4 -> AC
        #   fc:      100 FLOPs/sample, binary input at rate 1/2 -> AC
        rec = SpikeRecord(samples=2)
        rec.note_input("encoder", "conv", rated(8, 3), rated(8, 3),
                       flops=2000, is_encoder=True)
        rec.note_input("conv1", "conv", rated(8, 2), rated(8, 2), flops=1000)
        rec.note_input("fc", "fc", rated(8, 4), rated(8, 4), flops=200)
        rec.note_spikes("lif1", "lif", np.ones(6))
        return rec

    def test_three_layer_hand_oracle(self):
        rec = self.build_record()
        report = estimate_energy(FakeNet(["encoder", "conv1", "fc"]), rec)
        expected = 4.6 * 1000 + 0.9 * (500 * 0.25) + 0.9 * (100 * 0.5)
        assert report.energy_pj_per_sample == pytest.approx(expected, rel=1e-9)
        assert report.mac_ops_per_sample == pytest.approx(1000, rel=1e-9)
        assert report.ac_ops_per_sample == pytest.approx(500 * 0.25 + 100 * 0.5,
                                                         rel=1e-9)
        by_name = {ln.name: ln for ln in report.lines}
        assert by_name["encoder"].klass == "MAC"
        assert by_name["conv1"].klass == "AC"
        assert by_name["conv1"].input_rate == 0.25
        assert by_name["fc"].energy_pj == pytest.approx(0.9 * 50, rel=1e-9)

    def test_total_is_exact_sum_of_lines(self):
        rec = self.build_record()
        report = estimate_energy(FakeNet(["encoder", "conv1", "fc"]), rec)
        assert report.energy_pj_per_sample == sum(ln.energy_pj for ln in report.lines)
        assert report.mac_ops_per_sample == sum(
            ln.ops_per_sample for ln in report.lines if ln.klass == "MAC")

    def test_custom_constants_scale_linearly(self):
        rec = self.build_record()
        model = EnergyModel(e_mac_pj=9.2, e_ac_pj=1.8)
        a = estimate_energy(FakeNet(["encoder", "conv1", "fc"]), self.build_record())
        b = estimate_energy(FakeNet(["encoder", "conv1", "fc"]), rec, model)
        assert b.energy_pj_per_sample == pytest.approx(2 * a.energy_pj_per_sample,
                                                       rel=1e-12)

    def test_million_flop_encoder_is_four_point_six_microjoules(self):
        rec = SpikeRecord(samples=1)
        rec.note_input("encoder", "conv", rated(4, 4), rated(4, 4),
                       flops=1_000_000, is_encoder=True)
        report = estimate_energy(FakeNet(["encoder"]), rec)
        assert report.energy_uj_per_sample == pytest.approx(4.6, rel=1e-9)
        assert "4.6000 uJ" in report.render()

    def test_nonbinary_input_layer_counts_as_mac(self):
        rec = SpikeRecord(samples=1)
        real = np.array([0.5, 1.0, 0.0, 0.25], dtype=np.float32)
        rec.note_input("conv1", "conv", real, real, flops=100)
        report = estimate_energy(FakeNet(["conv1"]), rec)
        (line,) = report.lines
        assert line.klass == "MAC"
        assert line.energy_pj == pytest.approx(4.6 * 100, rel=1e-12)

    def test_attention_transform_is_mac_and_pool_is_ac(self):
        rec = SpikeRecord(samples=1)
        real = np.array([0.5, 0.5], dtype=np.float32)
        rec.note_input("gate1", "attn_fc", real, real, flops=64)
        rec.note_input("gate1.pool", "attn_pool", rated(4, 2), rated(4, 2), flops=32)
        report = estimate_energy(FakeNet(["gate1", "gate1.pool"]), rec)
        by_name = {ln.name: ln for ln in report.lines}
        assert by_name["gate1"].klass == "MAC"
        assert by_name["gate1"].energy_pj == pytest.approx(4.6 * 64, rel=1e-12)
        assert by_name["gate1.pool"].klass == "AC"
        assert by_name["gate1.pool"].energy_pj == pytest.approx(0.9 * 32 * 0.5,
                                                               rel=1e-12)

    def test_missing_layer_entry_raises(self):
        rec = self.build_record()
        with pytest.raises(EngineError, match="no entry for layer 'conv9'"):
            estimate_energy(FakeNet(["encoder", "conv9"]), rec)

    def test_empty_record_raises(self):
        with pytest.raises(EngineError, match="at least one sample"):
            estimate_energy(FakeNet(["encoder"]), SpikeRecord())

    def test_rows_are_csv_ready(self):
        rec = self.build_record()
        report = estimate_energy(FakeNet(["encoder", "conv1", "fc"]), rec)
        rows = report.rows()
        assert [r["layer"] for r in rows] == ["encoder", "conv1", "fc"]
        assert list(rows[0]) == ["layer", "kind", "klass", "flops_per_sample",
                                 "input_rate", "ops_per_sample", "energy_pj"]
        assert float(rows[0]["energy_pj"]) == pytest.approx(4600.0)


class TestQuiescentNetwork:
    def test_only_the_encoder_draws_energy(self):
        net = build_network(SMALL, time_steps=2, in_channels=1, seed=0)
        rec = SpikeRecord()
        net.forward(np.zeros((2, 3, 1, 12, 12), dtype=np.float32), record=rec)
        report = estimate_energy(net, rec)
        encoder_pj = 4.6 * 2 * conv_flops(12, 12, 3, 1, 8)
        assert report.energy_pj_per_sample == pytest.approx(encoder_pj, rel=1e-9)
        for line in report.lines:
            if line.name != "encoder":
                assert line.energy_pj == 0.0, line.name
        assert report.spikes_per_sample == 0.0
        assert report.spikes_per_neuron == 0.0

    def test_spike_normalizations(self):
        net = build_network(SMALL, time_steps=2, in_channels=1, seed=0)
        # non-negative weights plus a positive norm shift guarantee every
        # neuron's drive stays above threshold at every step
        for name, p in net.named_params():
            if name.endswith(".beta"):
                p.data[...] = 5.0
            if name.endswith(".weight"):
                p.data[...] = np.abs(p.data)
        rec = SpikeRecord()
        net.forward((np.random.default_rng(0).random((2, 3, 1, 12, 12)) < 0.5)
                    .astype(np.float32), record=rec)
        report = estimate_energy(net, rec)
        assert report.spikes_per_sample > 0
        assert report.spikes_per_sample_per_step == pytest.approx(
            report.spikes_per_sample / 2, rel=1e-12)
        # every neuron firing at every step means exactly T spikes per neuron
        assert report.spikes_per_neuron == pytest.approx(2.0, rel=1e-6)
        assert report.spikes_per_neuron_per_step == pytest.approx(1.0, rel=1e-6)

    def test_spike_total_and_firing_rates(self):
        net = build_network(SMALL, time_steps=2, in_channels=1, seed=0)
        rec = SpikeRecord()
        net.forward((np.random.default_rng(1).random((2, 3, 1, 12, 12)) < 0.5)
                    .astype(np.float32), record=rec)
        assert rec.spike_total() == sum(
            st.out_spikes for name, st in rec.layers.items() if "lif" in name)
        rates = rec.firing_rates()
        assert set(rates) == {"lif1", "block1.lif1", "block1.lif2",
                              "block1.shortcut_lif", "block1.lif3", "block1.lif4"}
        for rate in rates.values():
            assert 0.0 <= rate <= 1.0


class TestFiringRateTrace:
    def test_append_and_series(self):
        tr = FiringRateTrace()
        tr.append(0, {"a": 0.5, "b": 0.0})
        tr.append(1, {"a": 0.25, "b": 0.0})
        assert tr.series("a") == [0.5, 0.25]
        assert tr.series("b") == [0.0, 0.0]

    def test_epochs_must_increase(self):
        tr = FiringRateTrace()
        tr.append(3, {"a": 0.5})
        with pytest.raises(EngineError, match="strictly increasing"):
            tr.append(3, {"a": 0.5})
        with pytest.raises(EngineError, match="strictly increasing"):
            tr.append(1, {"a": 0.5})

    def test_layer_set_must_stay_fixed(self):
        tr = FiringRateTrace()
        tr.append(0, {"a": 0.5, "b": 0.0})
        with pytest.raises(EngineError, match="layer set changed"):
            tr.append(1, {"a": 0.5})

    def test_unknown_layer_rejected(self):
        tr = FiringRateTrace()
        tr.append(0, {"a": 0.5})
        with pytest.raises(EngineError, match="unknown layer 'zz'"):
            tr.series("zz")

    def test_row_round_trip_preserves_exact_values(self):
        tr = FiringRateTrace()
        tr.append(0, {"a": 0.5, "b": 0.0})
        tr.append(2, {"a": 0.25, "b": 0.0})
        tr.append(5, {"a": 0.0, "b": 1.0})
        back = FiringRateTrace.from_rows(tr.to_rows())
        assert back.epochs == [0, 2, 5]
        assert back.rates == tr.rates

    def test_rows_stringify_rates(self):
        tr = FiringRateTrace()
        tr.append(0, {"a": 0.0})
        (row,) = tr.to_rows()
        assert row == {"epoch": 0, "layer": "a", "rate": "0"}


class TestDetect:
    def make_trace(self, series, start_epoch=0):
        tr = FiringRateTrace()
        for i, v in enumerate(series):
            tr.append(start_epoch + i, {"s": v})
        return tr

    def test_terminal_zero_run_is_flagged_at_its_first_epoch(self):
        tr = self.make_trace([0.3, 0.1, 0.0, 0.0, 0.0, 0.0, 0.0])
        report = detect_natural_pruning(tr, ["s"], patience=5)
        assert report.names() == ["s"]
        assert report.flagged[0].first_zero_epoch == 2

    def test_tiny_nonzero_rate_defeats_the_exact_rule(self):
        tr = self.make_trace([0.3, 0.1, 1e-6, 0.0, 0.0, 0.0, 0.0])
        report = detect_natural_pruning(tr, ["s"], patience=5)
        assert report.names() == []

    def test_short_history_is_left_unflagged(self):
        tr = self.make_trace([0.0, 0.0, 0.0])
        report = detect_natural_pruning(tr, ["s"], patience=5)
        assert report.names() == []

    def test_zero_for_patience_minus_one_is_not_enough(self):
        tr = self.make_trace([0.1, 0.1, 0.0, 0.0, 0.0, 0.0])
        report = detect_natural_pruning(tr, ["s"], patience=5)
        assert report.names() == []

    def test_all_zero_series_flags_from_first_epoch(self):
        tr = self.make_trace([0.0] * 6)
        report = detect_natural_pruning(tr, ["s"], patience=5)
        assert report.flagged[0].first_zero_epoch == 0

    def test_flag_reports_true_epoch_numbers_not_indices(self):
        tr = self.make_trace([0.2, 0.0, 0.0, 0.0, 0.0, 0.0], start_epoch=10)
        report = detect_natural_pruning(tr, ["s"], patience=5)
        assert report.flagged[0].first_zero_epoch == 11

    def test_interrupted_run_restarts_the_clock(self):
        tr = self.make_trace([0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        report = detect_natural_pruning(tr, ["s"], patience=5)
        assert report.flagged[0].first_zero_epoch == 3

    def test_patience_must_be_positive(self):
        tr = self.make_trace([0.0])
        with pytest.raises(EngineError, match="patience"):
            detect_natural_pruning(tr, ["s"], patience=0)

    def test_unknown_shortcut_name_raises(self):
        tr = self.make_trace([0.0])
        with pytest.raises(EngineError, match="unknown layer"):
            detect_natural_pruning(tr, ["nope"], patience=1)

    def test_render_mentions_flagged_layer(self):
        tr = self.make_trace([0.0] * 5)
        report = detect_natural_pruning(tr, ["s"], patience=5)
        assert "s: prunable (rate exactly 0 since epoch 0)" in report.render()


def silence_shortcut(net):
    params = dict(net.named_params())
    params["block1.shortcut_bn.gamma"].data[...] = 0.0
    params["block1.shortcut_bn.beta"].data[...] = -5.0


def binary_batches(count, shape, seed):
    rng = np.random.default_rng(seed)
    return [(rng.random(shape) < 0.5).astype(np.float32) for _ in range(count)]


class TestApplyPruning:
    def test_silent_shortcut_prunes_and_preserves_outputs(self):
        net = build_network(SMALL, time_steps=2, in_channels=1, seed=1)
        silence_shortcut(net)
        batches = binary_batches(3, (2, 4, 1, 12, 12), seed=2)
        pruned = apply_pruning(net, ["block1.shortcut_lif"], batches)
        assert pruned.pruned_block_names() == ["block1"]
        assert net.pruned_block_names() == []  # original untouched
        for batch in binary_batches(3, (2, 4, 1, 12, 12), seed=3):
            a = net.forward(batch).data
            b = pruned.forward(batch).data
            assert a.tobytes() == b.tobytes()

    def test_pruned_copy_drops_shortcut_parameters(self):
        net = build_network(SMALL, time_steps=2, in_channels=1, seed=1)
        silence_shortcut(net)
        batches = binary_batches(1, (2, 4, 1, 12, 12), seed=2)
        pruned = apply_pruning(net, ["block1.shortcut_lif"], batches)
        removed = set(dict(net.named_params())) - set(dict(pruned.named_params()))
        assert removed == {"block1.shortcut_conv.weight",
                           "block1.shortcut_bn.gamma", "block1.shortcut_bn.beta"}
        assert pruned.count_parameters() < net.count_parameters()

    def test_firing_shortcut_refuses_with_batch_index(self):
        net = build_network(SMALL, time_steps=2, in_channels=1, seed=1)
        params = dict(net.named_params())
        params["block1.shortcut_bn.beta"].data[...] = 5.0
        batches = binary_batches(2, (2, 4, 1, 12, 12), seed=4)
        with pytest.raises(PruneRefused, match=r"fired \d+ spikes on verification batch 0"):
            apply_pruning(net, ["block1.shortcut_lif"], batches)
        assert net.pruned_block_names() == []

    def test_unknown_shortcut_name_raises(self):
        net = build_network(SMALL, time_steps=2, in_channels=1, seed=1)
        with pytest.raises(EngineError, match="no prunable shortcut named"):
            apply_pruning(net, ["block9.shortcut_lif"],
                          binary_batches(1, (2, 2, 1, 12, 12), seed=0))

    def test_non_absorbing_join_refuses(self):
        from orsnn.residual import JoinMode

        net = build_network(SMALL, join=JoinMode.IAND, time_steps=2,
                            in_channels=1, seed=1)
        silence_shortcut(net)
        with pytest.raises(PruneRefused, match="does not absorb"):
            apply_pruning(net, ["block1.shortcut_lif"],
                          binary_batches(1, (2, 2, 1, 12, 12), seed=0))

    def test_single_array_accepted_as_batches(self):
        net = build_network(SMALL, time_steps=2, in_channels=1, seed=1)
        silence_shortcut(net)
        (batch,) = binary_batches(1, (2, 4, 1, 12, 12), seed=5)
        pruned = apply_pruning(net, ["block1.shortcut_lif"], batch)
        assert pruned.pruned_block_names() == ["block1"]
