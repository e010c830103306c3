"""Data plumbing: IDX image files, the framed-event container, synthetic
motion sets, augmentation transforms, and CSV helpers."""

import gzip

import numpy as np
import pytest

import orsnn.data
from orsnn.config import experiment_defaults, save_config
from orsnn.data import (
    FramedEventSet,
    IdxDataset,
    Transform,
    augment,
    find_idx_pair,
    load_events,
    load_idx,
    load_idx_dir,
    load_idx_images,
    load_idx_labels,
    parse_transforms,
    read_csv,
    render_transforms,
    save_events,
    save_idx_images,
    save_idx_labels,
    synth_events,
    write_csv,
)
from orsnn.errors import (
    BadMagic,
    ConfigError,
    CountMismatch,
    DataFormatError,
    DatasetNotFound,
    ShapeError,
    Truncated,
)

from conftest import FullDisk


def sample_images(n=4, h=5, w=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(n, h, w)).astype(np.uint8)


class TestIdx:
    def test_round_trip_uint8(self, tmp_path):
        imgs = sample_images()
        labels = np.array([3, 1, 4, 1], dtype=np.int64)
        save_idx_images(tmp_path / "imgs", imgs)
        save_idx_labels(tmp_path / "labels", labels)
        ds = load_idx(tmp_path / "imgs", tmp_path / "labels")
        assert ds.images.shape == (4, 1, 5, 6)
        assert ds.images.dtype == np.float32
        np.testing.assert_allclose(ds.images[:, 0] * 255.0, imgs, atol=1e-4)
        np.testing.assert_array_equal(ds.labels, labels)
        assert ds.labels.dtype == np.int64
        assert len(ds) == 4

    def test_float_images_are_rescaled_on_save(self, tmp_path):
        imgs = np.full((2, 1, 3, 3), 0.5, dtype=np.float32)
        save_idx_images(tmp_path / "imgs", imgs)
        back = load_idx_images(tmp_path / "imgs")
        np.testing.assert_allclose(back, 128.0 / 255.0, rtol=1e-6)

    def test_gzip_files_are_transparent(self, tmp_path):
        imgs = sample_images()
        save_idx_images(tmp_path / "plain", imgs)
        gz = tmp_path / "imgs.gz"
        gz.write_bytes(gzip.compress((tmp_path / "plain").read_bytes()))
        np.testing.assert_array_equal(load_idx_images(gz),
                                      load_idx_images(tmp_path / "plain"))

    def test_wrong_magic_is_rejected(self, tmp_path):
        save_idx_labels(tmp_path / "labels", np.arange(12))
        with pytest.raises(BadMagic, match="expected image magic"):
            load_idx_images(tmp_path / "labels")
        save_idx_images(tmp_path / "imgs", sample_images())
        with pytest.raises(BadMagic, match="expected label magic"):
            load_idx_labels(tmp_path / "imgs")

    def test_truncated_payload_is_rejected(self, tmp_path):
        save_idx_images(tmp_path / "imgs", sample_images())
        raw = (tmp_path / "imgs").read_bytes()
        (tmp_path / "cut").write_bytes(raw[:-7])
        with pytest.raises(Truncated, match="pixel bytes"):
            load_idx_images(tmp_path / "cut")
        (tmp_path / "header").write_bytes(raw[:10])
        with pytest.raises(Truncated, match="header"):
            load_idx_images(tmp_path / "header")

    def test_count_mismatch_between_files(self, tmp_path):
        save_idx_images(tmp_path / "imgs", sample_images(n=4))
        save_idx_labels(tmp_path / "labels", np.array([1, 2, 3]))
        with pytest.raises(CountMismatch):
            load_idx(tmp_path / "imgs", tmp_path / "labels")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetNotFound):
            load_idx_images(tmp_path / "absent")

    def test_labels_must_fit_a_byte(self, tmp_path):
        with pytest.raises(DataFormatError, match="byte"):
            save_idx_labels(tmp_path / "labels", np.array([0, 300]))

    def test_find_idx_pair_plain_and_gz(self, tmp_path):
        imgs = sample_images()
        labels = np.arange(4)
        save_idx_images(tmp_path / "train-images-idx3-ubyte", imgs)
        save_idx_labels(tmp_path / "train-labels-idx1-ubyte", labels)
        ip, lp = find_idx_pair(tmp_path, "train")
        assert ip.name == "train-images-idx3-ubyte"
        # gz fallback for the test split
        save_idx_images(tmp_path / "t10k", imgs)
        (tmp_path / "t10k-images-idx3-ubyte.gz").write_bytes(
            gzip.compress((tmp_path / "t10k").read_bytes()))
        save_idx_labels(tmp_path / "t10k-labels-idx1-ubyte", labels)
        ip, lp = find_idx_pair(tmp_path, "test")
        assert ip.name.endswith(".gz")
        ds = load_idx_dir(tmp_path, "test")
        assert len(ds) == 4

    def test_find_idx_pair_errors(self, tmp_path):
        with pytest.raises(DatasetNotFound, match="train-images"):
            find_idx_pair(tmp_path, "train")
        with pytest.raises(ConfigError, match="split"):
            find_idx_pair(tmp_path, "validation")

    def test_subset_is_deterministic_and_keeps_pairing(self):
        # pixel value encodes the sample index so pairing is checkable
        imgs = np.zeros((20, 1, 2, 2), dtype=np.float32)
        for i in range(20):
            imgs[i] = i / 255.0
        labels = np.arange(20, dtype=np.int64) % 4
        ds = IdxDataset(imgs, labels)
        sub1 = ds.subset(8, seed=5)
        sub2 = ds.subset(8, seed=5)
        np.testing.assert_array_equal(sub1.images, sub2.images)
        assert len(sub1) == 8
        for img, label in zip(sub1.images, sub1.labels):
            idx = int(round(float(img[0, 0, 0]) * 255.0))
            assert labels[idx] == label

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            IdxDataset(np.zeros((2, 3, 4, 4)), np.zeros(2))
        with pytest.raises(CountMismatch):
            IdxDataset(np.zeros((2, 1, 4, 4)), np.zeros(3))


class TestEvents:
    def test_round_trip_is_exact(self, tmp_path):
        ds = synth_events("moving-bar", 8, 4, 6, 8, seed=1)
        save_events(tmp_path / "d.evt", ds)
        back = load_events(tmp_path / "d.evt")
        np.testing.assert_array_equal(back.frames, ds.frames)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.frames.dtype == np.float32
        assert back.time_steps == 4

    def test_bad_magic(self, tmp_path):
        (tmp_path / "x.evt").write_bytes(b"not an event file\n1 2 2 3 3\n")
        with pytest.raises(BadMagic, match="not an event container"):
            load_events(tmp_path / "x.evt")

    def test_missing_extent_line(self, tmp_path):
        (tmp_path / "x.evt").write_bytes(b"ORSNN-EVT v1\n4 4 2 6 8")
        with pytest.raises(Truncated, match="extent line"):
            load_events(tmp_path / "x.evt")

    def test_bad_extent_line(self, tmp_path):
        (tmp_path / "x.evt").write_bytes(b"ORSNN-EVT v1\nfour 4 2 6 8\n")
        with pytest.raises(DataFormatError, match="bad extent line"):
            load_events(tmp_path / "x.evt")

    def test_short_and_trailing_payloads(self, tmp_path):
        ds = synth_events("two-class-motion", 4, 3, 5, 6, seed=0)
        save_events(tmp_path / "d.evt", ds)
        raw = (tmp_path / "d.evt").read_bytes()
        (tmp_path / "short.evt").write_bytes(raw[:-3])
        with pytest.raises(Truncated, match="payload"):
            load_events(tmp_path / "short.evt")
        (tmp_path / "long.evt").write_bytes(raw + b"xx")
        with pytest.raises(Truncated, match="payload"):
            load_events(tmp_path / "long.evt")

    def test_save_rejects_non_integral_frames(self, tmp_path):
        frames = np.full((1, 2, 2, 3, 3), 0.5, dtype=np.float32)
        ds = FramedEventSet(frames, np.zeros(1, dtype=np.int64))
        with pytest.raises(DataFormatError, match="integral"):
            save_events(tmp_path / "d.evt", ds)

    def test_container_shape_validation(self):
        with pytest.raises(ShapeError, match="polarity"):
            FramedEventSet(np.zeros((2, 3, 1, 4, 4)), np.zeros(2))
        with pytest.raises(CountMismatch):
            FramedEventSet(np.zeros((2, 3, 2, 4, 4)), np.zeros(3))


class TestSynth:
    def test_deterministic_per_seed(self):
        a = synth_events("moving-bar", 12, 4, 5, 6, seed=7)
        b = synth_events("moving-bar", 12, 4, 5, 6, seed=7)
        assert a.frames.tobytes() == b.frames.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()
        c = synth_events("moving-bar", 12, 4, 5, 6, seed=8)
        assert a.frames.tobytes() != c.frames.tobytes()

    def test_frames_are_binary_with_equal_polarities(self):
        ds = synth_events("two-class-motion", 6, 4, 5, 8, seed=2)
        assert set(np.unique(ds.frames)) <= {0.0, 1.0}
        np.testing.assert_array_equal(ds.frames[:, :, 0], ds.frames[:, :, 1])

    def test_class_balance(self):
        ds = synth_events("two-class-motion", 10, 3, 4, 6, seed=0)
        counts = np.bincount(ds.labels, minlength=2)
        assert counts.tolist() == [5, 5]
        ds4 = synth_events("moving-bar", 10, 3, 4, 6, seed=0)
        counts4 = np.bincount(ds4.labels, minlength=4)
        assert sorted(counts4.tolist()) == [2, 2, 3, 3]

    def test_bar_follows_its_class_velocity_with_wraparound(self):
        velocities = {0: 1, 1: -1, 2: 2, 3: -2}
        ds = synth_events("moving-bar", 16, 7, 3, 5, seed=3, bar_width=1)
        for frames, label in zip(ds.frames, ds.labels):
            cols = frames[:, 0, 0, :].argmax(axis=-1)
            v = velocities[int(label)]
            for step in range(7):
                assert cols[step] == (cols[0] + v * step) % 5

    def test_single_frames_carry_no_class_signal(self):
        # start columns cycle round-robin, so with a whole number of cycles
        # per class the summed frame at each step is class-independent
        w = 6
        ds = synth_events("two-class-motion", 2 * w, 4, 3, w, seed=9)
        per_class = [ds.frames[ds.labels == c].sum(axis=0) for c in (0, 1)]
        np.testing.assert_array_equal(per_class[0], per_class[1])

    def test_default_bar_width(self):
        ds = synth_events("two-class-motion", 2, 2, 3, 12, seed=0)
        # w // 6 = 2 columns lit per frame
        assert int(ds.frames[0, 0, 0, 0].sum()) == 2

    def test_bad_arguments(self):
        with pytest.raises(ConfigError, match="unknown synthetic kind"):
            synth_events("drifting-dot", 4, 4, 5, 5)
        with pytest.raises(ConfigError, match="T >= 2"):
            synth_events("moving-bar", 4, 1, 5, 5)
        with pytest.raises(ConfigError, match="bad extents"):
            synth_events("moving-bar", 4, 4, 5, 1)


class TestTransformParsing:
    def test_parse_values(self):
        flip, translate, norm = parse_transforms(
            ("flip(0.5)", "translate(0.0195,0.0391)", "normalize(0.5,0.25)"))
        assert flip == Transform("flip", (0.5,))
        assert translate == Transform("translate", (0.0195, 0.0391))
        assert norm == Transform("normalize", (0.5, 0.25))

    def test_single_arg_normalize_duplicates_mean_into_std(self):
        (norm,) = parse_transforms(("normalize(0.5)",))
        assert norm.args == (0.5, 0.5)

    def test_render_round_trip(self):
        specs = ("flip(0.5)", "translate(0.0195,0.0391)", "normalize(0.5,0.5)")
        transforms = parse_transforms(specs)
        assert render_transforms(transforms) == specs
        assert parse_transforms(render_transforms(transforms)) == transforms

    def test_blank_entries_are_skipped(self):
        assert parse_transforms(("", "  ")) == ()

    @pytest.mark.parametrize("spec,match", [
        ("flip 0.5", "malformed transform"),
        ("rotate(3)", "unknown transform"),
        ("flip()", "takes 1..1 args"),
        ("translate(0.1)", "takes 2..2 args"),
        ("flip(x)", "non-numeric"),
        ("flip(1.5)", "probability"),
        ("translate(0.5,1.0)", "fractions"),
        ("normalize(0.5,0)", "std"),
    ])
    def test_rejections(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            parse_transforms((spec,))


class TestAugment:
    def test_flip_probability_one_is_an_involution(self):
        x = np.random.default_rng(0).random((4, 1, 5, 5)).astype(np.float32)
        tr = parse_transforms(("flip(1)",))
        rng = np.random.default_rng(1)
        once = augment(x, tr, rng)
        np.testing.assert_array_equal(once, x[..., ::-1])
        twice = augment(once, tr, rng)
        np.testing.assert_array_equal(twice, x)

    def test_flip_probability_zero_is_identity(self):
        x = np.random.default_rng(0).random((4, 1, 5, 5)).astype(np.float32)
        out = augment(x, parse_transforms(("flip(0)",)), np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)

    def test_flip_decisions_are_per_sample(self):
        x = np.random.default_rng(2).random((64, 1, 4, 4)).astype(np.float32)
        out = augment(x, parse_transforms(("flip(0.5)",)), np.random.default_rng(3))
        flipped = [bool(np.array_equal(out[i], x[i, ..., ::-1])
                        and not np.array_equal(out[i], x[i]))
                   for i in range(64)]
        kept = [bool(np.array_equal(out[i], x[i])) for i in range(64)]
        assert any(flipped) and any(kept)
        assert all(f or k for f, k in zip(flipped, kept))

    def test_flip_is_shared_across_time_for_framed_batches(self):
        frames = np.random.default_rng(4).random((3, 4, 2, 5, 5)).astype(np.float32)
        out = augment(frames, parse_transforms(("flip(1)",)), np.random.default_rng(0))
        np.testing.assert_array_equal(out, frames[..., ::-1])

    def test_translate_zero_is_identity(self):
        x = np.random.default_rng(5).random((4, 1, 8, 8)).astype(np.float32)
        out = augment(x, parse_transforms(("translate(0,0)",)),
                      np.random.default_rng(6))
        np.testing.assert_array_equal(out, x)

    def test_translate_moves_pixels_and_zero_fills(self):
        n, hw = 6, 9
        x = np.zeros((n, 1, hw, hw), dtype=np.float32)
        x[:, 0, 4, 4] = 1.0
        tr = parse_transforms(("translate(0.25,0.25)",))
        out = augment(x, tr, np.random.default_rng(7))
        replay = np.random.default_rng(7)
        dxs = replay.integers(-2, 3, size=n)
        dys = replay.integers(-2, 3, size=n)
        for i in range(n):
            expected = np.zeros((hw, hw), dtype=np.float32)
            expected[4 + dys[i], 4 + dxs[i]] = 1.0
            np.testing.assert_array_equal(out[i, 0], expected)

    def test_normalize_is_exact(self):
        x = np.full((2, 1, 3, 3), 0.5, dtype=np.float32)
        out = augment(x, parse_transforms(("normalize(0.5,0.5)",)),
                      np.random.default_rng(0))
        np.testing.assert_array_equal(out, 0.0)
        out1 = augment(x, parse_transforms(("normalize(0.5)",)),
                       np.random.default_rng(0))
        np.testing.assert_array_equal(out1, 0.0)

    def test_input_batch_is_not_mutated(self):
        x = np.random.default_rng(8).random((4, 1, 5, 5)).astype(np.float32)
        keep = x.copy()
        augment(x, parse_transforms(("flip(1)", "normalize(0.5,0.5)")),
                np.random.default_rng(9))
        np.testing.assert_array_equal(x, keep)

    def test_bad_rank_rejected(self):
        with pytest.raises(ShapeError, match="4-D or 5-D"):
            augment(np.zeros((3, 3)), parse_transforms(("flip(1)",)),
                    np.random.default_rng(0))

    def test_unknown_transform_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown transform"):
            augment(np.zeros((1, 1, 3, 3), dtype=np.float32),
                    (Transform("rotate", (90.0,)),), np.random.default_rng(0))


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = [{"epoch": "0", "loss": "1.5"}, {"epoch": "1", "loss": "1.25"}]
        write_csv(tmp_path / "t.csv", rows)
        assert read_csv(tmp_path / "t.csv") == rows

    def test_explicit_fieldnames_allow_empty_tables(self, tmp_path):
        write_csv(tmp_path / "t.csv", [], fieldnames=["a", "b"])
        assert read_csv(tmp_path / "t.csv") == []
        with pytest.raises(DataFormatError, match="empty table"):
            write_csv(tmp_path / "u.csv", [])

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetNotFound):
            read_csv(tmp_path / "absent.csv")

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        """A writer that fails part-way leaves the previous file byte for
        byte and no temporary file beside it."""
        path = tmp_path / "t.csv"
        write_csv(path, [{"a": "1", "b": "2"}])
        before = path.read_bytes()
        # DictWriter raises on the second row, after the header and first row
        with pytest.raises(ValueError):
            write_csv(path, [{"a": "3", "b": "4"}, {"a": "5", "c": "6"}],
                      fieldnames=["a", "b"])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

        arch = "c4k3s1p1-BN-LIF-AP-FC2"
        writers = {  # file name -> (first write, failing second write)
            "set.evt": (lambda p: save_events(p, synth_events("moving-bar", 4, 2, 6, 6)),
                        lambda p: save_events(p, synth_events("moving-bar", 6, 3, 6, 6))),
            "images.idx": (lambda p: save_idx_images(p, sample_images(seed=0)),
                           lambda p: save_idx_images(p, sample_images(n=6, seed=1))),
            "labels.idx": (lambda p: save_idx_labels(p, np.arange(4)),
                           lambda p: save_idx_labels(p, np.arange(6))),
            "exp.cfg": (lambda p: save_config(p, experiment_defaults("mnist", arch)),
                        lambda p: save_config(p, experiment_defaults("mnist", arch,
                                                                     seed=9))),
        }
        for name, (first, second) in writers.items():
            directory = tmp_path / name.replace(".", "_")
            directory.mkdir()
            path = directory / name
            first(path)
            before = path.read_bytes()
            with monkeypatch.context() as m:
                m.setattr(orsnn.data, "open", FullDisk, raising=False)
                with pytest.raises(OSError):
                    second(path)
            assert path.read_bytes() == before, name
            assert [p.name for p in directory.iterdir()] == [name]
