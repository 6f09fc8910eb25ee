"""Checkpoint binary format tests: byte layout, round trips, corruption."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from moonnet.attention import GateKind
from moonnet.backbone import Backbone, build_design
from moonnet.checkpoint import (
    MAGIC,
    META_PREFIX,
    BadMagicError,
    CheckpointError,
    CrcMismatchError,
    TruncatedError,
    bytes_to_tensor,
    load_checkpoint,
    save_checkpoint,
    tensor_to_bytes,
)
from moonnet.config import ExperimentConfig
from moonnet.train import PatchModel, load_model_checkpoint, save_model_checkpoint


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def header_offsets(tensors):
    """The file offsets of the count field and of every record's name
    length, name, rank and dims, for a checkpoint of ``tensors``."""
    offsets, off = list(range(len(MAGIC), len(MAGIC) + 4)), len(MAGIC) + 4
    for name, arr in tensors:
        n = 3 + len(name.encode()) + 4 * arr.ndim
        offsets += range(off, off + n)
        off += n + 4 * arr.size
    return offsets


def sample_tensors(seed=0):
    rng = np.random.default_rng(seed)
    return [
        ("stage0/conv/kernel", rng.standard_normal((4, 3, 3, 3)).astype(np.float32)),
        ("stage0/conv/bias", rng.standard_normal(4).astype(np.float32)),
        ("head/w", rng.standard_normal((1, 4, 1, 1)).astype(np.float32)),
    ]


class TestLayout:
    def test_starts_with_magic(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint(sample_tensors(), p)
        assert p.read_bytes()[:8] == MAGIC == b"MOONNET1"

    def test_count_field(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint(sample_tensors(), p)
        (count,) = struct.unpack_from("<I", p.read_bytes(), 8)
        assert count == 3

    def test_trailing_crc_valid(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint(sample_tensors(), p)
        data = p.read_bytes()
        (crc,) = struct.unpack("<I", data[-4:])
        assert crc == zlib.crc32(data[:-4]) & 0xFFFFFFFF

    def test_first_record_fields(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint(sample_tensors(), p)
        data = p.read_bytes()
        off = 12
        (name_len,) = struct.unpack_from("<H", data, off)
        off += 2
        name = data[off:off + name_len].decode()
        off += name_len
        rank = data[off]
        dims = struct.unpack_from(f"<{rank}I", data, off + 1)
        assert name == "stage0/conv/kernel"
        assert rank == 4 and dims == (4, 3, 3, 3)


class TestRoundTrip:
    def test_values_and_order_exact(self, tmp_path):
        p = tmp_path / "a.ckpt"
        tensors = sample_tensors()
        save_checkpoint(tensors, p)
        back = load_checkpoint(p)
        assert [n for n, _ in back] == [n for n, _ in tensors]
        for (_, a), (_, b) in zip(back, tensors):
            assert a.dtype == np.float32 and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(sample_tensors(), p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_model_load_copies_each_tensor_once(self, tmp_path):
        # the default model's tensors are read from the file straight into
        # the model: no buffer of the whole file is held beside them
        cfg = ExperimentConfig()
        p = tmp_path / "m.ckpt"
        save_model_checkpoint(PatchModel(cfg), cfg, p)
        (model, _, _), peak = traced_peak(load_model_checkpoint, p)
        nbytes = sum(a.nbytes for _, a in model.named_tensors())
        assert nbytes > 10_000_000
        assert peak <= 1.05 * nbytes, peak / nbytes

    def test_scalar_rank_zero(self, tmp_path):
        p = tmp_path / "s.ckpt"
        save_checkpoint([("lr", np.float32(0.01).reshape(()))], p)
        (name, arr) = load_checkpoint(p)[0]
        assert name == "lr" and arr.shape == () and arr == np.float32(0.01)

    def test_empty_list(self, tmp_path):
        p = tmp_path / "e.ckpt"
        save_checkpoint([], p)
        assert load_checkpoint(p) == []

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        p = tmp_path / "a.ckpt"
        save_checkpoint(sample_tensors(0), p)
        before = p.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("moonnet.checkpoint.os.replace", fail)
        with pytest.raises(OSError):
            save_checkpoint(sample_tensors(1), p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["a.ckpt"]

    @pytest.mark.parametrize("dtype", [np.float64, np.float16, np.int32])
    def test_non_float32_tensor_rejected_by_name(self, tmp_path, dtype):
        p = tmp_path / "a.ckpt"
        tensors = sample_tensors() + [("head/b", np.full(3, 0.1, dtype=dtype))]
        with pytest.raises(CheckpointError, match="'head/b'"):
            save_checkpoint(tensors, p)
        assert not p.exists()
        assert list(tmp_path.iterdir()) == []


class TestCorruption:
    def test_bad_magic(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint(sample_tensors(), p)
        data = bytearray(p.read_bytes())
        data[0] ^= 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            load_checkpoint(p)

    def test_flipped_payload_byte_is_crc_mismatch(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint(sample_tensors(), p)
        data = bytearray(p.read_bytes())
        data[40] ^= 0x01
        p.write_bytes(bytes(data))
        with pytest.raises(CrcMismatchError):
            load_checkpoint(p)

    def test_truncated_file(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint(sample_tensors(), p)
        p.write_bytes(p.read_bytes()[:6])
        with pytest.raises(TruncatedError):
            load_checkpoint(p)

    def test_non_utf8_name_is_checkpoint_error(self, tmp_path):
        p = tmp_path / "a.ckpt"
        save_checkpoint([("ok", np.ones(2, np.float32)), ("ab", np.ones(2, np.float32))], p)
        data = p.read_bytes()[:-4]
        i = data.index(b"ab")
        data = data[:i] + b"\xff\xfe" + data[i + 2:]
        p.write_bytes(data + struct.pack("<I", zlib.crc32(data)))
        with pytest.raises(CheckpointError, match=r"tensor 1 has a non-UTF-8 name b'\\xff\\xfe'"):
            load_checkpoint(p)

    @staticmethod
    def _one_header(tmp_path, dims):
        """A CRC-valid file whose one tensor "t" has the given dims and no values."""
        body = (MAGIC + struct.pack("<IH", 1, 1) + b"t"
                + struct.pack(f"<B{len(dims)}I", len(dims), *dims))
        p = tmp_path / "a.ckpt"
        p.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        return p

    def test_rank_above_numpy_limit_is_checkpoint_error(self, tmp_path):
        p = self._one_header(tmp_path, [0] * 65)
        with pytest.raises(CheckpointError, match="tensor 't'.*found 65"):
            load_checkpoint(p)

    def test_too_many_elements_is_checkpoint_error(self, tmp_path):
        p = self._one_header(tmp_path, [0] + [2**32 - 1] * 3)
        with pytest.raises(CheckpointError, match="tensor 't'.*array is too big"):
            load_checkpoint(p)

    def test_fuzzed_header_or_truncation_loads_or_raises_checkpoint_error(self, tmp_path):
        """Seeded fuzz over a small saved model: flip one or two header bytes
        (the count, or a record's name length, name, rank or dims), or
        truncate the file.  The CRC is recomputed after each mutation, so
        every case reaches the parser."""
        design = build_design(5, gate=GateKind.RESIDUAL_TANH, ladder=(16, 32, 64, 128, 256),
                              width_multiplier=0.25, spatial_kernel=3)
        design.stages = design.stages[:2]
        tensors = Backbone(design, seed=0).named_tensors()
        p = tmp_path / "m.ckpt"
        save_checkpoint(tensors, p)
        body = p.read_bytes()[:-4]
        header, off = list(range(len(MAGIC), len(MAGIC) + 4)), len(MAGIC) + 4
        for name, arr in tensors:
            n = 3 + len(name.encode()) + 4 * arr.ndim
            header += range(off, off + n)
            off += n + 4 * arr.size
        rng = np.random.default_rng(0)
        for case in range(3000):
            data = bytearray(body)
            if case % 2:
                data = data[:rng.integers(len(data))]
            else:
                for i in rng.choice(header, size=rng.integers(1, 3)):
                    data[i] ^= int(rng.integers(1, 256))
            p.write_bytes(bytes(data) + struct.pack("<I", zlib.crc32(data)))
            try:
                load_checkpoint(p)
            except CheckpointError:
                pass

    def test_errors_share_base_class(self):
        for exc in (BadMagicError, CrcMismatchError, TruncatedError):
            assert issubclass(exc, CheckpointError)
            assert issubclass(exc, IOError)


class TestModelCheckpointCorruption:
    """Corruption of a tiny model's checkpoint, read by ``load_model_checkpoint``."""

    CFG = ExperimentConfig(width=0.0625, batch=2)

    def _saved(self, tmp_path):
        p = tmp_path / "m.ckpt"
        save_model_checkpoint(PatchModel(self.CFG), self.CFG, p)
        return p, load_checkpoint(p)

    def test_flipped_header_byte_is_crc_mismatch(self, tmp_path):
        """A sample of single header-byte flips, the count field's among them,
        with the CRC left as it was: each is reported as corruption, even
        where the parser or the model check fails first."""
        p, tensors = self._saved(tmp_path)
        data = p.read_bytes()
        offsets = header_offsets(tensors)
        rng = np.random.default_rng(0)
        for i in offsets[:4] + list(rng.choice(offsets[4:], size=300, replace=False)):
            flipped = bytearray(data)
            flipped[i] ^= int(rng.integers(1, 256))
            p.write_bytes(bytes(flipped))
            with pytest.raises(CrcMismatchError):
                load_model_checkpoint(p)

    def test_dims_past_the_end_is_truncated_before_any_allocation(self, tmp_path):
        """The config blob's dims claim 2^30 float32 values (4 GiB), more than
        the file holds: TruncatedError, with nothing of that size allocated."""
        p, _ = self._saved(tmp_path)
        body = bytearray(p.read_bytes()[:-4])
        dims_at = len(MAGIC) + 4 + 2 + len(META_PREFIX + "config") + 1
        struct.pack_into("<I", body, dims_at, 2**30)
        p.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))

        def load_fails():
            with pytest.raises(TruncatedError, match="tensor '__meta__/config' of shape"):
                load_model_checkpoint(p)

        _, peak = traced_peak(load_fails)
        assert peak < 1_000_000

    def test_duplicate_tensor_is_one_line_checkpoint_error(self, tmp_path):
        p, tensors = self._saved(tmp_path)
        save_checkpoint(tensors + tensors[-1:], p)
        for load in (load_model_checkpoint, load_checkpoint):
            with pytest.raises(CheckpointError, match=r"^[^\n]*duplicate tensor 'head/bias'$"):
                load(p)

    def test_fuzzed_header_or_truncation_loads_or_raises_checkpoint_error(self, tmp_path):
        """As the format-level fuzz above, through the model loader: one or two
        header bytes flipped, or the file truncated, with the CRC recomputed."""
        p, tensors = self._saved(tmp_path)
        body = p.read_bytes()[:-4]
        offsets = header_offsets(tensors)
        rng = np.random.default_rng(0)
        for case in range(500):
            data = bytearray(body)
            if case % 2:
                data = data[:rng.integers(len(data))]
            else:
                for i in rng.choice(offsets, size=rng.integers(1, 3)):
                    data[i] ^= int(rng.integers(1, 256))
            p.write_bytes(bytes(data) + struct.pack("<I", zlib.crc32(data)))
            try:
                load_model_checkpoint(p)
            except CheckpointError:
                pass


class TestMetadataBlobs:
    def test_bytes_round_trip_all_lengths(self):
        for n in range(0, 9):
            data = bytes(range(n))
            assert tensor_to_bytes(bytes_to_tensor(data)) == data

    def test_utf8_text_round_trip(self):
        text = "design_id=5\nwidth=0.25\n# gate é\n"
        arr = bytes_to_tensor(text.encode())
        assert arr.ndim == 1
        assert tensor_to_bytes(arr).decode() == text

    def test_blob_without_length_prefix_rejected(self):
        with pytest.raises(CheckpointError, match="no length prefix"):
            tensor_to_bytes(np.zeros(0, np.float32))

    def test_length_prefix_past_end_rejected(self):
        with pytest.raises(CheckpointError, match="runs past"):
            tensor_to_bytes(bytes_to_tensor(b"12345678")[:2])

    def test_blob_survives_checkpoint(self, tmp_path):
        p = tmp_path / "m.ckpt"
        blob = b"\x00\x01\xfe\xff json-ish {\"a\": 1}"
        save_checkpoint([("__meta__/raw", bytes_to_tensor(blob))], p)
        name, arr = load_checkpoint(p)[0]
        assert name == "__meta__/raw"
        assert tensor_to_bytes(arr) == blob
