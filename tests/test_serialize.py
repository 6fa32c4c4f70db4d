"""Tests for the NVTX weight container and corpus files."""

import json
import struct

import numpy as np
import pytest

from nvtransformer import (
    CorpusError,
    ModelConfig,
    ModelWeights,
    NvModel,
    WeightFormatError,
    forward_nv,
    forward_standard,
    init_weights,
    load_weights,
    read_corpus,
    reinterpret,
    save_weights,
    write_corpus,
)
from nvtransformer.nvib import TauConfig
from nvtransformer.serialize import MAGIC, VERSION, _CONFIG_FIELDS, _tensor_items


class TestStandardRoundTrip:
    def test_tensors_and_config_survive(self, tmp_path, toy_model):
        path = tmp_path / "m.nvtx"
        save_weights(str(path), toy_model)
        back = load_weights(str(path))
        assert isinstance(back, ModelWeights) and not isinstance(back, NvModel)
        assert back.config == toy_model.config
        np.testing.assert_array_equal(back.tok_emb, toy_model.tok_emb)
        np.testing.assert_array_equal(
            back.dec[1].cross_attn.wv, toy_model.dec[1].cross_attn.wv
        )
        np.testing.assert_array_equal(back.enc_ln.g, toy_model.enc_ln.g)

    def test_forward_is_bitwise_identical(self, tmp_path, toy_model):
        path = tmp_path / "m.nvtx"
        save_weights(str(path), toy_model)
        back = load_weights(str(path))
        a = forward_standard(toy_model, [3, 4, 5], [1, 6, 7])
        b = forward_standard(back, [3, 4, 5], [1, 6, 7])
        np.testing.assert_array_equal(a, b)

    def test_save_load_save_is_byte_identical(self, tmp_path, toy_model):
        p1 = tmp_path / "a.nvtx"
        p2 = tmp_path / "b.nvtx"
        save_weights(str(p1), toy_model)
        save_weights(str(p2), load_weights(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()


class TestNvRoundTrip:
    @pytest.fixture()
    def nv_model(self, toy_model, toy_priors):
        taus = TauConfig(tau_alpha_cross=3.5, tau_sigma_dec=0.125)
        return reinterpret(toy_model, toy_priors, taus)

    def test_kind_taus_priors_survive(self, tmp_path, nv_model):
        path = tmp_path / "m.nvtx"
        save_weights(str(path), nv_model)
        back = load_weights(str(path))
        assert isinstance(back, NvModel)
        assert back.taus == nv_model.taus
        assert len(back.priors) == len(nv_model.priors)
        for got, want in zip(back.priors, nv_model.priors):
            assert (got.layer_group, got.layer_id) == (
                want.layer_group,
                want.layer_id,
            )
            np.testing.assert_array_equal(got.mu_p, want.mu_p)
            np.testing.assert_array_equal(got.sigma_p, want.sigma_p)
            assert got.log_alpha0_p == want.log_alpha0_p
            assert got.epsilon_alpha == want.epsilon_alpha

    def test_forward_is_bitwise_identical(self, tmp_path, nv_model):
        path = tmp_path / "m.nvtx"
        save_weights(str(path), nv_model)
        back = load_weights(str(path))
        a = forward_nv(nv_model, [3, 4, 5], [1, 6])
        b = forward_nv(back, [3, 4, 5], [1, 6])
        np.testing.assert_array_equal(a, b)

    def test_save_load_save_is_byte_identical(self, tmp_path, nv_model):
        p1 = tmp_path / "a.nvtx"
        p2 = tmp_path / "b.nvtx"
        save_weights(str(p1), nv_model)
        save_weights(str(p2), load_weights(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()


def minimal_header(config=None, n_tensors=0):
    cfg = config or ModelConfig()
    buf = MAGIC + struct.pack("<I", VERSION)
    for name in _CONFIG_FIELDS:
        buf += struct.pack("<I", getattr(cfg, name))
    buf += struct.pack("<I", n_tensors)
    return buf


def tensor_header(name, shape):
    raw = name.encode()
    buf = struct.pack("<I", len(raw)) + raw + struct.pack("<I", len(shape))
    for dim in shape:
        buf += struct.pack("<I", dim)
    return buf


def nvtx_bytes(items, config):
    """A standard-model file holding the given (name, array) records."""
    buf = minimal_header(config, n_tensors=len(items))
    for name, arr in items:
        buf += tensor_header(name, arr.shape) + arr.astype("<f8").tobytes()
    tail = b'{"kind":"standard"}'
    return buf + struct.pack("<Q", len(tail)) + tail


class TestLengthChecks:
    """Header-claimed lengths are checked against the bytes left in the
    file before anything is read or allocated."""

    @pytest.mark.parametrize(
        "shape",
        [
            (65536,) * 4,           # 2**64 elements: a 64-bit product wraps to 0
            (4_000_000_000,) * 2,   # 1.6e19 elements, past the int64 range
            (2**30, 8),             # a 64 GiB payload
        ],
        ids=["wraps-to-zero", "past-int64", "64GiB"],
    )
    def test_rejects_payload_longer_than_file(self, tmp_path, shape):
        path = tmp_path / "dims.nvtx"
        path.write_bytes(
            minimal_header(n_tensors=1) + tensor_header("tok_emb", shape)
            + bytes(64)
        )
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(str(path))

    def test_rejects_json_tail_longer_than_file(self, tmp_path, toy_model):
        path = tmp_path / "m.nvtx"
        save_weights(str(path), toy_model)
        raw = path.read_bytes()
        start = raw.rindex(b'{"kind":"standard"}')
        bad = tmp_path / "tail.nvtx"
        bad.write_bytes(raw[: start - 8] + struct.pack("<Q", 2**62) + raw[start:])
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(str(bad))


class TestTensorNames:
    def test_rejects_duplicate_tensor(self, tmp_path, toy_model):
        items = list(_tensor_items(toy_model))
        items.insert(1, ("tok_emb", np.zeros_like(toy_model.tok_emb)))
        path = tmp_path / "dup.nvtx"
        path.write_bytes(nvtx_bytes(items, toy_model.config))
        with pytest.raises(WeightFormatError, match="duplicate tensor 'tok_emb'"):
            load_weights(str(path))

    def test_rejects_unknown_tensor(self, tmp_path, toy_model):
        items = list(_tensor_items(toy_model)) + [("enc.9.ln1.g", np.zeros(16))]
        path = tmp_path / "extra.nvtx"
        path.write_bytes(nvtx_bytes(items, toy_model.config))
        with pytest.raises(WeightFormatError, match="unknown tensor 'enc.9.ln1.g'"):
            load_weights(str(path))


class TestFormatErrors:
    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nvtx"
        path.write_bytes(b"XVTN" + b"\x00" * 64)
        with pytest.raises(WeightFormatError, match="magic"):
            load_weights(str(path))

    def test_rejects_truncated_file(self, tmp_path, toy_model):
        path = tmp_path / "m.nvtx"
        save_weights(str(path), toy_model)
        clipped = tmp_path / "clipped.nvtx"
        clipped.write_bytes(path.read_bytes()[:100])
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(str(clipped))

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "v9.nvtx"
        path.write_bytes(MAGIC + struct.pack("<I", 9) + b"\x00" * 32)
        with pytest.raises(WeightFormatError, match="version"):
            load_weights(str(path))

    def test_rejects_invalid_config(self, tmp_path):
        # heads = 3 does not divide dim = 16
        cfg_vals = dict(
            vocab=64, dim=16, heads=3, layers_enc=2, layers_dec=2,
            ffn_dim=32, max_len=32,
        )
        buf = MAGIC + struct.pack("<I", VERSION)
        for name in _CONFIG_FIELDS:
            buf += struct.pack("<I", cfg_vals[name])
        buf += struct.pack("<I", 0)
        path = tmp_path / "cfg.nvtx"
        path.write_bytes(buf)
        with pytest.raises(WeightFormatError, match="config"):
            load_weights(str(path))

    def test_rejects_missing_tensor(self, tmp_path):
        tail = json.dumps({"kind": "standard"}).encode()
        path = tmp_path / "empty.nvtx"
        path.write_bytes(
            minimal_header() + struct.pack("<Q", len(tail)) + tail
        )
        with pytest.raises(WeightFormatError, match="missing tensor"):
            load_weights(str(path))

    def test_rejects_wrong_tensor_shape(self, tmp_path):
        # the loader reads encoder tensors first, so give the very first
        # expected name a wrong shape
        name = b"enc.0.ln1.g"
        arr = np.zeros(3)
        tensor = (
            struct.pack("<I", len(name)) + name
            + struct.pack("<I", 1) + struct.pack("<I", 3)
            + arr.tobytes()
        )
        tail = json.dumps({"kind": "standard"}).encode()
        path = tmp_path / "shape.nvtx"
        path.write_bytes(
            minimal_header(n_tensors=1)
            + tensor
            + struct.pack("<Q", len(tail))
            + tail
        )
        with pytest.raises(WeightFormatError, match="shape"):
            load_weights(str(path))

    def test_rejects_corrupt_json_tail(self, tmp_path, toy_model):
        path = tmp_path / "m.nvtx"
        save_weights(str(path), toy_model)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        bad = tmp_path / "tail.nvtx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(WeightFormatError, match="JSON tail"):
            load_weights(str(bad))

    def test_rejects_unknown_kind(self, tmp_path, toy_model):
        path = tmp_path / "m.nvtx"
        save_weights(str(path), toy_model)
        raw = path.read_bytes()
        # same-length substitution keeps the tail length prefix valid
        swapped = raw.replace(b'{"kind":"standard"}', b'{"kind":"stendard"}')
        bad = tmp_path / "kind.nvtx"
        bad.write_bytes(swapped)
        with pytest.raises(WeightFormatError, match="kind"):
            load_weights(str(bad))

    def test_save_rejects_other_types(self, tmp_path):
        with pytest.raises(TypeError, match="serialise"):
            save_weights(str(tmp_path / "x.nvtx"), {"not": "a model"})


class TestCorpus:
    def test_round_trip(self, tmp_path):
        seqs = [[3, 4, 5], [9], [30, 31, 32, 33]]
        path = tmp_path / "c.txt"
        write_corpus(str(path), seqs)
        assert read_corpus(str(path)) == seqs

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("3 4 5\n\n  \n9 10\n")
        assert read_corpus(str(path)) == [[3, 4, 5], [9, 10]]

    def test_non_integer_is_corpus_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("3 4\n5 six\n")
        with pytest.raises(CorpusError, match="line 2"):
            read_corpus(str(path))
