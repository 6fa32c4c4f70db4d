"""Tests for the NVTX weight container and corpus files."""

import json
import os
import re
import struct
import tracemalloc
from dataclasses import fields, replace
from typing import get_origin, get_type_hints

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
from nvtransformer.model import _build, sites
from nvtransformer.nvib import EmpiricalPrior, TauConfig
from nvtransformer.serialize import MAGIC, VERSION, _CONFIG_FIELDS, _Reader, _tensor_items


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

    def test_int_valued_priors_save_load_save_byte_identical(self, tmp_path):
        config = ModelConfig(vocab=5, dim=2, heads=1, layers_enc=1, layers_dec=1)
        priors = [
            EmpiricalPrior(np.array([1, 2]), np.array([1, 3]), 1, 0, group, 0)
            for group in ("encoder", "cross", "decoder")
        ]
        p1 = tmp_path / "a.nvtx"
        p2 = tmp_path / "b.nvtx"
        save_weights(str(p1), reinterpret(init_weights(config, 0), priors, TauConfig()))
        save_weights(str(p2), load_weights(str(p1)))
        assert p1.read_bytes() == p2.read_bytes()


class TestFileLayout:
    """The writer derives names and order from the parameter tree; these
    pin the result, so a reordered dataclass field cannot silently change
    every saved file."""

    ONE_BY_ONE = ModelConfig(
        vocab=5, dim=2, heads=1, layers_enc=1, layers_dec=1, ffn_dim=3, max_len=4
    )

    def test_tensor_names_in_file_order(self):
        w = init_weights(self.ONE_BY_ONE, seed=0)
        attn = ["wq", "wk", "wv", "bq", "bk", "bv"]
        ffn = ["w1", "b1", "w2", "b2"]
        assert [name for name, _ in _tensor_items(w)] == [
            "tok_emb", "pos_enc",
            "enc.0.ln1.g", "enc.0.ln1.b",
            *[f"enc.0.self.{n}" for n in attn],
            "enc.0.ln2.g", "enc.0.ln2.b",
            *[f"enc.0.ffn.{n}" for n in ffn],
            "enc.final_ln.g", "enc.final_ln.b",
            "dec.0.ln1.g", "dec.0.ln1.b",
            *[f"dec.0.causal.{n}" for n in attn],
            "dec.0.ln2.g", "dec.0.ln2.b",
            *[f"dec.0.cross.{n}" for n in attn],
            "dec.0.ln3.g", "dec.0.ln3.b",
            *[f"dec.0.ffn.{n}" for n in ffn],
            "dec.final_ln.g", "dec.final_ln.b",
            "out.w", "out.b",
        ]

    def test_twin_tail_bytes(self, tmp_path):
        w = _build(self.ONE_BY_ONE, lambda name, shape, _: np.ones(shape))
        priors = [  # handed over out of site order
            EmpiricalPrior(np.array([0.1, -2.0]), np.array([0.5, 3.0]), 1.25, 0.0,
                           "decoder", 0),
            EmpiricalPrior(np.array([1.0, 0.0]), np.array([1e-06, 2.5]), -0.5, 0.75,
                           "encoder", 0),
            EmpiricalPrior(np.array([-0.3, 7.0]), np.array([1.0, 1.0]), 2.0, 1.5,
                           "cross", 0),
        ]
        taus = TauConfig(-15.0, 0.1, 10.0, 1e-38, 0.25, 0.5)
        path = tmp_path / "twin.nvtx"
        save_weights(str(path), reinterpret(w, priors, taus))
        tail = (
            b'{"kind":"nv","priors":['
            b'{"epsilon_alpha":0.75,"layer_group":"encoder","layer_id":0,'
            b'"log_alpha0_p":-0.5,"mu_p":[1.0,0.0],"sigma_p":[1e-06,2.5]},'
            b'{"epsilon_alpha":1.5,"layer_group":"cross","layer_id":0,'
            b'"log_alpha0_p":2.0,"mu_p":[-0.3,7.0],"sigma_p":[1.0,1.0]},'
            b'{"epsilon_alpha":0.0,"layer_group":"decoder","layer_id":0,'
            b'"log_alpha0_p":1.25,"mu_p":[0.1,-2.0],"sigma_p":[0.5,3.0]}],'
            b'"taus":{"tau_alpha_cross":0.1,"tau_alpha_dec":10.0,'
            b'"tau_alpha_enc":-15.0,"tau_sigma_cross":0.25,"tau_sigma_dec":0.5,'
            b'"tau_sigma_enc":1e-38}}'
        )
        assert path.read_bytes().endswith(struct.pack("<Q", len(tail)) + tail)


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

    def test_rejects_file_cut_after_the_reader_took_its_size(
        self, tmp_path, toy_model, monkeypatch
    ):
        # lengths are checked against the size the reader took on opening; a
        # file cut after that is refused by the read that comes up short,
        # here 8 bytes into the first tensor's payload
        path = tmp_path / "m.nvtx"
        save_weights(str(path), toy_model)
        name, arr = next(iter(_tensor_items(toy_model)))
        cut = len(MAGIC) + 4 * (len(_CONFIG_FIELDS) + 2) + 4 + len(name) + 4 + 4 * arr.ndim + 8
        take_size = _Reader.__init__

        def take_size_then_cut(self, fh):
            take_size(self, fh)
            os.truncate(path, cut)

        monkeypatch.setattr(_Reader, "__init__", take_size_then_cut)
        with pytest.raises(WeightFormatError, match="^truncated weight file$") as refusal:
            load_weights(str(path))
        assert refusal.traceback[-1].name == "floats"

    def test_rejects_rank_above_numpy_limit(self, tmp_path):
        # 65 dims of size 1 claim an 8-byte payload, which the file holds,
        # but NumPy cannot make an array of that rank
        path = tmp_path / "rank.nvtx"
        path.write_bytes(
            minimal_header(n_tensors=1) + tensor_header("tok_emb", (1,) * 65)
            + bytes(64)
        )
        with pytest.raises(WeightFormatError, match="'tok_emb' has rank 65 > 64"):
            load_weights(str(path))


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


    def test_rejects_name_that_is_not_utf8(self, tmp_path, toy_model):
        path = tmp_path / "m.nvtx"
        save_weights(str(path), toy_model)
        raw = bytearray(path.read_bytes())
        raw[raw.index(b"tok_emb")] = 0xFF
        bad = tmp_path / "name.nvtx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(WeightFormatError, match="not UTF-8"):
            load_weights(str(bad))


class TestNonFiniteTensors:
    # one bad entry in one tensor, the other tensors as saved
    @pytest.mark.parametrize(
        "name, bad", [("enc.0.self.wq", np.nan), ("out.b", -np.inf)]
    )
    def test_rejects_non_finite_tensor(self, tmp_path, toy_model, name, bad):
        items = []
        for n, arr in _tensor_items(toy_model):
            if n == name:
                arr = arr.copy()
                arr.flat[arr.size // 2] = bad
            items.append((n, arr))
        path = tmp_path / "bad.nvtx"
        path.write_bytes(nvtx_bytes(items, toy_model.config))
        with pytest.raises(WeightFormatError, match=f"tensor '{name}' has non-finite"):
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

    def test_rejects_zero_heads_config(self, tmp_path):
        buf = bytearray(minimal_header())
        buf[16:20] = struct.pack("<I", 0)  # magic, version, vocab, dim, heads
        path = tmp_path / "cfg.nvtx"
        path.write_bytes(bytes(buf))
        with pytest.raises(
            WeightFormatError, match="invalid config block: heads must be positive"
        ):
            load_weights(str(path))

    def test_rejects_config_past_the_weight_bound_before_reading_tensors(self, tmp_path):
        # max_len 10**9 at d 16 would be 1.6e10 weights; the header alone is refused
        buf = bytearray(minimal_header())
        buf[32:36] = struct.pack("<I", 10**9)  # magic, version, six fields, max_len
        path = tmp_path / "cfg.nvtx"
        path.write_bytes(bytes(buf))
        with pytest.raises(WeightFormatError, match="invalid config block: .* MAX_WEIGHTS"):
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

    @pytest.mark.parametrize("kind", ["standard", "nv"])
    def test_rejects_bytes_after_json_tail(self, tmp_path, toy_model, toy_priors, kind):
        model = toy_model if kind == "standard" else reinterpret(
            toy_model, toy_priors, TauConfig()
        )
        path = tmp_path / "m.nvtx"
        save_weights(str(path), model)
        bad = tmp_path / "padded.nvtx"
        bad.write_bytes(path.read_bytes() + b"garbage")
        with pytest.raises(WeightFormatError, match="7 trailing bytes"):
            load_weights(str(bad))

    def test_every_prefix_is_truncated_and_one_byte_more_trails(self, tmp_path):
        # a twin small enough to cut at every byte: header, each tensor's
        # name, rank, dims and payload, the tail's length and its JSON
        config = ModelConfig(vocab=3, dim=8, heads=2, layers_enc=1, layers_dec=1,
                             ffn_dim=1, max_len=1)
        priors = [EmpiricalPrior(np.full(8, 0.5), np.ones(8), 1.0, 0.25, *site)
                  for site in sites(config)]
        path = tmp_path / "twin.nvtx"
        save_weights(str(path), reinterpret(init_weights(config, 0), priors, TauConfig()))
        with open(path, "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(WeightFormatError, match="^1 trailing bytes after the JSON tail$"):
            load_weights(str(path))
        refusals = set()
        for n in reversed(range(path.stat().st_size - 1)):
            os.truncate(path, n)  # cut in place: a write per prefix would take longer
            try:
                load_weights(str(path))
            except WeightFormatError as e:
                refusals.add(str(e))
            else:
                pytest.fail(f"the {n}-byte prefix loaded")
        # a cut JSON tail is refused as every other cut is
        assert refusals == {"truncated weight file"}

    def test_rejects_unknown_kind(self, with_tail, toy_model):
        # a tail that is no JSON object has no kind to read
        for edit, want in [
            ({("kind",): "stendard"}, "kind"),
            (lambda tail: "[1]", "JSON tail is a list, not an object"),
        ]:
            with pytest.raises(WeightFormatError, match=want):
                load_weights(with_tail(toy_model, edit))

    @pytest.mark.parametrize("fault", ["missing site", "wrong width"])
    def test_rejects_priors_that_do_not_fit_the_model(
        self, with_tail, toy_model, toy_priors, fault
    ):
        def edit(tail):
            if fault == "missing site":
                tail["priors"].pop()
            else:
                for key in ("mu_p", "sigma_p"):
                    tail["priors"][0][key] = tail["priors"][0][key][:8]

        bad = with_tail(reinterpret(toy_model, toy_priors, TauConfig()), edit)
        want = "missing" if fault == "missing site" else "dimension"
        with pytest.raises(WeightFormatError, match=f"bad NV tail: .*{want}"):
            load_weights(bad)

    def test_save_rejects_other_types(self, tmp_path):
        with pytest.raises(TypeError, match="serialise"):
            save_weights(str(tmp_path / "x.nvtx"), {"not": "a model"})


class TestMemory:
    """Save and load go tensor by tensor, each payload written from its
    array's buffer or read into its array: on the wide config a whole-file
    buffer (21 MB) or a copy of one tensor would show in the traced peak.
    Measured with CPython 3.11 and NumPy 2.4: saving the twin peaks at
    371 KB, most of it the JSON tail, and loading the plain model at 132 KB
    above the 21.0 MB of arrays it returns.  A `tobytes` copy of each
    payload written puts the save's peak at 579 KB, and a copy of each
    payload read puts the load's at 576 KB above the arrays."""

    WIDE = ModelConfig(vocab=512, dim=128, heads=8, layers_enc=6, layers_dec=6,
                       ffn_dim=512, max_len=128)

    def test_save_and_load_peaks(self, tmp_path):
        w = init_weights(self.WIDE, 0)
        tensors = [arr.nbytes for _, arr in _tensor_items(w)]
        priors = [EmpiricalPrior(np.zeros(128), np.ones(128), 1.0, 0.5, *site)
                  for site in sites(self.WIDE)]
        twin = reinterpret(w, priors, TauConfig())
        path = str(tmp_path / "wide.nvtx")
        save_weights(path, w)  # the config's tensor names are made once, here
        tracemalloc.start()
        try:
            save_weights(str(tmp_path / "twin.nvtx"), twin)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = load_weights(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak < max(tensors)
        assert load_peak < sum(tensors) + max(tensors) // 2
        assert back.config == self.WIDE


# the twin tail's objects, each at its path with its fields' annotations,
# read from the dataclasses as `serialize` reads them
TAIL_OBJECTS = {
    (): {"kind": str, "taus": TauConfig, "priors": list[EmpiricalPrior]},
    ("taus",): get_type_hints(TauConfig),
    ("priors", 0): get_type_hints(EmpiricalPrior),
}
# a JSON value of each type; "1" is a string that int() and float() read
JSON_VALUES = {"null": None, "true": True, "string": "1", "list": [1.0], "object": {}}


def json_type(tp) -> str:
    """The JSON type a tail value of annotation `tp` is written as."""
    if tp in (float, int):
        return "number"
    if tp is str:
        return "string"
    return "list" if tp is np.ndarray or get_origin(tp) is list else "object"


def wrong_typed_values():
    """(path, field name, value) for each JSON value of another type than a
    tail field's annotation, or an array item's, reads: every other JSON
    type, a fraction or an infinity for an integer, an integer past float
    range for a float."""
    for at, fields in TAIL_OBJECTS.items():
        for name, tp in fields.items():
            slots = [((*at, name), tp)]
            if tp is np.ndarray:  # a list of floats
                slots.append(((*at, name, 0), float))
            for path, slot in slots:
                values = [(k, v) for k, v in JSON_VALUES.items() if k != json_type(slot)]
                if slot is int:
                    values += [("fraction", 1.5), ("Infinity", float("inf"))]
                if slot is float:
                    values.append(("1e400", 10**400))
                for label, value in values:
                    case_id = ".".join(map(str, path)) + "=" + label
                    yield pytest.param(path, name, value, id=case_id)


# the values of another Python type each tail dataclass field may be given
# in-process, by the field's annotation, each made from the field's own
# value: a bool, NumPy scalars of the field's kind, an int past float range,
# a one-element array for a number
PYTHON_VALUES = {
    float: {"np.float32": lambda old: np.float32(0.5), "np.int64": lambda old: np.int64(2),
            "1e400": lambda old: 10**400, "1-element-array": lambda old: np.array([old])},
    int: {"np.int64": np.int64, "np.float64": np.float64},
    str: {"np.str_": np.str_},
    np.ndarray: {"np.float64": lambda old: np.float64(0.5)},
}


def python_typed_values():
    """(tail object, field name, value maker) for each field of TauConfig
    and EmpiricalPrior: a bool, then each value of PYTHON_VALUES."""
    for at in (("taus",), ("priors", 0)):
        for name, tp in TAIL_OBJECTS[at].items():
            for label, make in {"bool": lambda old: True, **PYTHON_VALUES[tp]}.items():
                case_id = ".".join(map(str, at)) + f".{name}={label}"
                yield pytest.param(at[0], name, make, id=case_id)


class TestTailSchema:
    """The tail is read from its dataclasses' fields: each object holds
    exactly its fields, each once, each of its annotated JSON type."""

    @pytest.fixture()
    def twin(self, toy_model, toy_priors):
        return reinterpret(toy_model, toy_priors, TauConfig())

    @pytest.mark.parametrize(
        "where, key, fault",
        [
            ("top", "priors", "deleted"),
            ("top", "note", "unknown"),
            ("top", "kind", "repeated"),
            ("taus", "tau_alpha_enc", "deleted"),
            ("taus", "tau_alpha_all", "unknown"),
            ("taus", "tau_sigma_dec", "repeated"),
            ("prior", "epsilon_alpha", "deleted"),
            ("prior", "note", "unknown"),
            ("prior", "layer_id", "repeated"),
        ],
    )
    def test_refuses_a_deleted_unknown_or_repeated_key(
        self, with_tail, twin, where, key, fault
    ):
        # each used to load or fail on another count: a deleted dial at its
        # default, an unknown key ignored (but in taus), a repeated key at
        # its last value
        def edit(tail):
            obj = {"top": tail, "taus": tail["taus"], "prior": tail["priors"][0]}[where]
            if fault == "deleted":
                del obj[key]
            elif fault == "unknown":
                obj[key] = 1.0
            else:  # json.dumps writes a key once, so the twin is renamed in the text
                obj["@twin"] = obj[key]
                return json.dumps(tail).replace('"@twin"', json.dumps(key))

        word = {"deleted": "missing", "unknown": "unknown", "repeated": "repeated"}[fault]
        with pytest.raises(WeightFormatError, match=f"{word} key '{key}'"):
            load_weights(with_tail(twin, edit))

    @pytest.mark.parametrize("path, name, value", list(wrong_typed_values()))
    def test_wrong_json_type_is_refused_by_name(self, with_tail, twin, path, name, value):
        # an integer past float range was refused without its field's name
        want = "unknown model kind" if name == "kind" else f"bad NV tail: {name} must be "
        with pytest.raises(WeightFormatError, match=re.escape(want)):
            load_weights(with_tail(twin, {path: value}))

    @pytest.mark.parametrize(
        "path, value, want",
        [
            (("priors", 0, "log_alpha0_p"), float("nan"), "log_alpha0_p must be finite"),
            (("taus", "tau_alpha_dec"), float("nan"), "tau_alpha_dec must be finite"),
            (("priors", 0, "sigma_p", 0), 1e40, "sigma_p must be positive and within"),
            (("priors", 0, "sigma_p", 0), 1e-300, "sigma_p must be positive and within"),
            (("priors", 0, "sigma_p", 0), 1e300, "sigma_p squared overflows"),
            (("priors", 0, "mu_p", 0), 1e300, "sum(mu_p**2) overflows"),
            (("priors", 0, "epsilon_alpha"), -0.5, "epsilon_alpha must be nonnegative"),
            (("taus", "tau_sigma_cross"), 1e-39, "tau_sigma for cross below floor"),
        ],
        ids=["nan-prior", "nan-dial", "sigma_p-1e40", "sigma_p-1e-300", "sigma_p-square",
             "mu_p-square", "negative-epsilon_alpha", "dial-below-floor"],
    )
    def test_value_off_its_rule_is_refused(self, with_tail, twin, path, value, want):
        # of the right JSON type, but refused by the dataclass it builds
        with pytest.raises(WeightFormatError, match=re.escape(f"bad NV tail: {want}")):
            load_weights(with_tail(twin, {path: value}))

    def test_standard_tail_is_kind_alone(self, with_tail, toy_model):
        bad = with_tail(toy_model, {("taus",): {}})
        with pytest.raises(WeightFormatError, match="unknown key 'taus' in the tail"):
            load_weights(bad)

    def test_too_deeply_nested_tail_is_refused(self, with_tail, toy_model):
        # json.loads' RecursionError used to escape, so certify exited 1
        bad = with_tail(toy_model, lambda tail: "[" * 100_000)
        with pytest.raises(WeightFormatError, match="bad JSON tail: maximum recursion"):
            load_weights(bad)

    def test_weights_that_overflow_the_twin_are_refused(self, tmp_path, twin):
        # one finite 1e200 weight overflowed the twin's forms while loading
        path = tmp_path / "twin.nvtx"
        save_weights(str(path), twin)
        raw = bytearray(path.read_bytes())
        name = b"enc.0.self.wk"
        start = raw.index(name) + len(name) + 4 + 2 * 4  # rank and two dims
        raw[start : start + 8] = struct.pack("<d", 1e200)
        bad = tmp_path / "big.nvtx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(WeightFormatError, match="overflow encountered"):
            load_weights(str(bad))
        # a dial whose std overflows by design is clamped, not refused
        huge = reinterpret(twin.base, twin.priors, TauConfig.uniform(10.0, 1e308))
        save_weights(str(path), huge)
        assert load_weights(str(path)).taus == huge.taus

    @pytest.mark.parametrize("at, name, make", list(python_typed_values()))
    def test_value_is_refused_by_name_or_round_trips(self, tmp_path, twin, at, name, make):
        # a bool dial or layer_id saved a file that load_weights refused,
        # a NumPy scalar made save_weights raise a TypeError, and a dial
        # past float range raised a TypeError naming no field
        taus, priors = twin.taus, list(twin.priors)
        try:
            if at == "taus":
                taus = replace(taus, **{name: make(getattr(taus, name))})
            else:
                priors[0] = replace(priors[0], **{name: make(getattr(priors[0], name))})
        except ValueError as err:
            assert name in str(err)
            return
        made = reinterpret(twin.base, priors, taus)
        save_weights(str(tmp_path / "twin.nvtx"), made)
        back = load_weights(str(tmp_path / "twin.nvtx"))
        assert back.taus == made.taus
        for got, want in zip(back.priors, made.priors, strict=True):
            for f in fields(want):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


# (sequences, write_corpus' refusal of them, or None where they round-trip)
WRITTEN_CORPORA = {
    "ids": ([[3, 4, 5], [9], [30, 31, 32, 33]], None),
    "numpy-ids": ([np.array([7, 8]), [np.int64(9)]], None),
    "empty-sequence": ([[5], [], [6, 7]], "sequence 1 is empty"),
    "bool-and-float": ([[True, 2.7]], "sequence 0 must be an integer, got True"),
    "float": ([[3], [4, 2.0]], "sequence 1 must be an integer, got 2.0"),
    "numpy-float": ([[3], np.array([4.0])], "sequence 1 must be an integer"),
    "negative": ([[3], [4, -1]], "a token id of sequence 1 must be nonnegative, got -1"),
    "numpy-negative": ([np.array([5, -2])], "sequence 0 must be nonnegative, got -2"),
}


class TestCorpus:
    @pytest.mark.parametrize("seqs, refusal", WRITTEN_CORPORA.values(), ids=WRITTEN_CORPORA)
    def test_written_corpus_reads_back_or_is_refused(self, tmp_path, seqs, refusal):
        # an empty sequence once read back as none, shifting later indices,
        # and [True, 2.7] as [1, 2]
        path = tmp_path / "c.txt"
        if refusal is None:
            write_corpus(str(path), seqs)
            assert read_corpus(str(path)) == [list(s) for s in seqs]
        else:
            with pytest.raises(ValueError, match=refusal):
                write_corpus(str(path), seqs)
            assert not path.exists()

    def test_round_trip(self, tmp_path):
        seqs = [[3, 4, 5], [9], [30, 31, 32, 33]]
        path = tmp_path / "c.txt"
        write_corpus(str(path), seqs)
        assert read_corpus(str(path)) == seqs

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("3 4 5\n\n  \n9 10\n")
        assert read_corpus(str(path)) == [[3, 4, 5], [9, 10]]

    def test_non_utf8_line_is_corpus_error_named_by_line(self, tmp_path):
        # \r, \r\n and \n each end a line, as text mode reads them
        path = tmp_path / "c.txt"
        path.write_bytes(b"3 4\r5 6\r\n7\n")
        assert read_corpus(str(path)) == [[3, 4], [5, 6], [7]]
        path.write_bytes(b"3 4\r5 6\r\n7\n8 \xff9\n10\n")
        with pytest.raises(CorpusError, match="line 4: 'utf-8' codec can't decode"):
            read_corpus(str(path))

    def test_negative_id_is_corpus_error_named_by_line(self, tmp_path):
        # read back, -1 was a token id; a file names its line
        path = tmp_path / "c.txt"
        path.write_text("3 4\n\n5 -1 6\n")
        with pytest.raises(CorpusError, match="line 3: token ids must be nonnegative, got -1"):
            read_corpus(str(path))
        path.write_text("0 4\n")
        assert read_corpus(str(path)) == [[0, 4]]

    def test_non_integer_is_corpus_error(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("3 4\n5 six\n")
        with pytest.raises(CorpusError, match="line 2"):
            read_corpus(str(path))
