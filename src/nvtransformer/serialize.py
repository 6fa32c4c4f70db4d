"""NVTX weight container and corpus text files.

Layout (all integers little-endian):

    magic   4 bytes  b"NVTX"
    version u32      currently 1
    config  7 x u32  vocab, dim, heads, layers_enc, layers_dec, ffn_dim,
                     max_len
    count   u32      number of named tensors
    tensor  u32 name length, utf-8 name, u32 rank, u32 dims..., float64
                     row-major payload
    tail    u64 length, utf-8 JSON

The JSON tail distinguishes plain weights ({"kind": "standard"}) from a
reinterpreted model, which adds the dials and the per-site priors.  Floats
survive the JSON round trip bit-exactly (shortest-repr encoding), and the
tensor order is fixed, so save -> load -> save reproduces the file byte for
byte.  The reader refuses missing, misshapen, duplicate and unknown tensors,
and any length that claims more bytes than the file has left.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
from typing import BinaryIO, Iterator

import numpy as np

from .attention import AttentionParams
from .errors import CorpusError, WeightFormatError
from .model import (
    DecoderLayer,
    EncoderLayer,
    FfnParams,
    LayerNormParams,
    ModelConfig,
    ModelWeights,
    NvModel,
    reinterpret,
)
from .nvib import EmpiricalPrior, TauConfig

__all__ = [
    "MAGIC",
    "VERSION",
    "save_weights",
    "load_weights",
    "read_corpus",
    "write_corpus",
]

MAGIC = b"NVTX"
VERSION = 1

# header order is the ModelConfig field order
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(ModelConfig))


def _attn_items(prefix: str, p: AttentionParams) -> Iterator[tuple[str, np.ndarray]]:
    for name in ("wq", "wk", "wv", "bq", "bk", "bv"):
        yield f"{prefix}.{name}", getattr(p, name)


def _ln_items(prefix: str, p: LayerNormParams) -> Iterator[tuple[str, np.ndarray]]:
    yield f"{prefix}.g", p.g
    yield f"{prefix}.b", p.b


def _ffn_items(prefix: str, p: FfnParams) -> Iterator[tuple[str, np.ndarray]]:
    for name in ("w1", "b1", "w2", "b2"):
        yield f"{prefix}.{name}", getattr(p, name)


def _tensor_items(w: ModelWeights) -> Iterator[tuple[str, np.ndarray]]:
    """Every tensor in its canonical serialisation order."""
    yield "tok_emb", w.tok_emb
    yield "pos_enc", w.pos_enc
    for i, lay in enumerate(w.enc):
        yield from _ln_items(f"enc.{i}.ln1", lay.ln1)
        yield from _attn_items(f"enc.{i}.self", lay.self_attn)
        yield from _ln_items(f"enc.{i}.ln2", lay.ln2)
        yield from _ffn_items(f"enc.{i}.ffn", lay.ffn)
    yield from _ln_items("enc.final_ln", w.enc_ln)
    for i, lay in enumerate(w.dec):
        yield from _ln_items(f"dec.{i}.ln1", lay.ln1)
        yield from _attn_items(f"dec.{i}.causal", lay.causal_attn)
        yield from _ln_items(f"dec.{i}.ln2", lay.ln2)
        yield from _attn_items(f"dec.{i}.cross", lay.cross_attn)
        yield from _ln_items(f"dec.{i}.ln3", lay.ln3)
        yield from _ffn_items(f"dec.{i}.ffn", lay.ffn)
    yield from _ln_items("dec.final_ln", w.dec_ln)
    yield "out.w", w.w_out
    yield "out.b", w.b_out


def _prior_to_json(p: EmpiricalPrior) -> dict:
    return {
        "layer_group": p.layer_group,
        "layer_id": p.layer_id,
        "mu_p": [float(v) for v in p.mu_p],
        "sigma_p": [float(v) for v in p.sigma_p],
        "log_alpha0_p": float(p.log_alpha0_p),
        "epsilon_alpha": float(p.epsilon_alpha),
    }


def _prior_from_json(obj: dict) -> EmpiricalPrior:
    return EmpiricalPrior(
        mu_p=np.asarray(obj["mu_p"], dtype=np.float64),
        sigma_p=np.asarray(obj["sigma_p"], dtype=np.float64),
        log_alpha0_p=float(obj["log_alpha0_p"]),
        epsilon_alpha=float(obj["epsilon_alpha"]),
        layer_group=obj["layer_group"],
        layer_id=int(obj["layer_id"]),
    )


def save_weights(path: str, model: ModelWeights | NvModel) -> None:
    """Write a ModelWeights or NvModel to an NVTX file."""
    if isinstance(model, NvModel):
        w = model.base
        tail = {
            "kind": "nv",
            "taus": dataclasses.asdict(model.taus),
            "priors": [_prior_to_json(p) for p in model.priors],
        }
    elif isinstance(model, ModelWeights):
        w = model
        tail = {"kind": "standard"}
    else:
        raise TypeError(f"cannot serialise {type(model).__name__}")

    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        for name in _CONFIG_FIELDS:
            fh.write(struct.pack("<I", getattr(w.config, name)))
        items = list(_tensor_items(w))
        fh.write(struct.pack("<I", len(items)))
        for name, arr in items:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        blob = json.dumps(tail, sort_keys=True, separators=(",", ":")).encode()
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)


class _Reader:
    """Reads a file front to back; a read longer than the bytes left is
    refused before anything is allocated for it."""

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.left = os.fstat(fh.fileno()).st_size

    def exact(self, n: int) -> bytes:
        buf = self.fh.read(n) if n <= self.left else b""
        if len(buf) != n:
            raise WeightFormatError("truncated weight file")
        self.left -= n
        return buf

    def u32(self) -> int:
        return struct.unpack("<I", self.exact(4))[0]


def _expect(tensors: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    if name not in tensors:
        raise WeightFormatError(f"missing tensor {name!r}")
    arr = tensors[name]
    if arr.shape != shape:
        raise WeightFormatError(
            f"tensor {name!r} has shape {arr.shape}, expected {shape}"
        )
    return arr


def _load_attn(tensors, prefix: str, d: int, h: int) -> AttentionParams:
    return AttentionParams(
        wq=_expect(tensors, f"{prefix}.wq", (d, d)),
        wk=_expect(tensors, f"{prefix}.wk", (d, d)),
        wv=_expect(tensors, f"{prefix}.wv", (d, d)),
        bq=_expect(tensors, f"{prefix}.bq", (d,)),
        bk=_expect(tensors, f"{prefix}.bk", (d,)),
        bv=_expect(tensors, f"{prefix}.bv", (d,)),
        heads=h,
    )


def _load_ln(tensors, prefix: str, d: int) -> LayerNormParams:
    return LayerNormParams(
        g=_expect(tensors, f"{prefix}.g", (d,)),
        b=_expect(tensors, f"{prefix}.b", (d,)),
    )


def _load_ffn(tensors, prefix: str, d: int, f: int) -> FfnParams:
    return FfnParams(
        w1=_expect(tensors, f"{prefix}.w1", (d, f)),
        b1=_expect(tensors, f"{prefix}.b1", (f,)),
        w2=_expect(tensors, f"{prefix}.w2", (f, d)),
        b2=_expect(tensors, f"{prefix}.b2", (d,)),
    )


def load_weights(path: str) -> ModelWeights | NvModel:
    """Read an NVTX file back into the saved model type."""
    with open(path, "rb") as fh:
        rd = _Reader(fh)
        if rd.exact(4) != MAGIC:
            raise WeightFormatError("bad magic bytes (not an NVTX file)")
        version = rd.u32()
        if version != VERSION:
            raise WeightFormatError(f"unsupported version {version}")
        fields = {name: rd.u32() for name in _CONFIG_FIELDS}
        try:
            config = ModelConfig(**fields)
        except ValueError as e:
            raise WeightFormatError(f"invalid config block: {e}") from e

        tensors: dict[str, np.ndarray] = {}
        for _ in range(rd.u32()):
            name = rd.exact(rd.u32()).decode("utf-8")
            if name in tensors:
                raise WeightFormatError(f"duplicate tensor {name!r}")
            rank = rd.u32()
            shape = tuple(rd.u32() for _ in range(rank))
            raw = rd.exact(8 * math.prod(shape))
            tensors[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()

        blob_len = struct.unpack("<Q", rd.exact(8))[0]
        try:
            tail = json.loads(rd.exact(blob_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise WeightFormatError(f"bad JSON tail: {e}") from e

    d, f = config.dim, config.ffn_dim
    enc = [
        EncoderLayer(
            ln1=_load_ln(tensors, f"enc.{i}.ln1", d),
            self_attn=_load_attn(tensors, f"enc.{i}.self", d, config.heads),
            ln2=_load_ln(tensors, f"enc.{i}.ln2", d),
            ffn=_load_ffn(tensors, f"enc.{i}.ffn", d, f),
        )
        for i in range(config.layers_enc)
    ]
    dec = [
        DecoderLayer(
            ln1=_load_ln(tensors, f"dec.{i}.ln1", d),
            causal_attn=_load_attn(tensors, f"dec.{i}.causal", d, config.heads),
            ln2=_load_ln(tensors, f"dec.{i}.ln2", d),
            cross_attn=_load_attn(tensors, f"dec.{i}.cross", d, config.heads),
            ln3=_load_ln(tensors, f"dec.{i}.ln3", d),
            ffn=_load_ffn(tensors, f"dec.{i}.ffn", d, f),
        )
        for i in range(config.layers_dec)
    ]
    w = ModelWeights(
        config=config,
        tok_emb=_expect(tensors, "tok_emb", (config.vocab, d)),
        pos_enc=_expect(tensors, "pos_enc", (config.max_len, d)),
        enc=enc,
        enc_ln=_load_ln(tensors, "enc.final_ln", d),
        dec=dec,
        dec_ln=_load_ln(tensors, "dec.final_ln", d),
        w_out=_expect(tensors, "out.w", (d, config.vocab)),
        b_out=_expect(tensors, "out.b", (config.vocab,)),
    )
    known = {name for name, _ in _tensor_items(w)}
    unknown = [name for name in tensors if name not in known]
    if unknown:
        raise WeightFormatError(f"unknown tensor {unknown[0]!r}")

    kind = tail.get("kind")
    if kind == "standard":
        return w
    if kind == "nv":
        try:
            taus = TauConfig(**tail["taus"])
            priors = [_prior_from_json(p) for p in tail["priors"]]
        except (KeyError, TypeError, ValueError) as e:
            raise WeightFormatError(f"bad NV tail: {e}") from e
        return reinterpret(w, priors, taus)
    raise WeightFormatError(f"unknown model kind {kind!r}")


def read_corpus(path: str) -> list[list[int]]:
    """Token sequences, one whitespace-separated line of integer ids each.

    Blank lines are skipped; non-integer content is a corpus error.
    """
    seqs: list[list[int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                seqs.append([int(p) for p in parts])
            except ValueError as e:
                raise CorpusError(f"line {lineno}: not token ids: {e}") from e
    return seqs


def write_corpus(path: str, seqs: list[list[int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seq in seqs:
            fh.write(" ".join(str(int(t)) for t in seq))
            fh.write("\n")
