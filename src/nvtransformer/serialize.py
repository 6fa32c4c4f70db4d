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
tensor order is the parameter tree's dataclass field order, so save -> load
-> save reproduces the file byte for byte.  Both directions take the tensor
names from the parameter description `init_weights` draws from
(`model._build`), and the tail from the dataclasses `TauConfig` and
`EmpiricalPrior`: each tail object holds exactly its fields, each once, each
the JSON type its annotation names.  A field or array item of another JSON
type is refused by the field's name: null, a bool, a string, a list or an
object where it does not belong, a fraction or an infinity for an int, an
integer past float range for a float.  The loader refuses missing,
misshapen, duplicate, unknown and non-UTF-8-named tensors, tensors of rank
above 64 or holding a NaN or an infinity, a tail off that rule, weights that
overflow the twin's forms, any length past the end of the file, and any
trailing bytes.

The writer and the reader go tensor by tensor and hold no copy of the
file: the writer packs a tensor's header into one write and writes its
payload from the array's own buffer; the reader takes a tensor's name and
rank in one read, its dims in another and its payload straight into its
array.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import re
import struct
from typing import BinaryIO, Iterator, get_args, get_type_hints

import numpy as np

from .errors import CorpusError, WeightFormatError
from .model import ModelConfig, ModelWeights, NvModel, _build, reinterpret
from .nvib import EmpiricalPrior, TauConfig
from .numeric import _check_count

__all__ = [
    "MAGIC",
    "VERSION",
    "save_weights",
    "load_weights",
    "parse_token_ids",
    "read_corpus",
    "write_corpus",
]

MAGIC = b"NVTX"
VERSION = 1

_TOKEN_ID = re.compile(r"-?[0-9]+")


@functools.cache
def _field_names(cls: type) -> tuple[str, ...]:
    # once per class: dataclasses.fields on every node of every save costs
    # time and, in a long run of saves, about 0.7 MB of peak memory
    return tuple(f.name for f in dataclasses.fields(cls))


# header order is the ModelConfig field order
_CONFIG_FIELDS = _field_names(ModelConfig)


def _leaves(node) -> list[np.ndarray]:
    """The tensors of a parameter tree in dataclass field order, list items
    (layers) in index order; fields that hold no tensor (the config, head
    counts) add nothing."""
    out = []
    for name in _field_names(type(node)):
        value = getattr(node, name)
        if isinstance(value, np.ndarray):
            out.append(value)
        elif isinstance(value, list):
            for item in value:
                out += _leaves(item)
        elif dataclasses.is_dataclass(value):
            out += _leaves(value)
    return out


@functools.cache
def _tensor_names(config: ModelConfig) -> tuple[str, ...]:
    """The names `_build` gives the tensors `_leaves` walks, in walk order,
    read off a tree whose every tensor is a broadcast view of its name."""
    probe = _build(config, lambda name, shape, _: np.broadcast_to(name, shape))
    return tuple(str(a.flat[0]) for a in _leaves(probe))


def _tensor_items(w: ModelWeights) -> Iterator[tuple[str, np.ndarray]]:
    """Every tensor with its name, in the file's order: the tree's."""
    return zip(_tensor_names(w.config), _leaves(w), strict=True)


# the JSON types a plain tail value reads from, named (a bool is no number)
_JSON_TYPES = {float: ((int, float), "a number"), int: ((int,), "an integer"),
               str: ((str,), "a string"), list: ((list,), "a list")}
# each tail dataclass's fields and each kind of tail's keys, with their types
_FIELD_TYPES = {cls: get_type_hints(cls) for cls in (TauConfig, EmpiricalPrior)}
_TAIL_TYPES = {"standard": {"kind": str},
               "nv": {"kind": str, "taus": TauConfig, "priors": list[EmpiricalPrior]}}


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object that gives each key once (`json.loads`' pairs hook)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _fields(obj, types: dict[str, type], where: str) -> dict:
    """A tail object's fields: exactly the keys of `types`, each read by its type."""
    if type(obj) is not dict:
        raise ValueError(f"{where} must be a JSON object, got {obj!r}")
    for key in sorted(obj.keys() ^ types.keys()):  # the first unknown or missing key
        raise ValueError(f"{'unknown' if key in obj else 'missing'} key {key!r} in {where}")
    return {name: _json_value(obj[name], tp, name) for name, tp in types.items()}


def _json_value(value, tp, name: str):
    """A tail value of type `tp` from its JSON: a float from any number, a
    dataclass from its fields, an array or list[X] from a list of floats or X."""
    if tp in _JSON_TYPES:
        kinds, what = _JSON_TYPES[tp]
        if type(value) not in kinds:
            raise ValueError(f"{name} must be {what}, got {value!r}")
        try:
            return float(value) if tp is float else value
        except OverflowError:  # a JSON integer past float range
            raise ValueError(f"{name} must be a number within float range") from None
    if tp in _FIELD_TYPES:
        return tp(**_fields(value, _FIELD_TYPES[tp], name))
    item = float if tp is np.ndarray else get_args(tp)[0]
    values = _json_value(value, list, name)
    if item is float and {*map(type, values)} <= {float}:  # all floats: nothing to convert
        return values
    return [_json_value(v, item, name) for v in values]


def _as_dict(obj) -> dict:
    """A tail dataclass's fields by name, its arrays shared, not copied."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def save_weights(path: str, model: ModelWeights | NvModel) -> None:
    """Write a ModelWeights or NvModel to an NVTX file."""
    if isinstance(model, NvModel):
        w = model.base
        tail = {"kind": "nv", "taus": _as_dict(model.taus),
                "priors": [_as_dict(p) for p in model.priors]}
    elif isinstance(model, ModelWeights):
        w = model
        tail = {"kind": "standard"}
    else:
        raise TypeError(f"cannot serialise {type(model).__name__}")

    with open(path, "wb") as fh:
        items = list(_tensor_items(w))
        config = [getattr(w.config, name) for name in _CONFIG_FIELDS]
        fh.write(struct.pack(f"<4s{len(config) + 2}I", MAGIC, VERSION, *config, len(items)))
        for name, arr in items:
            raw = name.encode("utf-8")
            fh.write(struct.pack(f"<I{len(raw)}sI{arr.ndim}I", len(raw), raw, arr.ndim, *arr.shape))
            fh.write(np.ascontiguousarray(arr, dtype="<f8"))
        blob = json.dumps(
            tail, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist
        ).encode()
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

    def floats(self, shape: tuple) -> np.ndarray:
        """A little-endian float64 tensor, read straight into its array."""
        n = 8 * math.prod(shape)
        if n > self.left:
            raise WeightFormatError("truncated weight file")
        arr = np.empty(shape, dtype="<f8")
        if self.fh.readinto(arr.data.cast("B")) != n:
            raise WeightFormatError("truncated weight file")
        self.left -= n
        return arr

    def u32s(self, n: int) -> tuple[int, ...]:
        return struct.unpack(f"<{n}I", self.exact(4 * n))


def _expect(tensors: dict[str, np.ndarray], name: str, shape: tuple) -> np.ndarray:
    """Take tensor `name` out of `tensors`, checking its shape."""
    arr = tensors.pop(name, None)
    if arr is None:
        raise WeightFormatError(f"missing tensor {name!r}")
    if arr.shape != shape:
        raise WeightFormatError(
            f"tensor {name!r} has shape {arr.shape}, expected {shape}"
        )
    return arr


def load_weights(path: str) -> ModelWeights | NvModel:
    """Read an NVTX file back into the saved model type."""
    with open(path, "rb") as fh:
        rd = _Reader(fh)
        if rd.exact(4) != MAGIC:
            raise WeightFormatError("bad magic bytes (not an NVTX file)")
        (version,) = rd.u32s(1)
        if version != VERSION:
            raise WeightFormatError(f"unsupported version {version}")
        fields = dict(zip(_CONFIG_FIELDS, rd.u32s(len(_CONFIG_FIELDS))))
        try:
            config = ModelConfig(**fields)
        except ValueError as e:
            raise WeightFormatError(f"invalid config block: {e}") from e

        tensors: dict[str, np.ndarray] = {}
        for _ in range(rd.u32s(1)[0]):
            head = rd.exact(rd.u32s(1)[0] + 4)  # the name and the rank after it
            try:
                name = head[:-4].decode("utf-8")
            except UnicodeDecodeError as e:
                raise WeightFormatError(f"tensor name is not UTF-8: {e}") from e
            if name in tensors:
                raise WeightFormatError(f"duplicate tensor {name!r}")
            rank = int.from_bytes(head[-4:], "little")
            if rank > 64:  # NumPy's limit on an array's dimensions
                raise WeightFormatError(f"tensor {name!r} has rank {rank} > 64")
            arr = rd.floats(rd.u32s(rank))
            if not np.isfinite(arr).all():
                raise WeightFormatError(f"tensor {name!r} has non-finite values")
            tensors[name] = arr

        blob_len = struct.unpack("<Q", rd.exact(8))[0]
        try:
            tail = json.loads(rd.exact(blob_len).decode("utf-8"), object_pairs_hook=_json_object)
        except (RecursionError, ValueError) as e:  # not UTF-8 JSON, too deep, a repeat
            raise WeightFormatError(f"bad JSON tail: {e}") from e
        if rd.left:
            raise WeightFormatError(f"{rd.left} trailing bytes after the JSON tail")

    w = _build(config, lambda name, shape, _: _expect(tensors, name, shape))
    if tensors:  # what the model did not take, in file order
        raise WeightFormatError(f"unknown tensor {next(iter(tensors))!r}")

    if type(tail) is not dict:
        raise WeightFormatError(f"JSON tail is a {type(tail).__name__}, not an object")
    kind = tail.get("kind")
    if kind not in ("standard", "nv"):  # compared, not hashed: any JSON value
        raise WeightFormatError(f"unknown model kind {kind!r}")
    try:
        top = _fields(tail, _TAIL_TYPES[kind], "the tail")
        # priors that miss a site or do not fit its width are the file's
        # fault, and so are weights that overflow the twin's forms
        with np.errstate(over="raise", invalid="raise"):
            return reinterpret(w, top["priors"], top["taus"]) if kind == "nv" else w
    except FloatingPointError as e:
        raise WeightFormatError(f"weights overflow the twin's forms: {e}") from e
    except (OverflowError, ValueError) as e:
        raise WeightFormatError(f"bad {kind.upper()} tail: {e}") from e


def parse_token_ids(text: str) -> list[int]:
    """Whitespace-separated ASCII decimal token ids.  A leading '-' is
    read, so a negative id is refused later as out of range; '+4', '1_0'
    and non-ASCII digits are refused here."""
    ids = []
    for part in text.split():
        if not _TOKEN_ID.fullmatch(part):
            raise ValueError(f"not a token id: {part!r}")
        ids.append(int(part))
    return ids


def read_corpus(path: str) -> list[list[int]]:
    """Token sequences, one line of `parse_token_ids` ids each.

    Blank lines are skipped; any other content, a line that is not UTF-8
    or a negative id included, is a corpus error naming the line.
    """
    seqs: list[list[int]] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                ids = parse_token_ids(line.encode(errors="surrogateescape").decode())
                if min(ids, default=0) < 0:
                    raise ValueError(f"token ids must be nonnegative, got {min(ids)}")
            except ValueError as e:
                raise CorpusError(f"line {lineno}: {e}") from e
            if ids:
                seqs.append(ids)
    return seqs


def write_corpus(path: str, seqs: list[list[int]]) -> None:
    """Token sequences, one line each, as `read_corpus` reads them back: an
    empty sequence (a blank line, skipped on reading) or an id that is not a
    nonnegative integer is a ValueError naming the sequence, before opening."""
    for i, seq in enumerate(seqs):
        if len(seq) == 0:
            raise ValueError(f"sequence {i} is empty")
        for t in seq:
            _check_count(t, f"a token id of sequence {i}")
    with open(path, "w", encoding="utf-8") as fh:
        for seq in seqs:
            fh.write(" ".join(str(int(t)) for t in seq))
            fh.write("\n")
