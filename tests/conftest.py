"""Shared fixtures: one toy model with corpus-estimated priors per session,
and the splice that gives a saved model another JSON tail."""

import functools
import json
import operator
import struct

import pytest

import nvtransformer as nv
from nvtransformer.evaluate import make_random_corpus


@pytest.fixture(scope="session")
def toy_model() -> nv.ModelWeights:
    return nv.init_weights(nv.ModelConfig(), seed=7)


@pytest.fixture(scope="session")
def toy_priors(toy_model):
    corpus = make_random_corpus(toy_model.config, 300, seed=18)
    return nv.estimate_priors(toy_model, corpus)


@pytest.fixture()
def with_tail(tmp_path):
    """`with_tail(model, edit)`: the path of `model` saved as an NVTX file
    whose JSON tail is edited, its length prefix rewritten to fit.  `edit`
    is a dict that puts each value at its path of keys and indices, or a
    function of the parsed tail that changes it in place or returns the
    text to write in its place."""

    def splice(model, edit) -> str:
        path = tmp_path / "tail.nvtx"
        nv.save_weights(str(path), model)
        raw = path.read_bytes()
        start = raw.rindex(b'{"kind":')
        tail = json.loads(raw[start:])
        text = None
        if isinstance(edit, dict):
            for (*at, key), value in edit.items():
                functools.reduce(operator.getitem, at, tail)[key] = value
        else:
            text = edit(tail)
        blob = (text if isinstance(text, str) else json.dumps(tail)).encode()
        path.write_bytes(raw[: start - 8] + struct.pack("<Q", len(blob)) + blob)
        return str(path)

    return splice
