"""Smoke test of the output battery (`tests/battery.py`): on the toy seed-7
config it makes every artifact it names, so a change that renames a model
internal the battery reads fails here, not when the battery is next run to
compare two checkouts.  It compares no digests: those depend on the BLAS
build.  The note `--against` prints beside a moved `.logits` artifact is
checked on saved arrays."""

import numpy as np

import battery

from nvtransformer import load_weights

CLI_ARTIFACTS = [
    "init-model.nvtx", "estimate-prior.stdout", "estimate-prior.nvtx", "estimate-prior.csv",
    "estimate-prior-half-3-shards.nvtx", "estimate-prior-half-3-shards.csv",
    "certify.stdout", "certify-off-identity.stdout", "sweep-interp:5.csv", "sweep-random:3.csv",
    "attn-dump-identity.csv", "attn-dump-collapse.csv",
]
MODEL_ARTIFACTS = [
    f"{name}.{kind}"
    for name in ("standard", "twin-identity", "twin-off-identity", "mixed", "mixed-eager-eos")
    for kind in ("logits", "decodes")
]


def test_battery_makes_every_artifact(tmp_path):
    flags, seed = battery.CONFIGS["toy-seed7"]
    files, base, twin = battery.cli_artifacts(str(tmp_path), flags, seed)
    arts = battery.model_artifacts(load_weights(base), load_weights(twin).priors)
    assert list(files) == CLI_ARTIFACTS
    assert list(arts) == MODEL_ARTIFACTS
    for data in [*files.values(), *arts.values()]:
        assert len(battery.digest(data)) == 64


def test_a_moved_logits_artifact_is_noted_with_its_largest_difference(tmp_path):
    dirs = tmp_path / "before", tmp_path / "after"
    for d, logits in zip(dirs, ([[1.0, -2.0], [3.0, 4.0]], [[1.0, -2.5], [3.0, 4.25]])):
        d.mkdir()
        np.save(battery.logits_file(d, "toy-seed7/mixed.logits"), np.array(logits))
    before = {"toy-seed7/mixed.logits": "a", "toy-seed7/mixed.decodes": "d", "x.csv": "c"}
    after = {"toy-seed7/mixed.logits": "b", "toy-seed7/mixed.decodes": "d", "x.csv": "e"}
    note = battery.logits_note("toy-seed7/mixed.logits", before, after, dirs)
    assert note == "  max |diff| 0.5, decodes equal"
    after["toy-seed7/mixed.decodes"] = "e"
    note = battery.logits_note("toy-seed7/mixed.logits", before, after, dirs)
    assert note == "  max |diff| 0.5, decodes differ"
    assert battery.logits_note("x.csv", before, after, dirs) == ""
