"""Smoke test of the output battery (`tests/battery.py`): on the toy seed-7
config it makes every artifact it names, so a change that renames a model
internal the battery reads fails here, not when the battery is next run to
compare two checkouts.  It compares no digests: those depend on the BLAS
build."""

import battery

from nvtransformer import load_weights

CLI_ARTIFACTS = [
    "init-model.nvtx", "estimate-prior.stdout", "estimate-prior.nvtx", "estimate-prior.csv",
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
