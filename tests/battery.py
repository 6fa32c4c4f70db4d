"""Output battery: one `name sha256` line per artifact the package makes.

Two checkouts that print the same lines make the same outputs, bit for bit.
A change that claims to leave every output as it was is checked by running
this at the change and at its parent and comparing, in one command:

    python3 tests/battery.py --against ../parent

which runs this battery in two subprocesses, against ../parent/src and
against this checkout's src, prints the name of each artifact whose digest
differs and exits 1 if any does.  Beside each `.logits` artifact that
differs it prints the largest absolute difference of the two arrays and
whether the matching `.decodes` artifact is equal; the subprocesses save
their logits for this with `--save-logits DIR`.  By hand, the same
comparison is:

    PYTHONPATH=src python3 tests/battery.py > after.txt
    (cd ../parent && PYTHONPATH=src python3 /path/to/tests/battery.py) > before.txt
    diff before.txt after.txt

`--against` drives both packages with this checkout's CLI calls, so a
change that renames or removes a CLI flag is compared by running each
checkout's own battery instead:

    PYTHONPATH=src python3 tests/battery.py > after.txt
    (cd ../parent && PYTHONPATH=src python3 tests/battery.py) > before.txt
    diff before.txt after.txt

It covers the toy config at model seeds 7 and 14, `--dim 32 --heads 4` and
the wide config (vocab 512, d 128, 8 heads, 6+6 layers).  Per config: the
`init-model` and `estimate-prior` NVTX files and the prior report, the
same at `--fraction 0.5 --shards 3`, the `certify` stdout, two `sweep`
CSVs, `attn-dump` maps at the identity and at collapsing dials, the
standard model's and two twins' teacher-forced logits and greedy decodes,
and a sweep's padded mixed batch (the standard rows first, then twins at
several dials), its logits and decodes, with and without an EOS bias that
ends some decodes early.  It reads only the CLI and the model's batched
internals, and pytest does not collect it.  It runs in about ten seconds on
one core.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np

# this checkout's package, for a run without PYTHONPATH (`--against` needs
# none); a PYTHONPATH entry comes first, so the manual recipe is unchanged
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.append(SRC)

from nvtransformer import cli
from nvtransformer.evaluate import grid_points, make_random_corpus, random_eval_inputs
from nvtransformer.model import (
    EOS_ID,
    _greedy,
    _pad,
    _teacher_forced,
    _Twins,
    forward_nv,
    forward_standard,
    greedy_decode,
    reinterpret,
)
from nvtransformer.nvib import TauConfig, identity_taus
from nvtransformer.serialize import load_weights

CONFIGS = {
    "toy-seed7": ([], 7),
    "toy-seed14": ([], 14),
    "dim32-heads4": (["--dim", "32", "--heads", "4"], 7),
    "wide": (["--vocab", "512", "--dim", "128", "--heads", "8", "--layers-enc", "6",
              "--layers-dec", "6", "--ffn-dim", "512", "--max-len", "128"], 7),
}


def digest(data) -> str:
    if isinstance(data, np.ndarray):
        data = repr((data.dtype.str, data.shape)).encode() + np.ascontiguousarray(data).tobytes()
    elif isinstance(data, str):
        data = data.encode()
    elif not isinstance(data, bytes):
        data = repr(data).encode()
    return hashlib.sha256(data).hexdigest()


def run_cli(tmp: str, *argv: str) -> str:
    """`nvtransformer argv` in-process; its stdout, with its exit code and
    with the working directory `tmp` written as TMP."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"{out.getvalue()}exit {code}\n".replace(tmp, "TMP")


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cli_artifacts(tmp: str, flags: list[str], seed: int) -> tuple[dict[str, object], str, str]:
    """Each CLI command's outputs for one config; also the base and twin
    file paths."""
    base, twin = os.path.join(tmp, "base.nvtx"), os.path.join(tmp, "twin.nvtx")
    run_cli(tmp, "init-model", "--seed", str(seed), "--out", base, *flags)
    config = load_weights(base).config
    corpus = os.path.join(tmp, "corpus.txt")
    with open(corpus, "w", encoding="utf-8") as fh:
        for seq in make_random_corpus(config, 40, seed=seed + 1, max_len=min(config.max_len, 30)):
            fh.write(" ".join(map(str, seq)) + "\n")
    # a subsample in shards: the reservoir and the shard merge
    half = os.path.join(tmp, "half.nvtx")
    run_cli(tmp, "estimate-prior", "--model", base, "--corpus", corpus, "--out", half,
            "--fraction", "0.5", "--shards", "3")
    out = {
        "init-model.nvtx": read(base),
        "estimate-prior.stdout": run_cli(
            tmp, "estimate-prior", "--model", base, "--corpus", corpus, "--out", twin),
        "estimate-prior.nvtx": read(twin),
        "estimate-prior.csv": read(twin + ".csv"),
        "estimate-prior-half-3-shards.nvtx": read(half),
        "estimate-prior-half-3-shards.csv": read(half + ".csv"),
        "certify.stdout": run_cli(tmp, "certify", "--model", twin),
        "certify-off-identity.stdout": run_cli(
            tmp, "certify", "--model", twin, "--tau-alpha", "0", "--tau-sigma", "0.3",
            "--trials", "4", "--seed", "3"),
    }
    for grid, trials in (("interp:5", "3"), ("random:3", "2")):
        path = os.path.join(tmp, "sweep.csv")
        run_cli(tmp, "sweep", "--model", twin, "--grid", grid, "--trials", trials,
                "--seed", "5", "--out", path)
        out[f"sweep-{grid}.csv"] = read(path)
    src = " ".join(map(str, make_random_corpus(config, 1, seed=seed + 2)[0]))
    for name, group, dials in (("identity", "cross", []),
                               ("collapse", "encoder", ["--tau-alpha", "-15", "--tau-sigma", "0.5"])):
        path = os.path.join(tmp, "map.csv")
        run_cli(tmp, "attn-dump", "--model", twin, "--input", src, "--layer", "0",
                "--group", group, "--out", path, *dials)
        out[f"attn-dump-{name}.csv"] = read(path)
    return out, base, twin


def model_artifacts(w, priors) -> dict[str, object]:
    """Logits and decodes of the standard model, two twins and a mixed
    batch, on seeded pairs of differing lengths."""
    pairs = random_eval_inputs(w.config, 5, seed=11)
    twins = {"identity": identity_taus(), "off-identity": TauConfig.uniform(0.0, 0.3)}
    out: dict[str, object] = {}
    for name, model, forward in [("standard", w, forward_standard)] + [
        (f"twin-{k}", reinterpret(w, priors, taus), forward_nv) for k, taus in twins.items()
    ]:
        out[f"{name}.logits"] = np.concatenate([forward(model, s, t) for s, t in pairs])
        out[f"{name}.decodes"] = [greedy_decode(model, s, 16) for s, _ in pairs]
    points = grid_points("interp:3") + grid_points("random:2", seed=4)
    rows = [taus for taus in points for _ in pairs]
    for name, bias in (("mixed", 0.0), ("mixed-eager-eos", 1.5)):
        b_out = w.b_out.copy()
        b_out[EOS_ID] += bias
        base = dataclasses.replace(w, b_out=b_out)
        batch = _Twins(base, priors, rows, head=len(pairs))
        (src, src_valid), (tgt, tgt_valid) = (
            _pad([p[i] for p in pairs] * (len(points) + 1)) for i in (0, 1))
        logits = _teacher_forced(batch, src, tgt, None, src_valid, tgt_valid)
        out[f"{name}.logits"] = np.where(tgt_valid[..., None], logits, 0.0)
        out[f"{name}.decodes"] = _greedy(batch, src, 16, src_valid)
    return out


def logits_file(logits_dir: str, name: str) -> str:
    """Where `--save-logits` puts the `.logits` artifact `name`."""
    return os.path.join(logits_dir, name.replace("/", "__") + ".npy")


def digests_against(src: str, logits_dir: str) -> dict[str, str]:
    """This battery's `name sha256` lines, run in a subprocess that imports
    the package from `src` and saves its logits to `logits_dir`."""
    if not os.path.isdir(os.path.join(src, "nvtransformer")):
        print(f"error: {src} holds no nvtransformer package", file=sys.stderr)
        raise SystemExit(2)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, os.path.abspath(__file__), "--save-logits", logits_dir]
    run = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return dict(line.rsplit(" ", 1) for line in run.stdout.splitlines())


def logits_note(name: str, before: dict[str, str], after: dict[str, str], dirs) -> str:
    """For a `.logits` artifact present on both sides: the largest absolute
    difference of the two arrays and whether the matching `.decodes`
    artifact is equal; empty for any other artifact."""
    if not name.endswith(".logits") or name not in before or name not in after:
        return ""
    a, b = (np.load(logits_file(d, name)) for d in dirs)
    diff = f"{np.max(np.abs(a - b)):.3g}" if a.shape == b.shape else f"shapes {a.shape} {b.shape}"
    decodes = name[: -len(".logits")] + ".decodes"
    same = before.get(decodes) == after.get(decodes)
    return f"  max |diff| {diff}, decodes {'equal' if same else 'differ'}"


def compare(parent: str) -> int:
    """Print the artifacts whose digests differ between PARENT/src and this
    checkout's src, a moved `.logits` one with `logits_note`; 1 if any
    differs, else 0."""
    with tempfile.TemporaryDirectory() as tmp:
        dirs = os.path.join(tmp, "before"), os.path.join(tmp, "after")
        before = digests_against(os.path.join(parent, "src"), dirs[0])
        after = digests_against(SRC, dirs[1])
        names = list(after) + [name for name in before if name not in after]
        differ = [name for name in names if before.get(name) != after.get(name)]
        for name in differ:
            print(name + logits_note(name, before, after, dirs))
    print(f"{len(differ)} of {len(names)} artifacts differ", file=sys.stderr)
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", metavar="PARENT",
                        help="compare with the checkout at PARENT instead of printing digests")
    parser.add_argument("--save-logits", metavar="DIR",
                        help="also save each .logits artifact to DIR as .npy")
    args = parser.parse_args()
    if args.against is not None:
        return compare(args.against)
    if args.save_logits is not None:
        os.makedirs(args.save_logits, exist_ok=True)
    for config, (flags, seed) in CONFIGS.items():
        with tempfile.TemporaryDirectory() as tmp:
            files, base, twin = cli_artifacts(tmp, flags, seed)
            arts = dict(files)
            arts.update(model_artifacts(load_weights(base), load_weights(twin).priors))
        for name, data in arts.items():
            name = f"{config}/{name}"
            print(f"{name} {digest(data)}")
            if args.save_logits is not None and name.endswith(".logits"):
                np.save(logits_file(args.save_logits, name), data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
