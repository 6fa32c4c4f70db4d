"""Command-line front end.

Exit codes: 0 success (certification PASS included), 1 certification
failure, 2 usage, configuration or file-access error (a twin's `--model`
that holds no priors included), 3 data error (unparseable corpus or corrupt
weight file).

`certify`, `sweep` and `attn-dump` read one file, the twin that
`estimate-prior` writes: its base weights, priors and dials.

Model config files are plain ``key=value`` lines; command-line flags
override file values.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import fields

import numpy as np

from .errors import CorpusError, WeightFormatError
from .evaluate import certify, grid_points, run_sweep, sweep_csv
from .model import (
    BOS_ID,
    ModelConfig,
    ModelWeights,
    NvModel,
    forward_nv,
    init_weights,
    reinterpret,
    sites,
)
from .nvib import GROUPS, TauConfig, identity_taus
from .priors import estimate_priors, prior_report
from .serialize import csv_text, load_weights, parse_token_ids, read_corpus, save_weights

__all__ = ["main", "entry"]

# the identity corner; the CLI's one dial pair sets every group
_IDENTITY = identity_taus()


def decimal(text: str) -> int:
    """An integer flag or config value: one ASCII decimal, read as a token id is."""
    (value,) = parse_token_ids(text)
    return value


def _parse_config_file(path: str) -> dict[str, int]:
    out: dict[str, int] = {}
    names = {f.name for f in fields(ModelConfig)}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or key not in names:
                raise ValueError(f"{path}:{lineno}: bad config line {line!r}")
            if key in out:
                raise ValueError(f"{path}:{lineno}: {key} is set twice")
            try:
                out[key] = decimal(value)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: {key} needs an integer"
                ) from None
    return out


def _load_base(path: str) -> ModelWeights:
    model = load_weights(path)
    return model.base if isinstance(model, NvModel) else model


def _load_nv(path: str) -> NvModel:
    model = load_weights(path)
    if not isinstance(model, NvModel):
        raise ValueError(f"{path} holds no priors (not a reinterpreted model)")
    return model


def _check_outputs(inputs: dict[str, str | None], outputs: dict[str, str]) -> None:
    """Refuse, before any work, an output that is one of the command's input
    files or another of its outputs (compared by `os.path.realpath`), then
    raise the OSError that writing an output would meet at a directory, a
    missing parent directory or a file or directory we may not write to;
    creates nothing.  Both maps go from flag to path."""
    seen = {os.path.realpath(p): flag for flag, p in inputs.items() if p}
    for flag, path in outputs.items():
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{flag} {path} is the {seen[real]} file")
        seen[real] = flag
    for path in outputs.values():
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        if not os.access(path if os.path.exists(path) else parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _cmd_init_model(args) -> int:
    _check_outputs({"--config": args.config}, {"--out": args.out})
    values = _parse_config_file(args.config) if args.config else {}
    for f in fields(ModelConfig):
        flag = getattr(args, f.name)
        if flag is not None:
            values[f.name] = flag
    config = ModelConfig(**values)
    save_weights(args.out, init_weights(config, args.seed))
    print(f"wrote {args.out} ({config})")
    return 0


def _cmd_estimate_prior(args) -> int:
    report_path = args.report or (args.out + ".csv")
    _check_outputs({"--model": args.model, "--corpus": args.corpus},
                   {"--out": args.out, "--report": report_path})
    w = _load_base(args.model)
    corpus = read_corpus(args.corpus)
    priors = estimate_priors(
        w, corpus, fraction=args.fraction, seed=args.seed, shards=args.shards
    )
    nvm = reinterpret(w, priors, _IDENTITY)
    save_weights(args.out, nvm)
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(prior_report(priors))
    print(f"estimated {len(priors)} site priors -> {args.out}, {report_path}")
    return 0


def _cmd_certify(args) -> int:
    nvm = _load_nv(args.model)
    result = certify(
        nvm.base,
        nvm.priors,
        TauConfig.uniform(args.tau_alpha, args.tau_sigma),
        trials=args.trials,
        tol=args.tol,
        seed=args.seed,
    )
    print(f"max logit diff: {result.max_logit_diff:.6e} (tol {result.tol:g})")
    print(f"decode overlap: {result.overlap_pct:.2f}%")
    print("PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_sweep(args) -> int:
    _check_outputs({"--model": args.model}, {"--out": args.out})
    nvm = _load_nv(args.model)
    points = grid_points(args.grid, seed=args.seed)
    rows = run_sweep(
        nvm.base, nvm.priors, points, trials=args.trials, seed=args.seed
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(sweep_csv(rows))
    print(f"swept {len(rows)} dial settings -> {args.out}")
    return 0


def _cmd_attn_dump(args) -> int:
    _check_outputs({"--model": args.model}, {"--out": args.out})
    nvm = _load_nv(args.model)
    if (args.group, args.layer) not in sites(nvm.base.config):
        raise ValueError(f"layer {args.layer} out of range for group {args.group}")
    if args.tau_alpha is not None or args.tau_sigma is not None:
        taus = TauConfig.uniform(
            _IDENTITY.tau_alpha_enc if args.tau_alpha is None else args.tau_alpha,
            _IDENTITY.tau_sigma_enc if args.tau_sigma is None else args.tau_sigma,
        )
        nvm = reinterpret(nvm.base, nvm.priors, taus)
    src = parse_token_ids(args.input)
    maps: dict[tuple[str, int], np.ndarray] = {}

    def hook(group: str, layer_id: int, weights: np.ndarray) -> None:
        maps[group, layer_id] = weights

    # teacher-forced on the source itself, cut at max_len as the estimator does
    tgt = ([BOS_ID] + src)[: nvm.base.config.max_len]
    forward_nv(nvm, src, tgt, map_hook=hook)
    mat = maps[args.group, args.layer]
    header = "query," + ",".join(f"k{j}" for j in range(mat.shape[1] - 1)) + ",[P]"
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text(header, ((q, *row) for q, row in enumerate(mat))))
    print(f"wrote {mat.shape[0]}x{mat.shape[1]} attention map -> {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvtransformer",
        description="Toy Transformer with a denoising-attention reinterpretation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-model", help="create seeded random weights")
    p.add_argument("--config", help="key=value file with model dimensions")
    p.add_argument("--seed", type=decimal, default=0)
    p.add_argument("--out", required=True)
    for f in fields(ModelConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=decimal)
    p.set_defaults(func=_cmd_init_model)

    p = sub.add_parser("estimate-prior", help="per-site priors from a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--fraction", type=float, default=1.0)
    p.add_argument("--seed", type=decimal, default=0)
    p.add_argument("--shards", type=decimal, default=1)
    p.add_argument("--out", required=True, help="NVTX file with priors attached")
    p.add_argument("--report", help="CSV report path (default: OUT.csv)")
    p.set_defaults(func=_cmd_estimate_prior)

    p = sub.add_parser("certify", help="check equivalence at a dial setting")
    p.add_argument("--model", required=True, help="NVTX file with priors")
    p.add_argument("--tau-alpha", type=float, default=_IDENTITY.tau_alpha_enc)
    p.add_argument("--tau-sigma", type=float, default=_IDENTITY.tau_sigma_enc)
    p.add_argument("--trials", type=decimal, default=20)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=decimal, default=0)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", help="evaluate a grid of dial settings")
    p.add_argument("--model", required=True, help="NVTX file with priors")
    p.add_argument("--grid", required=True, help="'interp:K' or 'random:K'")
    p.add_argument("--trials", type=decimal, default=6)
    p.add_argument("--seed", type=decimal, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("attn-dump", help="head-averaged attention map CSV")
    p.add_argument("--model", required=True, help="NVTX file with priors")
    p.add_argument("--input", required=True, help="whitespace-separated ids")
    p.add_argument("--layer", type=decimal, required=True)
    p.add_argument("--group", choices=GROUPS, required=True)
    p.add_argument("--tau-alpha", type=float)
    p.add_argument("--tau-sigma", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_attn_dump)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (WeightFormatError, CorpusError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
