"""Command-line front end.

Exit codes: 0 success (certification PASS included), 1 certification
failure, 2 usage or configuration error, 3 data error (unreadable corpus or
corrupt weight file).

Model config files are plain ``key=value`` lines; command-line flags
override file values.
"""

from __future__ import annotations

import argparse
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
from .nvib import GROUPS, TauConfig
from .priors import estimate_priors, prior_report
from .serialize import load_weights, read_corpus, save_weights

__all__ = ["main", "entry"]


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
            try:
                out[key] = int(value.strip())
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


def _cmd_init_model(args) -> int:
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
    w = _load_base(args.model)
    corpus = read_corpus(args.corpus)
    if not corpus:
        raise CorpusError(f"{args.corpus} is empty")
    priors = estimate_priors(
        w, corpus, fraction=args.fraction, seed=args.seed, shards=args.shards
    )
    nvm = reinterpret(w, priors, TauConfig())
    save_weights(args.out, nvm)
    report_path = args.report or (args.out + ".csv")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(prior_report(priors))
    print(f"estimated {len(priors)} site priors -> {args.out}, {report_path}")
    return 0


def _cmd_certify(args) -> int:
    w = _load_base(args.model)
    nvm = _load_nv(args.priors)
    result = certify(
        w,
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
    w = _load_base(args.model)
    nvm = _load_nv(args.priors)
    points = grid_points(args.grid, seed=args.seed)
    rows = run_sweep(
        w, nvm.priors, points, trials=args.trials, seed=args.seed
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(sweep_csv(rows))
    print(f"swept {len(rows)} dial settings -> {args.out}")
    return 0


def _cmd_attn_dump(args) -> int:
    nvm = _load_nv(args.model)
    if args.tau_alpha is not None or args.tau_sigma is not None:
        taus = TauConfig.uniform(
            args.tau_alpha if args.tau_alpha is not None else 10.0,
            args.tau_sigma if args.tau_sigma is not None else 1e-38,
        )
        nvm = reinterpret(nvm.base, nvm.priors, taus)
    if (args.group, args.layer) not in sites(nvm.base.config):
        raise ValueError(
            f"layer {args.layer} out of range for group {args.group}"
        )
    try:
        src = [int(t) for t in args.input.split()]
    except ValueError:
        raise ValueError("--input must be whitespace-separated token ids") from None
    if not src:
        raise ValueError("--input is empty")

    captured: dict[str, np.ndarray] = {}

    def hook(group: str, layer_id: int, weights: np.ndarray) -> None:
        if group == args.group and layer_id == args.layer:
            captured["map"] = weights

    forward_nv(nvm, src, [BOS_ID] + src, map_hook=hook)
    mat = captured["map"]
    n = mat.shape[1] - 1
    header = "query," + ",".join(f"k{j}" for j in range(n)) + ",[P]"
    lines = [header]
    for q in range(mat.shape[0]):
        lines.append(
            f"{q}," + ",".join(f"{v:.12g}" for v in mat[q])
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    for f in fields(ModelConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=int)
    p.set_defaults(func=_cmd_init_model)

    p = sub.add_parser("estimate-prior", help="per-site priors from a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--fraction", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--out", required=True, help="NVTX file with priors attached")
    p.add_argument("--report", help="CSV report path (default: OUT.csv)")
    p.set_defaults(func=_cmd_estimate_prior)

    p = sub.add_parser("certify", help="check equivalence at a dial setting")
    p.add_argument("--model", required=True)
    p.add_argument("--priors", required=True)
    p.add_argument("--tau-alpha", type=float, default=10.0)
    p.add_argument("--tau-sigma", type=float, default=1e-38)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", help="evaluate a grid of dial settings")
    p.add_argument("--model", required=True)
    p.add_argument("--priors", required=True)
    p.add_argument("--grid", required=True, help="'interp:K' or 'random:K'")
    p.add_argument("--trials", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("attn-dump", help="head-averaged attention map CSV")
    p.add_argument("--model", required=True, help="NVTX file with priors")
    p.add_argument("--input", required=True, help="whitespace-separated ids")
    p.add_argument("--layer", type=int, required=True)
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
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (WeightFormatError, CorpusError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
