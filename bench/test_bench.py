"""Self-tests of the benchmark itself.

    python3 bench/test_bench.py

A short smoke run of every workload in both modes must emit every metric
BENCHMARK.json names, with the layers each workload exercises showing work,
and an op whose output is corrupted must count as failed.
"""

from __future__ import annotations

import dataclasses
import math
import os
import sys
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run._pin_blas_threads()
run._import_package()

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from nvtransformer import model  # noqa: E402

SMOKE = dict(seed=3, seconds=0)

# per-layer metrics that must be nonzero on each workload
EXERCISED = {
    "toy-sweep": (
        "model.greedy_decode.positions_per_token",
        "model.greedy_decode.encoder_passes_per_token",
        "nvib.project.calls_per_op",
        "nvib.project.repeat_share",
        "model.forward_nv.calls_per_op",
        "model.forward_standard.calls_per_op",
        "denoising.eval_dattn_multihead.flops_per_op",
        "attention.attention.flops_per_op",
        "model.layer_norm.calls_per_op",
        "model.ffn.calls_per_op",
        "numeric.softmax_rows.calls_per_op",
        "trace.unattributed_ms_per_op",
    ),
    "toy-estimate": (
        "model.forward_standard.calls_per_op",
        "attention.attention.score_entries_per_op",
        "priors.welford.add_batch.calls_per_op",
        "priors.estimate_priors.self_ms_per_op",
        "serialize.save_weights.bytes_per_op",
        "serialize.load_weights.self_ms_per_op",
    ),
    "wide-decode": (
        "model.greedy_decode.positions_per_token",
        "model.forward_nv.calls_per_op",
        "nvib.project.repeat_share",
        "denoising.eval_dattn_multihead.score_entries_per_op",
        "denoising.eval_dattn_multihead.flops_per_op",
    ),
}


def _nudge(x: float) -> float:
    return float(np.nextafter(x, np.inf))


# each makes an op's output wrong in a way its check must catch
CORRUPT = {
    "toy-sweep": lambda rows: [dataclasses.replace(rows[0], overlap_pct=99.0)] + rows[1:],
    "toy-estimate": lambda out: (
        [dataclasses.replace(out[0][0], log_alpha0_p=_nudge(out[0][0].log_alpha0_p))]
        + out[0][1:],
        out[1],
    ),
    "wide-decode": lambda tokens: [tokens[0] ^ 1] + tokens[1:],
}


def _silent_nudge(rows):
    """A one-ulp change to a prior mass: still a valid sweep row."""
    return rows[:1] + [dataclasses.replace(rows[1], prior_mass_enc=_nudge(rows[1].prior_mass_enc))] + rows[2:]


_LAYER_NORM = model.layer_norm


def _corrupting(name: str, corrupt, only_traced: bool):
    class Corrupted(workloads.WORKLOADS[name]):
        def op(self, inp):
            out = super().op(inp)
            tracing = model.layer_norm is not _LAYER_NORM
            return corrupt(out) if tracing or not only_traced else out

    return mock.patch.dict(workloads.WORKLOADS, {name: Corrupted})


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        spec = run._spec()
        for name in workloads.WORKLOADS:
            for trace, section in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    res, _ = run.run(name, trace=trace, min_ops=2, **SMOKE)
                    self.assertEqual(sorted(res), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(res["correct"])
                    self.assertEqual((res["attempted"], res["failed"]), (2, 0))
                    self.assertEqual(list(res["metrics"]), [m["name"] for m in spec[section]])
                    for metric, entry in res["metrics"].items():
                        self.assertTrue(math.isfinite(entry["value"]), metric)
                    if trace:
                        for metric in EXERCISED[name]:
                            self.assertGreater(res["metrics"][metric]["value"], 0.0, metric)
                    else:
                        for metric in ("tokens_per_s", "op_ms_p50", "setup_s"):
                            self.assertGreater(res["metrics"][metric]["value"], 0.0, metric)

    def test_environment_is_recorded(self):
        env = run.environment()
        self.assertEqual(sorted(env), ["blas", "blas_threads", "git_sha", "machine",
                                       "nproc", "numpy", "python"])
        self.assertLessEqual(env["blas_threads"], env["nproc"])


class CorruptionTest(unittest.TestCase):
    def test_corrupted_output_counts_as_failed(self):
        for name, corrupt in CORRUPT.items():
            with self.subTest(workload=name), _corrupting(name, corrupt, only_traced=False):
                res, _ = run.run(name, trace=False, min_ops=2, **SMOKE)
                self.assertFalse(res["correct"])
                self.assertEqual((res["attempted"], res["failed"]), (2, 2))
                self.assertEqual(res["metrics"]["ops_ok_pct"]["value"], 0.0)

    def test_traced_output_must_match_untraced_bit_for_bit(self):
        with _corrupting("toy-sweep", _silent_nudge, only_traced=False):
            res, _ = run.run("toy-sweep", trace=False, min_ops=2, **SMOKE)
            self.assertTrue(res["correct"])
        with _corrupting("toy-sweep", _silent_nudge, only_traced=True):
            res, _ = run.run("toy-sweep", trace=True, min_ops=2, **SMOKE)
            self.assertFalse(res["correct"])
            self.assertEqual((res["attempted"], res["failed"]), (2, 2))


if __name__ == "__main__":
    unittest.main()
