"""End-to-end tests of the command-line interface.

Exit-code contract: 0 success, 1 certification failure, 2 usage error,
3 data error.
"""

import json
import pathlib
import struct

import numpy as np
import pytest

from nvtransformer import (
    ModelWeights,
    NvModel,
    load_weights,
    write_corpus,
)
from nvtransformer.cli import main
from nvtransformer.evaluate import make_random_corpus
from nvtransformer.model import ModelConfig


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Model + priors + corpus files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    model = str(root / "model.nvtx")
    corpus = str(root / "corpus.txt")
    priors = str(root / "priors.nvtx")

    assert main(["init-model", "--seed", "7", "--out", model]) == 0
    cfg = ModelConfig()
    write_corpus(corpus, make_random_corpus(cfg, 40, seed=18))
    assert main([
        "estimate-prior", "--model", model, "--corpus", corpus,
        "--out", priors,
    ]) == 0
    return {"root": root, "model": model, "corpus": corpus, "priors": priors}


class TestInitModel:
    def test_writes_loadable_standard_weights(self, tmp_path, capsys):
        out = str(tmp_path / "m.nvtx")
        r = main(["init-model", "--seed", "3", "--out", out, "--dim", "8",
                  "--heads", "2", "--vocab", "32"])
        assert r == 0
        assert "wrote" in capsys.readouterr().out
        w = load_weights(out)
        assert isinstance(w, ModelWeights)
        assert w.config.dim == 8 and w.config.vocab == 32

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "model.cfg"
        cfg_file.write_text("# toy setup\ndim=8\nheads=2\nvocab=16\n")
        out = str(tmp_path / "m.nvtx")
        r = main(["init-model", "--config", str(cfg_file), "--out", out,
                  "--vocab", "24"])
        assert r == 0
        w = load_weights(out)
        assert w.config.dim == 8
        assert w.config.vocab == 24  # flag wins over file

    def test_bad_config_line_is_usage_error(self, tmp_path):
        cfg_file = tmp_path / "model.cfg"
        cfg_file.write_text("dim=8\nwidth=9\n")
        r = main(["init-model", "--config", str(cfg_file),
                  "--out", str(tmp_path / "m.nvtx")])
        assert r == 2

    def test_invalid_dimensions_is_usage_error(self, tmp_path):
        r = main(["init-model", "--out", str(tmp_path / "m.nvtx"),
                  "--dim", "16", "--heads", "3"])
        assert r == 2

    def test_seed_reproducibility(self, tmp_path):
        a = str(tmp_path / "a.nvtx")
        b = str(tmp_path / "b.nvtx")
        assert main(["init-model", "--seed", "5", "--out", a]) == 0
        assert main(["init-model", "--seed", "5", "--out", b]) == 0
        wa, wb = load_weights(a), load_weights(b)
        np.testing.assert_array_equal(wa.tok_emb, wb.tok_emb)


class TestEstimatePrior:
    def test_outputs_nv_model_and_report(self, workdir):
        nvm = load_weights(workdir["priors"])
        assert isinstance(nvm, NvModel)
        assert len(nvm.priors) == 6
        report = (workdir["root"] / "priors.nvtx.csv").read_text()
        assert report.startswith("layer,group,")
        assert len(report.strip().split("\n")) == 7

    def test_explicit_report_path(self, workdir, tmp_path):
        report = str(tmp_path / "report.csv")
        out = str(tmp_path / "p.nvtx")
        r = main([
            "estimate-prior", "--model", workdir["model"],
            "--corpus", workdir["corpus"], "--out", out,
            "--report", report, "--fraction", "0.5", "--shards", "2",
        ])
        assert r == 0
        assert (tmp_path / "report.csv").exists()

    def test_missing_corpus_file(self, workdir, tmp_path):
        r = main([
            "estimate-prior", "--model", workdir["model"],
            "--corpus", str(tmp_path / "nope.txt"),
            "--out", str(tmp_path / "p.nvtx"),
        ])
        assert r == 2

    def test_unparseable_corpus_is_data_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 4 five\n")
        r = main([
            "estimate-prior", "--model", workdir["model"],
            "--corpus", str(bad), "--out", str(tmp_path / "p.nvtx"),
        ])
        assert r == 3

    def test_out_of_vocab_corpus_is_data_error(self, workdir, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 4 9999\n3 4 5\n")
        r = main([
            "estimate-prior", "--model", workdir["model"],
            "--corpus", str(bad), "--out", str(tmp_path / "p.nvtx"),
        ])
        assert r == 3


class TestCertify:
    def test_identity_passes(self, workdir, capsys):
        r = main([
            "certify", "--model", workdir["model"],
            "--priors", workdir["priors"], "--trials", "5",
        ])
        out = capsys.readouterr().out
        assert r == 0
        assert "max logit diff:" in out
        assert "decode overlap:" in out
        assert "PASS" in out

    def test_over_regularised_fails_with_code_1(self, workdir, capsys):
        r = main([
            "certify", "--model", workdir["model"],
            "--priors", workdir["priors"], "--trials", "5",
            "--tau-alpha", "-30", "--tau-sigma", "0.25",
        ])
        assert r == 1
        assert "FAIL" in capsys.readouterr().out

    def test_non_finite_dial_is_usage_error(self, workdir, capsys):
        r = main([
            "certify", "--model", workdir["model"],
            "--priors", workdir["priors"], "--tau-alpha", "nan",
        ])
        assert r == 2
        assert "tau_alpha" in capsys.readouterr().err

    def test_non_finite_prior_in_file_is_data_error(
        self, workdir, tmp_path, capsys
    ):
        # rewrite the JSON tail with one prior value set to NaN
        raw = pathlib.Path(workdir["priors"]).read_bytes()
        start = raw.rindex(b'{"kind":"nv"')
        tail = json.loads(raw[start:])
        tail["priors"][0]["log_alpha0_p"] = float("nan")
        blob = json.dumps(tail).encode()
        bad = tmp_path / "nan.nvtx"
        bad.write_bytes(raw[: start - 8] + struct.pack("<Q", len(blob)) + blob)
        r = main([
            "certify", "--model", workdir["model"], "--priors", str(bad),
        ])
        assert r == 3
        assert "log_alpha0_p" in capsys.readouterr().err

    def test_oversized_tensor_in_priors_is_data_error(
        self, workdir, tmp_path, capsys
    ):
        # a header claiming a (65536,)*4 tensor, 2**67 bytes, in a short file
        raw = pathlib.Path(workdir["priors"]).read_bytes()
        header = raw[:36] + struct.pack("<I", 1)
        name = b"tok_emb"
        record = (
            struct.pack("<I", len(name)) + name
            + struct.pack("<5I", 4, 65536, 65536, 65536, 65536)
        )
        bad = tmp_path / "huge.nvtx"
        bad.write_bytes(header + record + bytes(64))
        r = main([
            "certify", "--model", workdir["model"], "--priors", str(bad),
        ])
        assert r == 3
        assert "truncated" in capsys.readouterr().err

    def test_standard_file_for_priors_is_usage_error(self, workdir, capsys):
        r = main([
            "certify", "--model", workdir["model"],
            "--priors", workdir["model"],
        ])
        assert r == 2
        assert "no priors" in capsys.readouterr().err

    def test_missing_model_file(self, workdir, tmp_path):
        r = main([
            "certify", "--model", str(tmp_path / "ghost.nvtx"),
            "--priors", workdir["priors"],
        ])
        assert r == 2

    def test_corrupt_weight_file_is_data_error(self, workdir, tmp_path):
        junk = tmp_path / "junk.nvtx"
        junk.write_bytes(b"not a weight file at all")
        r = main([
            "certify", "--model", str(junk), "--priors", workdir["priors"],
        ])
        assert r == 3


class TestSweep:
    def test_writes_csv(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        r = main([
            "sweep", "--model", workdir["model"],
            "--priors", workdir["priors"],
            "--grid", "interp:3", "--trials", "2", "--out", out,
        ])
        assert r == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0].startswith("tau_alpha_e,")
        assert len(lines) == 4

    def test_bad_grid_is_usage_error(self, workdir, tmp_path):
        r = main([
            "sweep", "--model", workdir["model"],
            "--priors", workdir["priors"],
            "--grid", "spiral:3", "--out", str(tmp_path / "s.csv"),
        ])
        assert r == 2


class TestAttnDump:
    def test_encoder_map_csv(self, workdir, tmp_path):
        out = str(tmp_path / "map.csv")
        r = main([
            "attn-dump", "--model", workdir["priors"],
            "--input", "3 4 5 6", "--layer", "0", "--group", "encoder",
            "--out", out,
        ])
        assert r == 0
        lines = (tmp_path / "map.csv").read_text().strip().split("\n")
        assert lines[0] == "query,k0,k1,k2,k3,[P]"
        assert len(lines) == 5
        for q, ln in enumerate(lines[1:]):
            parts = ln.split(",")
            assert int(parts[0]) == q
            weights = [float(v) for v in parts[1:]]
            np.testing.assert_allclose(sum(weights), 1.0, rtol=1e-9)

    def test_collapse_dials_put_mass_on_prior(self, workdir, tmp_path):
        out = str(tmp_path / "map.csv")
        r = main([
            "attn-dump", "--model", workdir["priors"],
            "--input", "3 4 5", "--layer", "1", "--group", "decoder",
            "--tau-alpha", "-30", "--tau-sigma", "0.25", "--out", out,
        ])
        assert r == 0
        lines = (tmp_path / "map.csv").read_text().strip().split("\n")
        for ln in lines[1:]:
            assert float(ln.split(",")[-1]) > 0.99

    def test_layer_out_of_range(self, workdir, tmp_path):
        r = main([
            "attn-dump", "--model", workdir["priors"],
            "--input", "3 4 5", "--layer", "9", "--group", "encoder",
            "--out", str(tmp_path / "map.csv"),
        ])
        assert r == 2

    def test_bad_input_tokens(self, workdir, tmp_path):
        r = main([
            "attn-dump", "--model", workdir["priors"],
            "--input", "3 4 five", "--layer", "0", "--group", "encoder",
            "--out", str(tmp_path / "map.csv"),
        ])
        assert r == 2


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["certify", "--model", "x.nvtx"]) == 2
        capsys.readouterr()
