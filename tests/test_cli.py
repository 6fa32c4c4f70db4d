"""End-to-end tests of the command-line interface.

Exit-code contract: 0 success, 1 certification failure, 2 usage error,
3 data error.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import nvtransformer
from nvtransformer import (
    ModelWeights,
    NvModel,
    WeightFormatError,
    load_weights,
    write_corpus,
)
from nvtransformer.cli import _build_parser, main
from nvtransformer.evaluate import make_random_corpus
from nvtransformer.model import ModelConfig
from nvtransformer.nvib import TauConfig, identity_taus

# token spellings Python's int accepts but a token id must not use
NOT_ASCII_DECIMAL = ["1_0", "+4", "\u0663"]
NOT_ASCII_DECIMAL_IDS = ["underscore", "plus", "arabic-indic-digit"]


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


@pytest.fixture(scope="module")
def twin(workdir) -> NvModel:
    return load_weights(workdir["priors"])


def assert_refused(capsys, argv, bad) -> None:
    """`main(argv)`, given the file `bad` that the loader refuses, exits 3
    and prints `error: ` and the loader's message."""
    with pytest.raises(WeightFormatError) as refusal:
        load_weights(bad)
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {refusal.value}\n"


def twin_command(command, model, out, *flags) -> list[str]:
    """`certify` or `sweep` of the file `model`; a sweep writes a two-point
    grid to `out`."""
    grid = ["--grid", "interp:2", "--out", str(out)] if command == "sweep" else []
    return [command, "--model", model, *grid, *flags]


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

    @pytest.mark.parametrize(
        "line",
        ["dim=1_6", "heads=+2", "vocab=\u0666\u0664", "dim=x"],
        ids=["underscore", "plus", "arabic-indic-digits", "not-a-number"],
    )
    def test_config_value_is_an_ascii_decimal(self, tmp_path, capsys, line):
        # the token-id rule: what int() would also read is refused
        cfg_file = tmp_path / "model.cfg"
        cfg_file.write_text(f"# toy setup\n{line}\n", encoding="utf-8")
        r = main(["init-model", "--config", str(cfg_file),
                  "--out", str(tmp_path / "m.nvtx")])
        assert r == 2
        key = line.partition("=")[0]
        assert f"model.cfg:2: {key} needs an integer" in capsys.readouterr().err
        assert not (tmp_path / "m.nvtx").exists()

    def test_config_key_set_twice_is_usage_error(self, tmp_path, capsys):
        # the later value used to win silently: dim 32, not 16
        cfg_file = tmp_path / "model.cfg"
        cfg_file.write_text("dim=16\nheads=2\ndim=32\n")
        r = main(["init-model", "--config", str(cfg_file),
                  "--out", str(tmp_path / "m.nvtx")])
        assert r == 2
        assert "model.cfg:3: dim is set twice" in capsys.readouterr().err
        assert not (tmp_path / "m.nvtx").exists()

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

    @pytest.mark.parametrize("bad", ["out", "report"])
    @pytest.mark.parametrize("how", ["directory", "missing-parent"])
    def test_unwritable_output_exits_before_the_corpus_pass(
        self, workdir, tmp_path, capsys, monkeypatch, bad, how
    ):
        def no_pass(*args, **kwargs):
            raise AssertionError("estimate_priors ran")

        monkeypatch.setattr(nvtransformer.cli, "estimate_priors", no_pass)
        outdir = tmp_path / "outputs"
        outdir.mkdir()
        paths = {"out": str(outdir / "p.nvtx"), "report": str(outdir / "p.csv")}
        paths[bad] = str(outdir) if how == "directory" else str(outdir / "nope" / "x")
        r = main([
            "estimate-prior", "--model", workdir["model"],
            "--corpus", workdir["corpus"],
            "--out", paths["out"], "--report", paths["report"],
        ])
        assert r == 2
        strerror = "Is a directory" if how == "directory" else "No such file or directory"
        assert f"{strerror}: '{paths[bad]}'" in capsys.readouterr().err
        assert list(outdir.iterdir()) == []

    def test_report_naming_the_out_file_exits_before_the_corpus_pass(
        self, workdir, tmp_path, capsys, monkeypatch
    ):
        # the CSV used to overwrite the twin it was written after
        def no_pass(*args, **kwargs):
            raise AssertionError("estimate_priors ran")

        monkeypatch.setattr(nvtransformer.cli, "estimate_priors", no_pass)
        monkeypatch.chdir(tmp_path)
        r = main([
            "estimate-prior", "--model", workdir["model"],
            "--corpus", workdir["corpus"], "--out", "p.nvtx", "--report", "./p.nvtx",
        ])
        assert r == 2
        assert "--report ./p.nvtx is the --out file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    def test_id_past_int64_in_corpus_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("3 99999999999999999999999\n3 4 5\n")
        r = main([
            "estimate-prior", "--model", workdir["model"],
            "--corpus", str(bad), "--out", str(tmp_path / "p.nvtx"),
        ])
        assert r == 3
        assert "sequence 0 not usable" in capsys.readouterr().err

    def test_blank_corpus_is_data_error(self, workdir, tmp_path, capsys):
        blank = tmp_path / "blank.txt"
        blank.write_text("\n  \n")
        r = main([
            "estimate-prior", "--model", workdir["model"],
            "--corpus", str(blank), "--out", str(tmp_path / "p.nvtx"),
        ])
        assert r == 3
        assert "corpus is empty" in capsys.readouterr().err

    def test_non_utf8_corpus_line_is_data_error(self, workdir, tmp_path, capsys):
        # the codec's error used to exit 2 without naming the line
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"3 4 5\r\n3 \xff 5\n")
        r = main([
            "estimate-prior", "--model", workdir["model"],
            "--corpus", str(bad), "--out", str(tmp_path / "p.nvtx"),
        ])
        assert r == 3
        assert "line 2: 'utf-8' codec can't decode" in capsys.readouterr().err

    @pytest.mark.parametrize("token", NOT_ASCII_DECIMAL, ids=NOT_ASCII_DECIMAL_IDS)
    def test_token_not_ascii_decimal_is_data_error(
        self, workdir, tmp_path, capsys, token
    ):
        # Python's int reads each as an id in range: 10, 4 and 3
        bad = tmp_path / "bad.txt"
        bad.write_text(f"3 4 5\n3 {token} 5\n", encoding="utf-8")
        r = main([
            "estimate-prior", "--model", workdir["model"],
            "--corpus", str(bad), "--out", str(tmp_path / "p.nvtx"),
        ])
        assert r == 3
        assert "line 2: not a token id" in capsys.readouterr().err


class TestCertify:
    @pytest.mark.parametrize(
        "shape", [[], ["--dim", "32", "--heads", "4"]], ids=["2-heads", "4-heads"]
    )
    def test_identity_passes(self, workdir, tmp_path, capsys, shape):
        priors = workdir["priors"]
        if shape:  # the head-space kernel at another head count
            model, priors = str(tmp_path / "m.nvtx"), str(tmp_path / "p.nvtx")
            assert main(["init-model", "--seed", "7", *shape, "--out", model]) == 0
            assert main([
                "estimate-prior", "--model", model, "--corpus", workdir["corpus"],
                "--out", priors,
            ]) == 0
            capsys.readouterr()
        r = main(["certify", "--model", priors, "--trials", "5"])
        out = capsys.readouterr().out
        assert r == 0
        assert "max logit diff:" in out
        assert "decode overlap:" in out
        assert out.splitlines()[-1] == "PASS"

    def test_over_regularised_fails_with_code_1(self, workdir, capsys):
        r = main([
            "certify", "--model", workdir["priors"], "--trials", "5",
            "--tau-alpha", "-30", "--tau-sigma", "0.25",
        ])
        assert r == 1
        assert "FAIL" in capsys.readouterr().out

    def test_non_finite_dial_is_usage_error(self, workdir, capsys):
        r = main([
            "certify", "--model", workdir["priors"], "--tau-alpha", "nan",
        ])
        assert r == 2
        assert "tau_alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "sweep"])
    def test_standard_file_is_usage_error(self, workdir, tmp_path, capsys, command):
        out = tmp_path / "s.csv"
        assert main(twin_command(command, workdir["model"], out)) == 2
        want = f"error: {workdir['model']} holds no priors (not a reinterpreted model)\n"
        assert capsys.readouterr().err == want
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "sweep"])
    def test_two_file_invocation_is_usage_error(self, workdir, tmp_path, capsys, command):
        # the base weights and the twin were once given as --model and
        # --priors; the twin holds both
        out = tmp_path / "s.csv"
        argv = twin_command(command, workdir["model"], out, "--priors", workdir["priors"])
        assert main(argv) == 2
        assert "unrecognized arguments: --priors" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["certify", "sweep"])
    def test_reads_one_file(self, workdir, tmp_path, monkeypatch, command):
        # each once read the base weights and the twin, two files
        read = []

        def load(path):
            read.append(path)
            return load_weights(path)

        monkeypatch.setattr(nvtransformer.cli, "load_weights", load)
        argv = twin_command(command, workdir["priors"], tmp_path / "s.csv", "--trials", "1")
        assert main(argv) == 0
        assert read == [workdir["priors"]]

    def test_missing_model_file(self, workdir, tmp_path):
        r = main(["certify", "--model", str(tmp_path / "ghost.nvtx")])
        assert r == 2


class TestSweep:
    def test_writes_csv(self, workdir, tmp_path, capsys):
        out = str(tmp_path / "sweep.csv")
        r = main([
            "sweep", "--model", workdir["priors"],
            "--grid", "interp:3", "--trials", "2", "--out", out,
        ])
        assert r == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert lines[0].startswith("tau_alpha_e,")
        assert len(lines) == 4

    def test_bad_grid_is_usage_error(self, workdir, tmp_path):
        r = main([
            "sweep", "--model", workdir["priors"],
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

    def test_collapse_map_rows_are_distributions(self, workdir, tmp_path):
        out = tmp_path / "map.csv"
        r = main([
            "attn-dump", "--model", workdir["priors"], "--input", "3 14 25 36",
            "--layer", "0", "--group", "encoder",
            "--tau-alpha", "-30", "--tau-sigma", "0.25", "--out", str(out),
        ])
        assert r == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "query,k0,k1,k2,k3,[P]"
        assert len(lines) == 5
        for ln in lines[1:]:
            weights = [float(v) for v in ln.split(",")[1:]]
            np.testing.assert_allclose(sum(weights), 1.0, rtol=0, atol=1e-9)

    def test_max_len_input_is_cut_like_the_estimator(self, workdir, tmp_path):
        # 32 source tokens: the teacher-forced decoder input [BOS] + src is
        # cut to max_len, so the map covers every source token
        out = tmp_path / "map.csv"
        src = " ".join(str(3 + i) for i in range(ModelConfig().max_len))
        r = main([
            "attn-dump", "--model", workdir["priors"], "--input", src,
            "--layer", "0", "--group", "encoder", "--out", str(out),
        ])
        assert r == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + 32
        assert all(len(ln.split(",")) == 1 + 33 for ln in lines)

    def test_layer_out_of_range(self, workdir, tmp_path):
        r = main([
            "attn-dump", "--model", workdir["priors"],
            "--input", "3 4 5", "--layer", "9", "--group", "encoder",
            "--out", str(tmp_path / "map.csv"),
        ])
        assert r == 2

    def test_empty_input_is_usage_error(self, workdir, tmp_path, capsys):
        r = main([
            "attn-dump", "--model", workdir["priors"], "--input", "",
            "--layer", "0", "--group", "encoder",
            "--out", str(tmp_path / "map.csv"),
        ])
        assert r == 2
        assert "source not usable: length 0" in capsys.readouterr().err

    def test_input_id_past_int64_is_usage_error(self, workdir, tmp_path, capsys):
        r = main([
            "attn-dump", "--model", workdir["priors"],
            "--input", "3 99999999999999999999999", "--layer", "0",
            "--group", "encoder", "--out", str(tmp_path / "map.csv"),
        ])
        assert r == 2
        assert "int64" in capsys.readouterr().err

    @pytest.mark.parametrize("token", NOT_ASCII_DECIMAL, ids=NOT_ASCII_DECIMAL_IDS)
    def test_input_token_not_ascii_decimal_is_usage_error(
        self, workdir, tmp_path, capsys, token
    ):
        r = main([
            "attn-dump", "--model", workdir["priors"],
            "--input", f"3 {token} 5", "--layer", "0", "--group", "encoder",
            "--out", str(tmp_path / "map.csv"),
        ])
        assert r == 2
        assert "not a token id" in capsys.readouterr().err

    def test_bad_input_tokens(self, workdir, tmp_path):
        r = main([
            "attn-dump", "--model", workdir["priors"],
            "--input", "3 4 five", "--layer", "0", "--group", "encoder",
            "--out", str(tmp_path / "map.csv"),
        ])
        assert r == 2


class TestFileAccess:
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--model", "DIR"],
            ["estimate-prior", "--model", "MODEL", "--corpus", "DIR", "--out", "OUT"],
            ["estimate-prior", "--model", "MODEL", "--corpus", "CORPUS", "--out", "DIR"],
        ],
        ids=["model", "corpus", "out"],
    )
    def test_directory_for_a_file_is_usage_error(self, workdir, tmp_path, capsys, argv):
        # IsADirectoryError used to escape as a traceback with exit 1
        files = {
            "DIR": str(tmp_path), "MODEL": workdir["model"], "PRIORS": workdir["priors"],
            "CORPUS": workdir["corpus"], "OUT": str(tmp_path / "p.nvtx"),
        }
        assert main([files.get(a, a) for a in argv]) == 2
        assert f"error: [Errno 21] Is a directory: '{tmp_path}'" in capsys.readouterr().err


    @pytest.mark.parametrize("fault", ["junk", "no-dial"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "--model", "BAD"],
            ["sweep", "--model", "BAD", "--grid", "interp:2", "--out", "OUT"],
            ["attn-dump", "--model", "BAD", "--input", "3 4 5", "--layer", "0",
             "--group", "encoder", "--out", "OUT"],
            ["estimate-prior", "--model", "BAD", "--corpus", "CORPUS", "--out", "OUT"],
        ],
        ids=["certify-model", "sweep-model", "attn-dump-model", "estimate-prior-model"],
    )
    def test_refused_file_is_data_error(
        self, workdir, twin, with_tail, tmp_path, capsys, argv, fault
    ):
        # each refusal is tested where the loader raises it (test_serialize.py);
        # here, that every file argument passes it on as exit 3
        if fault == "junk":
            bad = tmp_path / "junk.nvtx"
            bad.write_bytes(b"not a weight file at all")
        else:  # the twin whose tail lacks a dial, which once loaded at its default
            bad = with_tail(twin, lambda tail: tail["taus"].pop("tau_alpha_enc"))
        files = {
            "BAD": str(bad), "CORPUS": workdir["corpus"], "OUT": str(tmp_path / "out"),
        }
        assert_refused(capsys, [files.get(a, a) for a in argv], str(bad))
        assert not (tmp_path / "out").exists()


class TestOutputRule:
    """Every output must be writable and name none of the command's input
    files or other outputs, as `os.path.realpath` resolves them; a breach
    exits 2 before any work and leaves every file as it was."""

    # every call that reads an input or does the command's work
    WORK = ["load_weights", "read_corpus", "_parse_config_file", "init_weights",
            "estimate_priors", "run_sweep", "forward_nv"]
    ATTN = ["attn-dump", "--input", "3 4 5", "--layer", "0", "--group", "encoder"]

    @pytest.mark.parametrize(
        "argv, why",
        [
            (["init-model", "--config", "CONFIG", "--out", "CONFIG"],
             "--out CONFIG is the --config file"),
            (["init-model", "--out", "MISSING"], "No such file or directory: 'MISSING'"),
            (["estimate-prior", "--model", "MODEL", "--corpus", "CORPUS", "--out", "MODEL"],
             "--out MODEL is the --model file"),
            (["estimate-prior", "--model", "MODEL", "--corpus", "CORPUS", "--out", "OUT",
              "--report", "CORPUS"], "--report CORPUS is the --corpus file"),
            (["sweep", "--model", "PRIORS", "--grid", "interp:2", "--out", "PRIORS"],
             "--out PRIORS is the --model file"),
            (["sweep", "--model", "PRIORS", "--grid", "interp:2", "--out", "LINK"],
             "--out LINK is the --model file"),
            (["sweep", "--model", "PRIORS", "--grid", "interp:2", "--out", "MISSING"],
             "No such file or directory: 'MISSING'"),
            (ATTN + ["--model", "PRIORS", "--out", "PRIORS"], "--out PRIORS is the --model file"),
            (ATTN + ["--model", "PRIORS", "--out", "MISSING"],
             "No such file or directory: 'MISSING'"),
        ],
        ids=["init-model-config", "init-model-missing-dir", "estimate-prior-model",
             "estimate-prior-report-corpus", "sweep-model", "sweep-model-symlink",
             "sweep-missing-dir", "attn-dump-model", "attn-dump-missing-dir"],
    )
    def test_breach_exits_before_any_work(
        self, workdir, tmp_path, capsys, monkeypatch, argv, why
    ):
        # a sweep once wrote its CSV over its --model and exited 0, and a
        # --report over the corpus; a missing directory showed only after
        # the whole sweep
        for name in ("model", "priors", "corpus"):
            (tmp_path / pathlib.Path(workdir[name]).name).write_bytes(
                pathlib.Path(workdir[name]).read_bytes()
            )
        (tmp_path / "config.txt").write_text("dim=16\n")
        (tmp_path / "link.nvtx").symlink_to(tmp_path / "priors.nvtx")
        files = {
            "MODEL": "model.nvtx", "PRIORS": "priors.nvtx", "CORPUS": "corpus.txt",
            "CONFIG": "config.txt", "LINK": "link.nvtx", "OUT": "out.nvtx",
            "MISSING": str(pathlib.Path("missing", "s.csv")),
        }
        for name in self.WORK:
            monkeypatch.setattr(nvtransformer.cli, name, self.no_work(name))
        monkeypatch.chdir(tmp_path)
        before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}

        assert main([files.get(a, a) for a in argv]) == 2
        err = capsys.readouterr().err
        for key, value in files.items():
            why = why.replace(key, value)
        assert why in err
        after = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
        assert after == before

    @staticmethod
    def no_work(name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} ran")

        return refuse


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag(self, capsys):
        assert main(["sweep", "--model", "x.nvtx"]) == 2
        assert "required: --grid, --out" in capsys.readouterr().err

    @staticmethod
    def run_from_source(*args):
        """`python *args` from a source checkout, package not installed."""
        src = str(pathlib.Path(nvtransformer.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
        )

    def test_module_entry_point_runs_from_source(self):
        r = self.run_from_source("-m", "nvtransformer", "--help")
        assert r.returncode == 0, r.stderr
        assert "estimate-prior" in r.stdout

    @pytest.mark.parametrize(
        "launch",
        [
            ("-m", "nvtransformer"),
            # what the installed `nvtransformer` console script runs
            ("-c", "from nvtransformer.cli import entry; entry()"),
        ],
        ids=["module", "console-script"],
    )
    def test_entry_exit_codes(self, launch):
        r = self.run_from_source(*launch, "--help")
        assert r.returncode == 0, r.stderr
        r = self.run_from_source(*launch, "certify")
        assert r.returncode == 2
        assert "required" in r.stderr

    def test_module_without_command_and_with_init_model(self, tmp_path):
        r = self.run_from_source("-m", "nvtransformer")
        assert r.returncode == 2
        assert "required: command" in r.stderr
        out = tmp_path / "m.nvtx"
        r = self.run_from_source("-m", "nvtransformer", "init-model", "--out", str(out))
        assert r.returncode == 0, r.stderr
        assert load_weights(str(out)).config == ModelConfig()


class TestArgumentEdges:
    def test_init_model_zero_heads_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "m.nvtx"
        r = main(["init-model", "--heads", "0", "--out", str(out)])
        assert r == 2
        assert "heads must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_sweep_without_trials_is_usage_error(
        self, workdir, tmp_path, capsys, trials
    ):
        out = tmp_path / "s.csv"
        r = main([
            "sweep", "--model", workdir["priors"],
            "--grid", "interp:2", "--trials", trials, "--out", str(out),
        ])
        assert r == 2
        assert "trials" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("init-model", "--dim", "1_6"),
            ("init-model", "--heads", "+2"),
            ("init-model", "--seed", "\u0663"),
            ("sweep", "--trials", "1_0"),
            ("attn-dump", "--layer", "\u0660"),
        ],
        ids=["dim-underscore", "heads-plus", "seed-arabic-indic", "trials-underscore",
             "layer-arabic-indic"],
    )
    def test_integer_flags_are_ascii_decimals(
        self, workdir, tmp_path, capsys, command, flag, value
    ):
        # the token-id rule, as in a --config file: what int() would also
        # read is refused, and the error names the flag
        out = tmp_path / "out"
        args = {
            "init-model": [],
            "sweep": ["--model", workdir["priors"], "--grid", "interp:2"],
            "attn-dump": ["--model", workdir["priors"], "--input", "3 4 5",
                          "--group", "encoder"],
        }[command]
        plain = {"1_6": "16", "+2": "2", "1_0": "1"}.get(value, "0")
        assert main([command, *args, flag, plain, "--out", str(out)]) == 0
        out.unlink()
        r = main([command, *args, flag, value, "--out", str(out)])
        assert r == 2
        assert f"argument {flag}: invalid decimal value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_certify_non_finite_tol_is_usage_error(self, workdir, capsys, tol):
        r = main([
            "certify", "--model", workdir["priors"], "--trials", "1", "--tol", tol,
        ])
        assert r == 2
        assert "tol" in capsys.readouterr().err

    def test_certify_default_dials_are_the_identity(self):
        args = _build_parser().parse_args(
            ["certify", "--model", "p.nvtx"]
        )
        assert TauConfig.uniform(args.tau_alpha, args.tau_sigma) == identity_taus()

    def test_attn_dump_omitted_dial_is_the_identity(self, workdir, tmp_path):
        # the priors file holds the identity dials, so giving either dial
        # at its identity value alone leaves the map unchanged
        ident = identity_taus()
        dials = {
            "none": [],
            "alpha": ["--tau-alpha", repr(ident.tau_alpha_enc)],
            "sigma": ["--tau-sigma", repr(ident.tau_sigma_enc)],
        }
        maps = {}
        for key, extra in dials.items():
            out = tmp_path / f"{key}.csv"
            assert main([
                "attn-dump", "--model", workdir["priors"], "--input", "3 4 5",
                "--layer", "1", "--group", "cross", "--out", str(out), *extra,
            ]) == 0
            maps[key] = out.read_bytes()
        assert maps["alpha"] == maps["none"]
        assert maps["sigma"] == maps["none"]

    @pytest.mark.parametrize("command", ["init-model", "estimate-prior", "certify", "sweep"])
    def test_negative_seed_is_usage_error(self, workdir, tmp_path, capsys, command):
        out = tmp_path / "out"
        args = {
            "init-model": ["--out", str(out)],
            "estimate-prior": [
                "--model", workdir["model"], "--corpus", workdir["corpus"],
                "--out", str(out),
            ],
            "certify": ["--model", workdir["priors"], "--trials", "1"],
            "sweep": [
                "--model", workdir["priors"], "--grid", "interp:2", "--trials", "1",
                "--out", str(out),
            ],
        }[command]
        r = main([command, "--seed", "-2", *args])
        assert r == 2
        assert "seed must be nonnegative, got -2" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value, refused", [
            ("--max-len", "4", True), ("--vocab", "3", True),
            ("--max-len", "5", False), ("--vocab", "4", False),
        ],
    )
    def test_certify_and_sweep_on_configs_too_small_for_eval_inputs(
        self, tmp_path, capsys, flag, value, refused
    ):
        # eval pairs are a source of 4+ tokens and BOS plus 3+ tokens, drawn
        # from the ids past EOS; a smaller model is valid but has no such
        # pairs, and once failed in numpy with "low >= high"
        model, corpus, priors = (str(tmp_path / f) for f in ("m.nvtx", "c.txt", "p.nvtx"))
        assert main(["init-model", flag, value, "--out", model]) == 0
        write_corpus(corpus, [[0, 1, 2], [2, 1]])
        assert main([
            "estimate-prior", "--model", model, "--corpus", corpus, "--out", priors,
        ]) == 0
        files = ["--model", priors, "--trials", "2"]
        out = tmp_path / "s.csv"
        capsys.readouterr()
        certified = main(["certify", *files])
        swept = main(["sweep", *files, "--grid", "interp:2", "--out", str(out)])
        if refused:
            assert certified == swept == 2 and not out.exists()
            err = capsys.readouterr().err
            assert err.count("random eval inputs need vocab > 3 and max_len >= 5") == 2
        else:
            assert certified in (0, 1) and swept == 0 and out.exists()
