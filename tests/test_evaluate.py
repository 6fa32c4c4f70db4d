"""Tests for certification, grids, and sweeps."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from nvtransformer import certify, grid_points, run_sweep, token_overlap
from nvtransformer import evaluate as evaluate_mod
from nvtransformer import model as model_mod
from nvtransformer.evaluate import (
    DECODE_STEPS,
    SWEEP_HEADER,
    TAU_ALPHA_RANGE,
    TAU_SIGMA_RANGE,
    SweepRow,
    interp_taus,
    make_random_corpus,
    random_eval_inputs,
    sweep_csv,
)
from nvtransformer.model import (
    BOS_ID,
    EOS_ID,
    ModelConfig,
    _greedy,
    _pad,
    _teacher_forced,
    _Twins,
    forward_nv,
    forward_standard,
    greedy_decode,
    init_weights,
    reinterpret,
)
from nvtransformer.nvib import (
    ALPHA_CLAMP_EVENTS, GROUPS, TAU_SIGMA_MIN, TauConfig, identity_taus,
)
from nvtransformer.priors import estimate_priors
from reference import make_template_corpus


def per_pair_sweep(w, priors, points, trials, seed):
    """The sweep one point and one input pair at a time: one forward_nv and
    one greedy_decode each.  The reference `run_sweep`'s padded batch is
    checked against; returns its rows and each point's decodes."""
    pairs = random_eval_inputs(w.config, trials, seed)
    baseline = [greedy_decode(w, src, DECODE_STEPS) for src, _ in pairs]
    refs = [forward_standard(w, src, tgt) for src, tgt in pairs]
    rows, decodes = [], []
    for taus in points:
        nvm = reinterpret(w, priors, taus)
        total = dict.fromkeys(GROUPS, 0.0)
        count = dict.fromkeys(GROUPS, 0)

        def hook(group, layer_id, weights):
            total[group] += float(np.sum(weights[:, -1]))
            count[group] += weights.shape[0]

        worst, overlaps, decs = 0.0, [], []
        for (src, tgt), ref, ref_decode in zip(pairs, refs, baseline):
            got = forward_nv(nvm, src, tgt, map_hook=hook)
            worst = max(worst, float(np.max(np.abs(got - ref))))
            decs.append(greedy_decode(nvm, src, DECODE_STEPS))
            overlaps.append(token_overlap(ref_decode, decs[-1]))
        rows.append(SweepRow(
            taus=taus,
            logit_max_diff=worst,
            overlap_pct=100.0 * float(np.mean(overlaps)),
            prior_mass_enc=total["encoder"] / count["encoder"],
            prior_mass_cross=total["cross"] / count["cross"],
            prior_mass_dec=total["decoder"] / count["decoder"],
            mean_decode_len=float(np.mean([len(d) for d in decs])),
        ))
        decodes.append(decs)
    return rows, decodes


def eager_eos(w, bias):
    """w with its EOS logit raised: some decodes stop after a few tokens."""
    b_out = w.b_out.copy()
    b_out[EOS_ID] += bias
    return dataclasses.replace(w, b_out=b_out)


class TestTokenOverlap:
    def test_identical(self):
        assert token_overlap([1, 2, 3], [1, 2, 3]) == 1.0

    def test_disjoint(self):
        assert token_overlap([1, 2], [3, 4]) == 0.0

    def test_partial_with_length_mismatch(self):
        # agreement over the longer length, aligned positions only
        assert token_overlap([1, 2, 3], [1, 9, 3, 4]) == 0.5

    def test_empty_cases(self):
        assert token_overlap([], []) == 1.0
        assert token_overlap([], [1]) == 0.0


class TestCorpusBuilders:
    def test_random_corpus_contents(self):
        cfg = ModelConfig()
        corpus = make_random_corpus(cfg, 50, seed=1)
        assert len(corpus) == 50
        for seq in corpus:
            assert 4 <= len(seq) <= 16
            assert all(3 <= t < cfg.vocab for t in seq)

    def test_random_corpus_deterministic(self):
        cfg = ModelConfig()
        assert make_random_corpus(cfg, 5, seed=2) == make_random_corpus(
            cfg, 5, seed=2
        )

    def test_template_corpus_is_one_repeated_sequence(self):
        cfg = ModelConfig()
        corpus = make_template_corpus(cfg, 100, seed=3)
        assert len(corpus) == 100
        assert all(seq == corpus[0] for seq in corpus)
        assert len(corpus[0]) == 30
        corpus[0][0] = 99  # rows must not alias each other
        assert corpus[1][0] != 99

    @pytest.mark.parametrize(
        "cfg", [ModelConfig(max_len=4), ModelConfig(max_len=1), ModelConfig(vocab=3)],
        ids=["max_len-4", "max_len-1", "vocab-3"],
    )
    def test_empty_draw_ranges_refused_up_front(self, cfg):
        # no lengths or no ids to draw from: a named error, not numpy's
        # "low >= high" from deep in the draw
        with pytest.raises(ValueError, match="random corpus needs vocab > 3"):
            make_random_corpus(cfg, 5, seed=1)
        if cfg.vocab == 3:
            with pytest.raises(ValueError, match="template corpus needs vocab > 3"):
                make_template_corpus(cfg, 5, seed=1)
        else:
            assert len(make_template_corpus(cfg, 2, seed=1)) == 2

    def test_explicit_lengths_must_overlap(self):
        with pytest.raises(ValueError, match="lengths 8..5"):
            make_random_corpus(ModelConfig(), 5, seed=1, min_len=8, max_len=5)
        # the smallest configs with something to draw still draw
        assert all(len(s) == 4 for s in make_random_corpus(ModelConfig(max_len=5), 3, seed=1))
        assert all(set(s) == {3} for s in make_random_corpus(ModelConfig(vocab=4), 3, seed=1))

    @pytest.mark.parametrize("min_len, max_len", [(-1, 2), (0, 3), (-5, -1)])
    def test_lengths_below_one_refused(self, min_len, max_len):
        # (-1, 2) returned empty sequences among the others, (-5, -1)
        # failed inside NumPy with "negative dimensions are not allowed"
        with pytest.raises(ValueError, match=rf"^min_len must be at least 1, got {min_len}$"):
            make_random_corpus(ModelConfig(), 3, seed=0, min_len=min_len, max_len=max_len)

    def test_eval_inputs_teacher_forced(self):
        cfg = ModelConfig()
        pairs = random_eval_inputs(cfg, 10, seed=4)
        assert len(pairs) == 10
        for src, tgt in pairs:
            assert tgt[0] == BOS_ID
            assert all(3 <= t < cfg.vocab for t in src)


class TestGrids:
    def test_interp_endpoints(self):
        t0 = interp_taus(0.0)
        assert t0.tau_alpha_enc == TAU_ALPHA_RANGE[1]
        assert t0.tau_sigma_dec == TAU_SIGMA_RANGE[0]
        t1 = interp_taus(1.0)
        assert t1.tau_alpha_cross == TAU_ALPHA_RANGE[0]
        assert t1.tau_sigma_enc == TAU_SIGMA_RANGE[1]

    def test_interp_midpoint(self):
        mid = interp_taus(0.5)
        np.testing.assert_allclose(mid.tau_alpha_enc, -2.5, rtol=1e-12)
        np.testing.assert_allclose(mid.tau_sigma_enc, 0.25, rtol=1e-6)

    def test_interp_grid(self):
        pts = grid_points("interp:4")
        assert len(pts) == 4
        assert pts[0] == interp_taus(0.0)
        assert pts[-1] == interp_taus(1.0)

    def test_single_point_grid_is_identity_corner(self):
        (only,) = grid_points("interp:1")
        assert only == identity_taus()
        assert only.tau_alpha_enc == 10.0
        assert only.tau_sigma_enc == TAU_SIGMA_MIN

    def test_random_grid_in_box(self):
        pts = grid_points("random:6", seed=7)
        assert len(pts) == 6
        for p in pts:
            for g in ("encoder", "cross", "decoder"):
                assert TAU_ALPHA_RANGE[0] <= p.tau_alpha(g) <= TAU_ALPHA_RANGE[1]
                assert TAU_SIGMA_RANGE[0] <= p.tau_sigma(g) <= TAU_SIGMA_RANGE[1]

    def test_random_grid_seeded(self):
        assert grid_points("random:3", seed=1) == grid_points("random:3", seed=1)
        assert grid_points("random:3", seed=1) != grid_points("random:3", seed=2)

    def test_bad_specs(self):
        # K is one ASCII decimal, as a token id is: int() read the last three
        # as 10, 2 and 3 points
        for spec in ("interp:x", "foo:3", "interp:0", "interp",
                     "interp:1_0", "interp: 2", "random:\u0663"):
            with pytest.raises(ValueError, match="grid"):
                grid_points(spec)


class TestCertify:
    def test_identity_passes(self, toy_model, toy_priors):
        res = certify(
            toy_model, toy_priors, interp_taus(0.0), trials=4, tol=1e-5, seed=3
        )
        assert res.passed
        assert res.max_logit_diff <= 1e-5
        assert res.overlap_pct == 100.0
        assert res.trials == 4

    def test_over_regularised_fails(self, toy_model, toy_priors):
        res = certify(
            toy_model, toy_priors, interp_taus(1.0), trials=4, tol=1e-5, seed=3
        )
        assert not res.passed
        assert res.max_logit_diff > 1e-5

    def test_validation(self, toy_model, toy_priors):
        with pytest.raises(ValueError, match="trials"):
            certify(toy_model, toy_priors, interp_taus(0.0), trials=0, tol=1e-5)
        with pytest.raises(ValueError, match="tol"):
            certify(toy_model, toy_priors, interp_taus(0.0), trials=1, tol=0.0)


class TestSweep:
    def test_rows_and_csv(self, toy_model, toy_priors):
        points = grid_points("interp:3")
        rows = run_sweep(toy_model, toy_priors, points, trials=3, seed=5)
        assert len(rows) == 3
        assert rows[0].taus == points[0]
        assert rows[0].logit_max_diff <= 1e-5
        assert rows[0].overlap_pct == 100.0
        for r in rows:
            for mass in (r.prior_mass_enc, r.prior_mass_cross, r.prior_mass_dec):
                assert 0.0 <= mass <= 1.0
            assert np.isfinite(r.logit_max_diff)
            assert 0.0 <= r.overlap_pct <= 100.0

        text = sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 4
        for ln in lines[1:]:
            assert len(ln.split(",")) == 12
            [float(v) for v in ln.split(",")]

    def test_prior_mass_grows_along_path(self, toy_model, toy_priors):
        rows = run_sweep(
            toy_model, toy_priors, grid_points("interp:3"), trials=2, seed=6
        )
        assert rows[0].prior_mass_enc < 1e-6
        assert rows[-1].prior_mass_enc > 0.5

    def test_alpha_dial_past_float_range_is_clamped_without_a_warning(
        self, toy_model, toy_priors
    ):
        # each row's epsilon_alpha * 1e308 overflowed with a RuntimeWarning;
        # the infinite b_alpha is clamped, which loses the norm weighting
        (row,) = run_sweep(toy_model, toy_priors, [TauConfig.uniform(1e308, TAU_SIGMA_MIN)], 2)
        assert 1e-5 < row.logit_max_diff < np.inf

    def test_no_points_is_no_rows_and_no_twin(self, monkeypatch, toy_model, toy_priors):
        def no_twin(*args, **kwargs):
            raise AssertionError("a twin was built")

        monkeypatch.setattr(evaluate_mod, "_Twins", no_twin)
        assert run_sweep(toy_model, toy_priors, []) == []

    def test_deterministic(self, toy_model, toy_priors):
        pts = grid_points("interp:2")
        a = run_sweep(toy_model, toy_priors, pts, trials=2, seed=7)
        b = run_sweep(toy_model, toy_priors, pts, trials=2, seed=7)
        assert sweep_csv(a) == sweep_csv(b)


class TestBatchedSweep:
    """`run_sweep`'s one padded batch against the per-pair loop."""

    @pytest.mark.parametrize("grid", ["interp:5", "random:3"])
    @pytest.mark.parametrize("eos", [False, True], ids=["toy", "eager-eos"])
    def test_matches_per_pair_loop(self, toy_model, toy_priors, grid, eos):
        w = eager_eos(toy_model, 1.5) if eos else toy_model
        points = grid_points(grid, seed=2)
        got = run_sweep(w, toy_priors, points, trials=4, seed=9)
        want, decodes = per_pair_sweep(w, toy_priors, points, trials=4, seed=9)
        for g, r in zip(got, want):
            assert g.taus == r.taus
            assert g.overlap_pct == r.overlap_pct
            assert g.mean_decode_len == r.mean_decode_len
            for name in ("logit_max_diff", "prior_mass_enc", "prior_mass_cross", "prior_mass_dec"):
                np.testing.assert_allclose(getattr(g, name), getattr(r, name), rtol=0, atol=1e-12)
        # the decodes themselves, as run_sweep batches them
        pairs = random_eval_inputs(w.config, 4, seed=9)
        src, src_valid = _pad([s for s, _ in pairs])
        batch = _Twins(w, toy_priors, [taus for taus in points for _ in pairs])
        tiled = (np.tile(src, (len(points), 1)), np.tile(src_valid, (len(points), 1)))
        flat = [d for decs in decodes for d in decs]
        assert _greedy(batch, tiled[0], DECODE_STEPS, tiled[1]) == flat
        if eos:
            assert len({len(d) for d in flat}) > 1

    @pytest.mark.parametrize("eos", [False, True], ids=["toy", "eager-eos"])
    def test_mixed_batch_rows_are_each_kinds_own(self, toy_model, toy_priors, eos):
        # the sweep's batch: its T standard rows give, bit for bit, the
        # reference logits and baseline decodes of the standard model over
        # the same padded pairs, and its twin rows those of the twins alone
        w = eager_eos(toy_model, 1.5) if eos else toy_model
        points = grid_points("random:3", seed=2)
        pairs = random_eval_inputs(w.config, 4, seed=9)
        k, t = len(points), len(pairs)
        assert len({len(s) for s, _ in pairs}) > 1 and len({len(g) for _, g in pairs}) > 1
        rows = [taus for taus in points for _ in pairs]
        mixed = _Twins(w, toy_priors, rows, head=t)
        (src, src_valid), (tgt, tgt_valid) = (_pad([p[i] for p in pairs] * (k + 1)) for i in (0, 1))
        got = _teacher_forced(mixed, src, tgt, None, src_valid, tgt_valid)
        ref = _teacher_forced(w, src[:t], tgt[:t], None, src_valid[:t], tgt_valid[:t])
        twins = _teacher_forced(
            _Twins(w, toy_priors, rows), src[t:], tgt[t:], None, src_valid[t:], tgt_valid[t:]
        )
        assert np.array_equal(got[:t], ref)
        assert np.array_equal(got[t:], twins)
        decodes = _greedy(mixed, src, DECODE_STEPS, src_valid)
        baseline = _greedy(w, src[:t], DECODE_STEPS, src_valid[:t])
        assert decodes[:t] == baseline
        assert decodes[t:] == _greedy(_Twins(w, toy_priors, rows), src[t:], DECODE_STEPS, src_valid[t:])
        if eos:
            assert len({len(d) for d in decodes}) > 1

    @pytest.mark.parametrize("eos", [False, True], ids=["toy", "eager-eos"])
    def test_encodes_once_and_keys_each_cross_site_once(self, toy_model, toy_priors, eos, monkeypatch):
        # the decode attends the teacher-forced pass's encoder states and
        # cross keys as they are: the rows, CSV and decodes are bit for bit
        # those of a sweep whose two passes each encode for themselves
        w = eager_eos(toy_model, 1.5) if eos else toy_model
        points = grid_points("random:3", seed=2)
        pairs = random_eval_inputs(w.config, 4, seed=9)
        assert len({len(s) for s, _ in pairs}) > 1  # a padded batch

        def sweep(share):
            """The sweep's rows and decodes; without `share`, each pass is
            called without the shared keys and encodes for itself."""
            decodes = []

            def greedy(*args):
                decodes.append(_greedy(*(args if share else args[:4])))
                return decodes[0]

            with monkeypatch.context() as patch:
                patch.setattr(evaluate_mod, "_teacher_forced",
                              lambda *args: _teacher_forced(*(args if share else args[:6])))
                patch.setattr(evaluate_mod, "_greedy", greedy)
                return run_sweep(w, toy_priors, points, trials=4, seed=9), decodes[0]

        encodes, keyed = [], Counter()
        encode, head_keys = model_mod._encode, model_mod.head_keys

        def counting_encode(*args):
            encodes.append(1)
            return encode(*args)

        def counting_head_keys(z, proj, *args):
            keyed[proj.prior.layer_group, proj.prior.layer_id] += 1
            return head_keys(z, proj, *args)

        want, want_decodes = sweep(share=False)
        with monkeypatch.context() as patch:
            patch.setattr(model_mod, "_encode", counting_encode)
            patch.setattr(model_mod, "head_keys", counting_head_keys)
            got, decodes = sweep(share=True)
            assert encodes == [1]
            assert [keyed["cross", l] for l in range(w.config.layers_dec)] == [1] * w.config.layers_dec
            certify(w, toy_priors, points[0], trials=4, tol=1e-5, seed=9)
            assert encodes == [1, 1]
        assert got == want and sweep_csv(got) == sweep_csv(want)
        assert decodes == want_decodes
        if eos:
            assert len({len(d) for d in decodes}) > 1

    def test_clamp_events_count_no_padded_row(self, toy_model, toy_priors, monkeypatch):
        # dials far past the clamp in both directions clamp every real token
        # component; padded ones, and decode steps past a row's EOS, must
        # not count.  Each real row counts once per key map that keys it:
        # the loop keys a pair's encoder and cross rows in its forward_nv
        # and again in its decode, where the sweep's decode reuses its
        # teacher-forced pass's, so those count once
        w = eager_eos(toy_model, 1.2)
        points = [
            TauConfig.uniform(1e3, TAU_SIGMA_MIN),
            TauConfig.uniform(-1e3, 0.25),
            interp_taus(0.0),
        ]
        by_group, head_keys = Counter(), model_mod.head_keys

        def counting_head_keys(z, proj, *args):
            before = ALPHA_CLAMP_EVENTS.count
            keyed = head_keys(z, proj, *args)
            by_group[proj.prior.layer_group] += ALPHA_CLAMP_EVENTS.count - before
            return keyed

        ALPHA_CLAMP_EVENTS.reset()
        with monkeypatch.context() as patch:
            patch.setattr(model_mod, "head_keys", counting_head_keys)
            _, decodes = per_pair_sweep(w, toy_priors, points, trials=4, seed=9)
        twice = by_group["encoder"] + by_group["cross"]
        assert twice > 0 and twice % 2 == 0
        want = ALPHA_CLAMP_EVENTS.count - twice // 2
        # rows of the first point stop at different steps
        assert {len(d) for d in decodes[0]} == {2, DECODE_STEPS}
        ALPHA_CLAMP_EVENTS.reset()
        run_sweep(w, toy_priors, points, trials=4, seed=9)
        got = ALPHA_CLAMP_EVENTS.count
        ALPHA_CLAMP_EVENTS.reset()
        assert want > 0
        assert got == want


class TestTrialsAndTol:
    @pytest.mark.parametrize("trials", [0, -3])
    def test_sweep_rejects_no_trials(self, toy_model, toy_priors, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            run_sweep(toy_model, toy_priors, grid_points("interp:2"), trials=trials)

    @pytest.mark.parametrize("trials", [2.0, True], ids=["float", "bool"])
    def test_sweep_and_certify_reject_non_integer_trials(self, toy_model, toy_priors, trials):
        # 2.0 once raised a NumPy TypeError deep in the input draw, and True
        # ran one trial
        with pytest.raises(ValueError, match="trials must be an integer"):
            run_sweep(toy_model, toy_priors, grid_points("interp:2"), trials=trials)
        with pytest.raises(ValueError, match="trials must be an integer"):
            certify(toy_model, toy_priors, interp_taus(0.0), trials=trials, tol=1e-5)

    @pytest.mark.parametrize(
        "name, call",
        [
            ("n", lambda w, p: make_random_corpus(w.config, 2.5, 0)),
            ("n", lambda w, p: make_random_corpus(w.config, True, 0)),
            ("min_len", lambda w, p: make_random_corpus(w.config, 2, 0, min_len=4.0)),
            ("max_len", lambda w, p: make_random_corpus(w.config, 2, 0, 4, 6.0)),
            ("k", lambda w, p: random_eval_inputs(w.config, 2.0, 0)),
            ("n", lambda w, p: make_template_corpus(w.config, 2.0, 0)),
            ("shards", lambda w, p: estimate_priors(w, [[3, 4]], shards=2.5)),
            ("shards", lambda w, p: estimate_priors(w, [[3, 4]], shards=True)),
            ("seed", lambda w, p: estimate_priors(w, [[3, 4]], seed=True)),
            ("seed", lambda w, p: init_weights(w.config, 1.5)),
            ("seed", lambda w, p: grid_points("random:2", seed=1.5)),
            ("seed", lambda w, p: certify(w, p, interp_taus(0.0), 2, 1e-5, seed=1.5)),
        ],
        ids=[
            "corpus-n-float", "corpus-n-bool", "corpus-min_len", "corpus-max_len",
            "eval-inputs-k", "template-n", "shards-float", "shards-bool",
            "estimate-seed-bool", "init-seed", "grid-seed", "certify-seed",
        ],
    )
    def test_counts_and_seeds_must_be_integers(self, toy_model, toy_priors, name, call):
        # each once raised NumPy's TypeError deep in a draw, or ran a bool as 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(toy_model, toy_priors)

    @pytest.mark.parametrize(
        "name, build",
        [
            ("n", lambda cfg, n: make_random_corpus(cfg, n, 0)),
            ("n", lambda cfg, n: make_template_corpus(cfg, n, 0)),
            ("k", lambda cfg, k: random_eval_inputs(cfg, k, 0)),
        ],
        ids=["corpus-n", "template-n", "eval-inputs-k"],
    )
    def test_counts_must_be_nonnegative(self, name, build):
        # each returned [] for a negative count
        with pytest.raises(ValueError, match=rf"^{name} must be nonnegative, got -2$"):
            build(ModelConfig(), -2)
        assert build(ModelConfig(), 0) == []

    def test_numpy_integer_trials_accepted(self, toy_model, toy_priors):
        pts = grid_points("interp:2")
        got = run_sweep(toy_model, toy_priors, pts, trials=np.int64(2), seed=3)
        assert sweep_csv(got) == sweep_csv(run_sweep(toy_model, toy_priors, pts, trials=2, seed=3))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_certify_rejects_non_finite_tol(self, toy_model, toy_priors, tol):
        with pytest.raises(ValueError, match="tol"):
            certify(toy_model, toy_priors, interp_taus(0.0), trials=1, tol=tol)

