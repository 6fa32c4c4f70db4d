"""Acceptance suite: nine certifiable properties of the package.

Each test prints one summary line (run with ``pytest -s`` to see them all)
and then asserts, so a failure is visible both in the log and in the pytest
report.  Tolerances are part of the contract and are stated inline.
"""

import time

import numpy as np
from scipy.stats import spearmanr

from nvtransformer import (
    AttentionParams,
    DpPosterior,
    eval_dattn_multihead,
    forward_nv,
    forward_standard,
    greedy_decode,
    identity_taus,
    init_weights,
    reinterpret,
)
from nvtransformer.evaluate import (
    interp_taus,
    make_random_corpus,
    random_eval_inputs,
    run_sweep,
    grid_points,
)
from nvtransformer.model import BOS_ID, ModelConfig
from nvtransformer.numeric import make_rng
from nvtransformer.nvib import TauConfig
from nvtransformer.priors import estimate_priors
from reference import (
    attn_core,
    build_f_z,
    dattn_gaussians_oracle,
    dattn_impulses,
    make_template_corpus,
    site_stats,
    to_gaussian_mixture,
    train_dattn_multihead,
)


def report(num: int, name: str, ok: bool, metric: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] criterion {num} ({name}): {verdict} ({metric})",
          flush=True)


def uniform_taus(a: float, s: float) -> TauConfig:
    return TauConfig(
        tau_alpha_enc=a, tau_alpha_cross=a, tau_alpha_dec=a,
        tau_sigma_enc=s, tau_sigma_cross=s, tau_sigma_dec=s,
    )


class TestAcceptance:
    def test_criterion_1_impulse_equivalence(self):
        # attention over a vector set == denoising against its impulse
        # mixture, to 1e-9 over 200 random instances, in under 5s
        t0 = time.perf_counter()
        rng = make_rng(201)
        worst = 0.0
        for _ in range(200):
            d = int(rng.choice([2, 4, 16]))
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            z = rng.normal(size=(n, d))
            u = rng.normal(size=(m, d))
            scale = float(np.sqrt(d))
            got = dattn_impulses(u, build_f_z(z, scale), scale)
            want = attn_core(u, z, scale)
            worst = max(worst, float(np.max(np.abs(got - want))))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9 and elapsed < 5.0
        report(1, "impulse equivalence", ok,
               f"max abs diff {worst:.3e}, {elapsed:.2f}s")
        assert ok, f"worst={worst:.3e} elapsed={elapsed:.2f}s"

    def test_criterion_2_identity_toy_model(self):
        # identity dials reproduce the standard model: logits to 1e-5 and
        # bit-identical greedy decodes, 20 seeds x 3 lengths, under 30s
        t0 = time.perf_counter()
        lengths = (4, 9, 14)
        worst = 0.0
        decode_mismatches = 0
        runs = 0
        for mseed in range(4):
            cfg = ModelConfig()
            w = init_weights(cfg, seed=50 + mseed)
            corpus = make_random_corpus(cfg, 200, seed=900 + mseed)
            priors = estimate_priors(w, corpus)
            nvm = reinterpret(w, priors, identity_taus())
            for iseed in range(5):
                rng = make_rng(7000 + 10 * mseed + iseed)
                for length in lengths:
                    src = rng.integers(3, cfg.vocab, length).tolist()
                    tgt = [BOS_ID] + rng.integers(3, cfg.vocab, 6).tolist()
                    diff = np.max(np.abs(
                        forward_nv(nvm, src, tgt)
                        - forward_standard(w, src, tgt)
                    ))
                    worst = max(worst, float(diff))
                    if greedy_decode(nvm, src, 12) != greedy_decode(w, src, 12):
                        decode_mismatches += 1
                    runs += 1
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-5 and decode_mismatches == 0 and elapsed < 30.0
        report(2, "identity-dial equivalence", ok,
               f"max logit diff {worst:.3e}, {decode_mismatches}/{runs} "
               f"decode mismatches, {elapsed:.1f}s")
        assert ok, (worst, decode_mismatches, elapsed)

    def test_criterion_3_oracle_agreement(self):
        # fast single-head eval path == slow mixture oracle to 1e-9 on 100
        # posteriors with per-component stds (the hard regime)
        rng = make_rng(203)
        worst = 0.0
        for _ in range(100):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 6))
            params = AttentionParams(
                wq=rng.normal(size=(d, d)), wk=rng.normal(size=(d, d)),
                wv=rng.normal(size=(d, d)), bq=rng.normal(size=d),
                bk=rng.normal(size=d), bv=rng.normal(size=d), heads=1,
            )
            dp = DpPosterior(
                mu=rng.normal(size=(n + 1, d)),
                sigma=rng.uniform(0.05, 2.0, size=(n + 1, d)),
                log_alpha=rng.normal(size=n + 1),
            )
            queries = rng.normal(size=(m, d))
            got = eval_dattn_multihead(queries, dp, params)
            u = (queries @ params.wq + params.bq) @ params.wk.T
            denoised = dattn_gaussians_oracle(
                u, to_gaussian_mixture(dp), np.sqrt(d)
            )
            want = denoised @ params.wv + params.bv
            worst = max(worst, float(np.max(np.abs(got - want))))
        ok = worst <= 1e-9
        report(3, "mixture-oracle agreement", ok, f"max abs diff {worst:.3e}")
        assert ok, worst

    def test_criterion_4_prior_collapse(self, toy_model, toy_priors):
        # tau_alpha = -30 routes essentially all attention to the prior
        # component at every query of every site
        nvm = reinterpret(toy_model, toy_priors, uniform_taus(-30.0, 0.25))
        min_mass = 1.0
        sites = set()

        def hook(group, layer_id, weights):
            nonlocal min_mass
            sites.add((group, layer_id))
            min_mass = min(min_mass, float(np.min(weights[:, -1])))

        for src, tgt in random_eval_inputs(toy_model.config, 5, seed=204):
            forward_nv(nvm, src, tgt, map_hook=hook)
        ok = min_mass > 0.99 and len(sites) == 6
        report(4, "prior collapse", ok,
               f"min [P] mass {min_mass:.6f} over {len(sites)} sites")
        assert ok, (min_mass, sites)

    def test_criterion_5_smooth_regularisation(self, toy_model, toy_priors):
        # along identity -> over-regularised, decode overlap trends down
        # (negative Spearman rank correlation) with no NaN/Inf anywhere
        rows = run_sweep(
            toy_model, toy_priors, grid_points("interp:10"),
            trials=6, seed=205,
        )
        overlaps = [r.overlap_pct for r in rows]
        finite = all(
            np.isfinite([
                r.logit_max_diff, r.overlap_pct, r.prior_mass_enc,
                r.prior_mass_cross, r.prior_mass_dec, r.mean_decode_len,
            ]).all()
            for r in rows
        )
        rho = float(spearmanr(np.arange(len(overlaps)), overlaps).statistic)
        ok = rho < 0.0 and finite
        report(5, "smooth regularisation", ok,
               f"spearman rho {rho:.3f}, overlaps {overlaps}")
        assert ok, (rho, overlaps, finite)

    def test_criterion_6_prior_data_efficiency(self, toy_model):
        # priors from a 0.1% subsample of a 10^4-sequence corpus certify
        # within 5% relative of full-corpus priors on both dial corners
        cfg = toy_model.config
        corpus = make_template_corpus(cfg, 10_000, seed=206)
        full = estimate_priors(toy_model, corpus)
        sub = estimate_priors(toy_model, corpus, fraction=0.001, seed=206)
        pairs = random_eval_inputs(cfg, 3, seed=207)

        def identity_metric(priors):
            nvm = reinterpret(toy_model, priors, identity_taus())
            return max(
                float(np.max(np.abs(
                    forward_nv(nvm, src, tgt) - forward_standard(toy_model, src, tgt)
                )))
                for src, tgt in pairs
            )

        def collapse_metric(priors):
            nvm = reinterpret(toy_model, priors, uniform_taus(-30.0, 0.25))
            masses = []
            hook = lambda g, l, wts: masses.append(float(np.mean(wts[:, -1])))
            for src, tgt in pairs:
                forward_nv(nvm, src, tgt, map_hook=hook)
            return float(np.mean(masses))

        id_full, id_sub = identity_metric(full), identity_metric(sub)
        co_full, co_sub = collapse_metric(full), collapse_metric(sub)
        rel_id = abs(id_sub - id_full) / abs(id_full)
        rel_co = abs(co_sub - co_full) / abs(co_full)
        ok = rel_id <= 0.05 and rel_co <= 0.05
        report(6, "prior data-efficiency", ok,
               f"identity-metric rel delta {rel_id:.4f}, "
               f"collapse-metric rel delta {rel_co:.2e}")
        assert ok, (rel_id, rel_co, id_full, id_sub, co_full, co_sub)

    def test_criterion_7_training_path_consistency(self):
        # the sampled training path is an unbiased twin of the closed form:
        # 10^3-draw mean within 3 Monte-Carlo standard errors per coordinate
        rng = make_rng(208)
        d, h, m, n = 8, 2, 4, 6
        params = AttentionParams(
            wq=rng.normal(size=(d, d)), wk=rng.normal(size=(d, d)),
            wv=rng.normal(size=(d, d)), bq=rng.normal(size=d),
            bk=rng.normal(size=d), bv=rng.normal(size=d), heads=h,
        )
        dp = DpPosterior(
            mu=rng.normal(size=(n + 1, d)),
            sigma=np.full((n + 1, d), 1e-6),
            log_alpha=rng.uniform(9.5, 10.5, size=n + 1),
        )
        queries = rng.normal(size=(m, d))
        reference = eval_dattn_multihead(queries, dp, params)
        draws = np.stack([
            train_dattn_multihead(queries, dp, params, rng)
            for _ in range(1000)
        ])
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        excess = np.abs(mean - reference) / se
        worst = float(np.max(excess))
        ok = worst <= 3.0
        report(7, "training-path consistency", ok,
               f"worst |mean-eval| = {worst:.2f} standard errors")
        assert ok, worst

    def test_criterion_8_estimator_correctness(self, toy_model):
        # streaming statistics == two-pass oracle, and shard count is
        # irrelevant, both to 1e-9
        cfg = toy_model.config
        corpus = make_random_corpus(cfg, 80, seed=209)
        streamed = estimate_priors(toy_model, corpus)

        stacks: dict[tuple[str, int], list[np.ndarray]] = {}
        for seq in corpus:
            tgt = ([BOS_ID] + list(seq))[: cfg.max_len]
            forward_standard(
                toy_model, seq, tgt,
                site_hook=lambda g, l, z: stacks.setdefault((g, l), []).append(z),
            )
        worst_oracle = 0.0
        for p in streamed:
            want = site_stats(
                np.vstack(stacks[(p.layer_group, p.layer_id)]),
                cfg.dim, cfg.heads, p.layer_group, p.layer_id,
            )
            worst_oracle = max(
                worst_oracle,
                float(np.max(np.abs(p.mu_p - want.mu_p))),
                float(np.max(np.abs(p.sigma_p - want.sigma_p))),
                abs(p.log_alpha0_p - want.log_alpha0_p),
                abs(p.epsilon_alpha - want.epsilon_alpha),
            )

        sharded = estimate_priors(toy_model, corpus, shards=5)
        worst_shard = 0.0
        for a, b in zip(streamed, sharded):
            worst_shard = max(
                worst_shard,
                float(np.max(np.abs(a.mu_p - b.mu_p))),
                float(np.max(np.abs(a.sigma_p - b.sigma_p))),
                abs(a.log_alpha0_p - b.log_alpha0_p),
                abs(a.epsilon_alpha - b.epsilon_alpha),
            )
        ok = worst_oracle <= 1e-9 and worst_shard <= 1e-9
        report(8, "estimator correctness", ok,
               f"vs oracle {worst_oracle:.3e}, shard invariance {worst_shard:.3e}")
        assert ok, (worst_oracle, worst_shard)

    def test_criterion_9_causality_prior_visibility(self, toy_model, toy_priors):
        # later target tokens must not move earlier logits at all, at any
        # dial setting; and the prior column is available to the very first
        # decoder position
        src = [3, 14, 25, 36]
        tgt_a = [BOS_ID, 5, 6, 7, 8]
        tgt_b = [BOS_ID, 5, 6, 7, 9]
        worst = 0.0
        min_first_mass = 1.0
        for taus in (identity_taus(), interp_taus(0.4), uniform_taus(-30.0, 0.25)):
            nvm = reinterpret(toy_model, toy_priors, taus)
            a = forward_nv(nvm, src, tgt_a)
            b = forward_nv(nvm, src, tgt_b)
            worst = max(worst, float(np.max(np.abs(a[:4] - b[:4]))))

            first = {}
            forward_nv(
                nvm, src, [BOS_ID],
                map_hook=lambda g, l, wts: first.setdefault((g, l), wts),
            )
            for (g, l), wts in first.items():
                if g == "decoder":
                    min_first_mass = min(min_first_mass, float(wts[0, -1]))
        ok = worst == 0.0 and min_first_mass > 0.0
        report(9, "causality + prior visibility", ok,
               f"prefix logit drift {worst:.1e}, min first-position [P] "
               f"mass {min_first_mass:.3e}")
        assert ok, (worst, min_first_mass)
