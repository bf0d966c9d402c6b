"""Acceptance gate: end-to-end checks of the library against its contracts.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line with the measured
numbers before asserting, so a full run documents every criterion. All
randomness is seeded; every number below reproduces bit-for-bit.

Known red: criterion 3's 25% band around the selection-mapping reference
E_SLM is not attainable by the hypercube-expanded scheme it prescribes —
the scheme's true limit sits at e/sqrt(2) ~ 1.92x E_SLM (see the decision
ledger). The trend part of the criterion holds; the band assert fails
honestly with the measured ratio.
"""

import itertools
import math
import time

import numpy as np

from slmprecode import harness, precoders, regions, shaping, theory


def _cfg(**kw):
    return harness.ExperimentConfig.from_dict(kw)


def _report(line, ok):
    print(f"ACCEPTANCE {line[0]}: {'PASS' if ok else 'FAIL'} — {line[1]}")


# ---------------------------------------------------------------------------
# 1. Minimum-energy selection over the unit disk: N * E{gamma_min} -> 1
# ---------------------------------------------------------------------------


def test_acceptance_1_disk_limit():
    n = 4096
    cfg = _cfg(
        m=2,
        channel_source={"kind": "inline", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        tau=2.0,
        precoder={"kind": "slm_random", "n": n, "region": {"kind": "ball", "radius": 1.0}},
        trials=20000,
        master_seed=424242,
    )
    t0 = time.perf_counter()
    rep = harness.run_experiment(cfg, workers=1)
    elapsed = time.perf_counter() - t0
    scaled = n * rep.mean_gamma
    want = theory.slm_limit_uniform(2, 2, math.pi)  # exactly 1.0
    ok = abs(scaled - want) <= 0.05 * want and elapsed < 60.0
    _report(
        (1, f"N*mean(gamma_min) = {scaled:.5f} vs {want:.1f} (band 5%), "
            f"{elapsed:.1f} s single-threaded (limit 60 s)"),
        ok,
    )
    assert abs(scaled - want) <= 0.05 * want
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. Optimal covariance attains the closed-form minimum
# ---------------------------------------------------------------------------


def test_acceptance_2_optimal_covariance():
    seeds = (1, 2, 3, 9, 10)
    worst_mc = 0.0
    worst_tr = 0.0
    for seed in seeds:
        ch = harness.load_channel({"kind": "random", "seed": seed}, 4)
        assert np.linalg.cond(ch.h) < 100
        sigma = theory.optimal_covariance(ch, sigma2=1.0)
        e_opt = theory.e_opt(ch, sigma2=1.0)
        # exact identity first
        tr_err = abs(float(np.trace(ch.q @ sigma)) - e_opt) / e_opt
        worst_tr = max(worst_tr, tr_err)
        # then the Monte Carlo check at 1e5 samples
        sampler = regions.Sampler(regions.gaussian(sigma), seed=777, stream_index=seed)
        measured = float(np.mean(ch.energies(sampler.draw(100_000))))
        mc_err = abs(measured - e_opt) / e_opt
        worst_mc = max(worst_mc, mc_err)
    ok = worst_mc <= 0.02 and worst_tr <= 1e-9
    _report(
        (2, f"5 channels (M=4, cond<100): worst Monte Carlo error "
            f"{100 * worst_mc:.3f}% (band 2%), worst trace identity error "
            f"{worst_tr:.2e} (limit 1e-9)"),
        ok,
    )
    assert worst_mc <= 0.02
    assert worst_tr <= 1e-9


# ---------------------------------------------------------------------------
# 3. Expanded-hypercube selection: decreasing trend plus reference band
# ---------------------------------------------------------------------------


def test_acceptance_3_expansion_trend():
    candidates = [2**4, 2**8, 2**12, 2**16]
    trials = [40000, 40000, 20000, 12000]
    reports = []
    for n, t in zip(candidates, trials):
        cfg = _cfg(
            m=4,
            channel_source={"kind": "random", "seed": 11},
            tau=2.0,
            precoder={"kind": "slm_random", "n": n, "region": {"kind": "hypercube", "expand": True}},
            trials=t,
            master_seed=5150,
        )
        reports.append(harness.run_experiment(cfg, workers=4))
    means = [r.mean_gamma for r in reports]
    e_slm = reports[0].e_slm_limit
    trend_ok = True
    for lo, hi in zip(reports[1:], reports[:-1]):
        pooled = math.hypot(lo.stderr_gamma, hi.stderr_gamma)
        if not (lo.mean_gamma < hi.mean_gamma + 2 * pooled and lo.mean_gamma < hi.mean_gamma):
            trend_ok = False
    ratio = means[-1] / e_slm
    band_ok = abs(means[-1] - e_slm) <= 0.25 * e_slm
    _report(
        (3, f"means over N={candidates}: {[round(m, 5) for m in means]}, "
            f"trend strictly decreasing: {trend_ok}; mean(2^16)/E_SLM = {ratio:.4f} "
            f"(band 0.75..1.25: {band_ok}; the scheme's true limit is "
            f"e/sqrt(2) = {math.e / math.sqrt(2):.4f})"),
        trend_ok and band_ok,
    )
    assert trend_ok
    # Known red: the hypercube-expanded scheme converges to
    # B_4^(-1/2) * 2*pi*e/4 = e/sqrt(2) ~ 1.9221 times E_SLM, so a 25% band
    # around E_SLM cannot be met by the construction this criterion fixes.
    # The assert is kept faithful rather than widened.
    assert band_ok, (
        f"mean at N=2^16 is {means[-1]:.5f} = {ratio:.4f} * E_SLM; "
        f"the expanded-hypercube limit is e/sqrt(2) = 1.9221 * E_SLM, "
        f"outside the required 25% band"
    )


# ---------------------------------------------------------------------------
# 4. Channel gain hand values
# ---------------------------------------------------------------------------


def test_acceptance_4_channel_gain():
    # H = diag(1, 1/2): Q has eigenvalues {1, 4}, AM/GM = 2.5/2 = 1.25
    ch = theory.build_channel(np.diag([1.0, 0.5]))
    gain_spread = theory.channel_gain(ch.eigenvalues)
    err_spread = abs(gain_spread - 1.25)
    # orthogonal H: equal eigenvalues, gain exactly 1
    theta = 0.3
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    gen = regions.make_stream(404, 0)
    q_rand, _ = np.linalg.qr(gen.standard_normal((5, 5)))
    errs_orth = [
        abs(theory.channel_gain(theory.build_channel(o).eigenvalues) - 1.0)
        for o in (rot, q_rand)
    ]
    ok = err_spread <= 1e-9 and max(errs_orth) <= 1e-9
    _report(
        (4, f"gain(eig {{1,4}}) = {gain_spread!r} (err {err_spread:.2e}), "
            f"orthogonal-H gain errors {max(errs_orth):.2e} (limit 1e-9)"),
        ok,
    )
    assert err_spread <= 1e-9
    assert max(errs_orth) <= 1e-9


# ---------------------------------------------------------------------------
# 5. Search oracles: trellis vs exhaustive, nested vs independent scanner
# ---------------------------------------------------------------------------


def test_acceptance_5_search_oracles():
    rng = np.random.default_rng(20260825)
    code = shaping.default_code()
    cons = shaping.pam_constellation(4, spacing=1.0)
    trellis_ok = 0
    for _ in range(50):
        m = int(rng.choice([4, 6, 8, 10]))
        while True:
            h = rng.standard_normal((m, m))
            if np.linalg.cond(h) < 100:
                break
        ch = theory.build_channel(h)
        payload = rng.integers(0, 2, size=2 * m)
        u0 = shaping.payload_to_coset(payload, np.zeros(m, dtype=np.int64), cons)
        fast = shaping.trellis_shape(ch, u0, code)
        slow = shaping.exhaustive_shape(ch, u0, code)
        if (
            np.array_equal(fast.meta["codeword"], slow.meta["codeword"])
            and np.array_equal(fast.u_chosen, slow.u_chosen)
            and fast.gamma == slow.gamma
        ):
            trellis_ok += 1

    part = shaping.lattice_partition(n_u=1, q=2, spacing=1.0)
    nested_ok = 0
    for _ in range(50):
        while True:
            h = rng.standard_normal((8, 8))
            if np.linalg.cond(h) < 100:
                break
        ch = theory.build_channel(h)
        symbols = part.cosets[rng.integers(0, part.coset_count, size=4)]
        res = shaping.nested_select(ch, symbols.ravel(), part)
        # independently coded scanner: plain python loops over all shifts
        offs = part.offsets()
        best_g, best_u = math.inf, None
        for combo in itertools.product(range(len(offs)), repeat=4):
            u = np.concatenate([symbols[i] + offs[c] for i, c in enumerate(combo)])
            g = float(u @ ch.q @ u)
            if g < best_g:
                best_g, best_u = g, u
        if np.array_equal(res.u_chosen, best_u):
            nested_ok += 1

    ok = trellis_ok == 50 and nested_ok == 50
    _report(
        (5, f"trellis == exhaustive (bit-identical) on {trellis_ok}/50 instances; "
            f"nested == independent scanner on {nested_ok}/50 (K=4, n_u=1, q=2)"),
        ok,
    )
    assert trellis_ok == 50
    assert nested_ok == 50


# ---------------------------------------------------------------------------
# 6. Independency: every receiver recovers its data in 100% of trials
# ---------------------------------------------------------------------------


def test_acceptance_6_receiver_recovery():
    trials = 10_000
    tau = 2.0
    results = {}

    ch4 = harness.load_channel({"kind": "random", "seed": 21}, 4)
    assert np.linalg.cond(ch4.h) < 100

    good = 0
    for t in range(trials):
        u = regions.Sampler(regions.hypercube(tau, 4), 6001, t).draw()
        if precoders.receiver_verify(ch4, precoders.invert_precode(ch4, u), u, tau):
            good += 1
    results["plain"] = good

    good = 0
    for t in range(trials):
        u = regions.Sampler(regions.hypercube(tau, 4), 6002, t).draw()
        res = precoders.vector_perturb(ch4, u, tau, b=3)
        if precoders.receiver_verify(ch4, res, u, tau):
            good += 1
    results["vector_perturb"] = good

    ch8 = harness.load_channel({"kind": "random", "seed": 22}, 8)
    assert np.linalg.cond(ch8.h) < 100
    code = shaping.default_code()
    cons = shaping.pam_constellation(4, spacing=tau / 4)
    good = 0
    for t in range(trials):
        payload = regions.make_stream(6003, t).integers(0, 2, size=16)
        u0 = shaping.payload_to_coset(payload, np.zeros(8, dtype=np.int64), cons)
        res = shaping.trellis_shape(ch8, u0, code)
        y = ch8.h @ res.s
        back = shaping.coset_to_payload(y, res.meta["codeword"], cons)
        if np.array_equal(back, payload):
            good += 1
    results["trellis"] = good

    part = shaping.lattice_partition(n_u=1, q=2, spacing=tau / 2)
    good = 0
    for t in range(trials):
        idx = regions.make_stream(6004, t).integers(0, part.coset_count, size=2)
        symbols = part.cosets[idx]
        res = shaping.nested_select(ch4, symbols.ravel(), part)
        if precoders.receiver_verify(ch4, res, symbols.ravel(), part.modulo_period):
            good += 1
    results["nested"] = good

    ok = all(v == trials for v in results.values())
    _report(
        (6, "recovery " + ", ".join(f"{k} {v}/{trials}" for k, v in results.items())),
        ok,
    )
    for kind, v in results.items():
        assert v == trials, f"{kind}: {trials - v} recovery failures"


# ---------------------------------------------------------------------------
# 7. Ill-conditioned channel: plain > vector_perturb > slm_random >= E_opt
# ---------------------------------------------------------------------------


def test_acceptance_7_precoder_ordering():
    gen = regions.make_stream(2026, 0)
    q1, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    q2, _ = np.linalg.qr(gen.standard_normal((4, 4)))
    h = q1 @ np.diag([1.0, 0.6, 0.2, 0.001]) @ q2.T
    cond = np.linalg.cond(h)
    assert 500 < cond < 2000  # condition ~ 1e3 by construction

    source = {"kind": "inline", "matrix": h.tolist()}
    common = dict(m=4, channel_source=source, tau=2.0, master_seed=99)
    rep_plain = harness.run_experiment(
        _cfg(**common, precoder={"kind": "plain"}, trials=20000), workers=4
    )
    rep_vp = harness.run_experiment(
        _cfg(**common, precoder={"kind": "vector_perturb", "b": 5}, trials=4000),
        workers=4,
    )
    rep_slm = harness.run_experiment(
        _cfg(
            **common,
            precoder={"kind": "slm_random", "n": 625, "region": {"kind": "hypercube", "expand": True}},
            trials=4000,
        ),
        workers=4,
    )
    e_opt = rep_plain.e_opt

    def sep(a, b):
        return (a.mean_gamma - b.mean_gamma) / math.hypot(a.stderr_gamma, b.stderr_gamma)

    s1 = sep(rep_plain, rep_vp)
    s2 = sep(rep_vp, rep_slm)
    s3 = (rep_slm.mean_gamma - e_opt) / rep_slm.stderr_gamma
    ok = s1 > 2 and s2 > 2 and s3 > -2
    _report(
        (7, f"cond(H) = {cond:.0f}: plain {rep_plain.mean_gamma:.3f} > "
            f"perturb(b=5) {rep_vp.mean_gamma:.3f} > slm(625, expanded) "
            f"{rep_slm.mean_gamma:.3f} >= E_opt {e_opt:.3f}; separations "
            f"{s1:.1f}, {s2:.1f} sigma (need > 2), slm-E_opt {s3:.1f} sigma"),
        ok,
    )
    assert s1 > 2
    assert s2 > 2
    assert s3 > -2  # >= E_opt within noise


# ---------------------------------------------------------------------------
# 8. Byte-identical reports for any worker count
# ---------------------------------------------------------------------------


def test_acceptance_8_byte_determinism():
    cfg = _cfg(
        m=4,
        channel_source={"kind": "random", "seed": 5},
        tau=2.0,
        precoder={"kind": "vector_perturb", "b": 3},
        trials=600,
        master_seed=31337,
    )
    texts = [
        harness.write_report(harness.run_experiment(cfg, workers=w), "json", None)
        for w in (1, 3, 1)
    ]
    ok = texts[0] == texts[1] == texts[2]
    _report(
        (8, f"JSON reports byte-identical across workers 1/3/1: {ok} "
            f"({len(texts[0])} bytes)"),
        ok,
    )
    assert texts[0] == texts[1]
    assert texts[0] == texts[2]
