"""End-to-end acceptance gate: one test per criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is fixed
here; seeds are frozen so each criterion is a deterministic replay.
"""

import math
import time

import numpy as np
import pytest

from manifold_cs import (
    bounds,
    geometry,
    gmra,
    harness,
    measurement,
    recovery,
)


def report(num, elapsed, detail):
    print("\n[criterion %02d] PASS (%.1f s): %s" % (num, elapsed, detail))


@pytest.fixture(scope="module")
def swiss20k():
    return geometry.gen_swiss_roll(20000, seed=42)


@pytest.fixture(scope="module")
def swiss20k_dict(swiss20k):
    return gmra.build_dictionary(swiss20k, local_dim=2, max_scale=7, min_points=6)


@pytest.fixture(scope="module")
def circle512():
    return geometry.gen_sphere(512, 1, seed=11)


@pytest.fixture(scope="module")
def circle_dict(circle512):
    return gmra.build_dictionary(circle512, local_dim=1, max_scale=5)


def test_criterion_01_exact_plane_recovery(swiss20k_dict):
    t0 = time.perf_counter()
    d = swiss20k_dict
    rng = np.random.default_rng(harness.derive_seed(55, 0))
    M = measurement.gaussian_matrix(8, 3, seed=harness.derive_seed(55, 1))  # m = 4d
    n = 1000
    xs = np.empty((n, 3))
    scales = np.empty(n, dtype=int)
    for i in range(n):
        j = int(rng.integers(1, d.max_scale + 1))
        k = int(rng.integers(len(d.centers(j))))
        u = rng.standard_normal(2)
        u *= 0.02 * d.sep_constant * 2.0**-j / np.linalg.norm(u)
        xs[i] = d.centers(j)[k] + d.bases(j)[k].T @ u
        scales[i] = j
    worst = 0.0
    for j in np.unique(scales):
        sel = scales == j
        batch = recovery.recover_batch(M.apply(xs[sel]), M, d, int(j))
        rel = np.linalg.norm(batch.reconstructions - xs[sel], axis=1) / np.linalg.norm(
            xs[sel], axis=1
        )
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8
    assert elapsed < 10.0
    report(1, elapsed, "10^3 in-plane points at m=4d recovered, worst rel err %.2e" % worst)


def test_criterion_02_full_rank_oracle_equivalence():
    t0 = time.perf_counter()
    cloud = geometry.gen_swiss_roll(2000, seed=7)
    d = gmra.build_dictionary(cloud, local_dim=2, max_scale=6)
    M = measurement.orthoprojection_matrix(3, 3, seed=harness.derive_seed(66, 0))
    comp = M.apply(cloud.points)
    worst = 0.0
    for j in range(7):
        batch = recovery.recover_batch(comp, M, d, j)
        reference = harness.project_at_scale(d, j, cloud.points)
        worst = max(worst, float(np.linalg.norm(batch.reconstructions - reference, axis=1).max()))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert elapsed < 30.0
    report(2, elapsed, "m=D recovery equals uncompressed projections, max dev %.2e" % worst)


def test_criterion_03_center_and_least_squares_certificates(circle512, circle_dict):
    t0 = time.perf_counter()
    eps = 0.3
    d = circle_dict
    params = bounds.BoundParams(d=1, V=2 * np.pi, eps=eps, J=5, big_o_constant=8.0)
    m = bounds.m_nonuniform(params)
    assert m == 715
    j = 3
    good_seeds = 0
    for s in range(10):
        M = measurement.gaussian_matrix(m, 2, seed=harness.derive_seed(77, s))
        rng = np.random.default_rng(harness.derive_seed(77, 100, s))
        ang = rng.uniform(0, 2 * np.pi, 1000)
        probes = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        batch = recovery.recover_batch(M.apply(probes), M, d, j)
        holds = 0
        for i in range(1000):
            outcome = recovery.RecoveryOutcome(
                batch.reconstructions[i],
                j,
                j,
                int(batch.chosen_centers[i]),
                batch.coefficients[i],
                float(batch.residuals[i]),
                bool(batch.ill_conditioned[i]),
            )
            cert = recovery.certify(probes[i], M, d, outcome, eps)
            if cert.line3_holds and cert.line4_holds:
                holds += 1
            else:
                # any failure must trace back to a distortion failure on the
                # probe's query-dependent vector set
                rep = measurement.verify_assumption_set(M, d, x=probes[i], which=1, eps=eps)
                assert not rep.item("a-distortion-query-set").passed
        if holds >= 990:
            good_seeds += 1
    elapsed = time.perf_counter() - t0
    assert good_seeds >= 8
    assert elapsed < 60.0
    report(3, elapsed, "center/least-squares inequalities held in %d/10 seeds" % good_seeds)


def test_criterion_04_stable_recovery_constant():
    t0 = time.perf_counter()
    base = geometry.gen_sphere(4000, 2, seed=19)
    padded = np.zeros((4000, 20))
    padded[:, :3] = base.points
    cloud = geometry.PointCloud(padded, 20, label="sphere-2-in-20")
    d = gmra.build_dictionary(cloud, local_dim=2, max_scale=6)
    params = bounds.BoundParams(d=2, V=4 * np.pi, eps=0.3, J=6, big_o_constant=8.0)
    M = measurement.gaussian_matrix(bounds.m_nonuniform(params), 20, seed=harness.derive_seed(88, 0))

    fit = np.zeros((500, 20))
    fit[:, :3] = geometry.gen_sphere(500, 2, seed=23).points
    rng = np.random.default_rng(harness.derive_seed(88, 1))
    chk = np.zeros((500, 20))
    chk[:, :3] = geometry.gen_sphere(500, 2, seed=29).points
    noise = rng.standard_normal((500, 20))
    noise /= np.linalg.norm(noise, axis=1, keepdims=True)
    chk += noise * rng.uniform(0.005, 0.3, 500)[:, None]
    opts = np.array([recovery.nearest_point_oracle(x, "sphere", 2) for x in chk])
    opt_err = np.linalg.norm(chk - opts, axis=1)

    for j in (2, 3, 4, 5, 6):
        # additive constant fitted on on-manifold probes (optimal error zero)
        bf = recovery.recover_batch(M.apply(fit), M, d, j)
        c_j = float((np.linalg.norm(fit - bf.reconstructions, axis=1) * 2.0**j).max())
        bc = recovery.recover_batch(M.apply(chk), M, d, j)
        err = np.linalg.norm(chk - bc.reconstructions, axis=1)
        assert np.all(err <= 100.3 * opt_err + c_j * 2.0**-j + 1e-12)
        sel = opt_err > 2.0**-j
        ratios = err[sel] / opt_err[sel]
        assert (ratios <= 10.0).mean() >= 0.95
    elapsed = time.perf_counter() - t0
    report(4, elapsed, "100.3-bound held with fitted additive term; ratios far below it")


def test_criterion_05_jl_sizing_separation():
    t0 = time.perf_counter()
    eps = 0.3
    master = 1
    m_full = int(math.ceil(8 * eps**-2 * math.log(100)))
    assert m_full == 410
    m_quarter = m_full // 4
    rng = np.random.default_rng(harness.derive_seed(master, 0))
    probes = rng.standard_normal((100, 1000))
    pass_full = pass_quarter = 0
    for s in range(10):
        Mf = measurement.gaussian_matrix(m_full, 1000, seed=harness.derive_seed(master, 1, s))
        pass_full += measurement.verify_distortion(Mf, probes, eps).passed
        Mq = measurement.gaussian_matrix(m_quarter, 1000, seed=harness.derive_seed(master, 2, s))
        pass_quarter += measurement.verify_distortion(Mq, probes, eps).passed
    elapsed = time.perf_counter() - t0
    assert pass_full >= 9
    assert 10 - pass_quarter >= 5
    assert elapsed < 60.0
    report(
        5,
        elapsed,
        "m=410 passed %d/10 seeds, m=102 failed %d/10" % (pass_full, 10 - pass_quarter),
    )


def test_criterion_06_covering_bounds(circle512, circle_dict):
    t0 = time.perf_counter()
    sphere = geometry.gen_sphere(4000, 2, seed=4)
    circle_params = bounds.BoundParams(d=1, V=2 * np.pi, eps=0.3, reach=1.0)
    sphere_params = bounds.BoundParams(d=2, V=4 * np.pi, eps=0.3, reach=1.0)
    for delta in (0.05, 0.1, 0.2):  # multiples of reach = 1
        assert len(geometry.farthest_point_ordering(circle512.points, stop_radius=delta)[0]) < bounds.cover_bound(
            circle_params, delta
        )
        assert len(geometry.farthest_point_ordering(sphere.points, stop_radius=delta)[0]) < bounds.cover_bound(
            sphere_params, delta
        )

    sphere_dict = gmra.build_dictionary(sphere, local_dim=2, max_scale=5)
    for name, dd, d_int, V, cloud in (
        ("circle", circle_dict, 1, 2 * np.pi, circle512),
        ("sphere", sphere_dict, 2, 4 * np.pi, sphere),
    ):
        rep = gmra.validate_structure(dd, cloud)
        params = bounds.BoundParams(d=d_int, V=V, eps=0.3, reach=1.0, J=dd.max_scale, C1=dd.sep_constant)
        threshold = max(
            rep.tube_j0 if rep.tube_j0 is not None else -1,
            math.log2(dd.sep_constant / 1.0) - 2,
        )
        lo = max(0, math.floor(threshold + 1e-9) + 1)
        counts = dd.counts()
        assert lo <= dd.max_scale, name
        for j in range(lo, dd.max_scale + 1):
            assert counts[j] <= bounds.center_count_bound(params, j), (name, j)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(6, elapsed, "greedy covers and built cell counts stay below the closed forms")


def test_criterion_07_relmse_replication(tmp_path):
    t0 = time.perf_counter()
    cfg = harness.ExperimentConfig(
        dataset={"generator": "swiss-roll", "n": 20000, "seed": 42},
        noise_sigmas=[0.0, 0.05, 0.1],
        oversampling=[2, 4, 16],
        num_draws=10,
        seed=123,
        scales=list(range(9)),
        output_dir=str(tmp_path / "replication"),
        local_dim=2,
        min_points=6,
    )
    res = harness.run_experiment(cfg)

    # (a) each curve decreases from coarse to fine until its floor
    for sigma in cfg.noise_sigmas:
        for f in cfg.oversampling:
            _, means, _ = res.curve(sigma, f)
            jmin = int(np.argmin(means))
            assert jmin > 0
            for i in range(jmin):
                assert means[i + 1] <= means[i] * 1.05, (sigma, f, i)
            assert means[jmin] < 0.5 * means[0], (sigma, f)

    # (b) the f=16 curve meets the uncompressed baseline at the finest two
    # scales for sigma=0 (absolute 1e-9 floor: with m capped at D=3 the curve
    # reproduces the baseline to rounding, so the draw spread degenerates)
    for j in (7, 8):
        mean, std = res.aggregates[(0.0, j, 16)]
        assert abs(mean - res.baselines[0.0]) <= 2.0 * std + 1e-9, j

    # (c) noisy floors sit within a factor 3 of sigma over the mean norm
    for sigma in (0.05, 0.1):
        floor = min(res.aggregates[(sigma, j, 16)][0] for j in cfg.scales)
        target = sigma / res.mean_norms[sigma]
        assert target / 3.0 <= floor <= 3.0 * target, sigma

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    report(7, elapsed, "relMSE grid reproduced: monotone curves, baseline contact, noise floors")


def test_criterion_08_error_decay_slope(swiss20k, swiss20k_dict):
    t0 = time.perf_counter()
    errors = gmra.mean_error_per_scale(swiss20k_dict, swiss20k)
    window = range(1, 7)  # mid scales: strictly inside the coarse wrap and the sampling floor
    xs = np.array(list(window), dtype=float)
    ys = np.log2([errors[j] for j in window])
    slope = float(np.polyfit(xs, ys, 1)[0])
    elapsed = time.perf_counter() - t0
    assert slope <= -1.5
    assert elapsed < 120.0
    report(8, elapsed, "noiseless approximation error log2-slope %.2f over scales 1..6" % slope)


def test_criterion_09_rip_bruteforce_and_compression_bound():
    t0 = time.perf_counter()
    # independent per-support oracle: eigenvalues of the 2x2 Gram matrix
    M10 = measurement.gaussian_matrix(10, 12, seed=5)
    eps = 0.75
    rep = measurement.rip_check_bruteforce(M10, 2, eps)
    oracle_pass = True
    oracle_min = np.inf
    oracle_max = -np.inf
    import itertools

    for support in itertools.combinations(range(12), 2):
        sub = M10.entries[:, support]
        eigs = np.linalg.eigvalsh(sub.T @ sub)
        oracle_min = min(oracle_min, eigs[0])
        oracle_max = max(oracle_max, eigs[-1])
        if eigs[0] < 1 - eps or eigs[-1] > 1 + eps:
            oracle_pass = False
    assert rep.passed == oracle_pass
    assert abs(rep.min_sq_singular - oracle_min) <= 1e-10
    assert abs(rep.max_sq_singular - oracle_max) <= 1e-10

    # a verified matrix's compressed norms never exceed the closed-form bound
    M300 = measurement.gaussian_matrix(300, 12, seed=0)
    rep300 = measurement.rip_check_bruteforce(M300, 2, 0.3)
    assert rep300.passed
    rng = np.random.default_rng(harness.derive_seed(99, 0))
    ys = rng.standard_normal((10000, 12))
    lhs = np.linalg.norm(M300.apply(ys), axis=1)
    norms2 = np.linalg.norm(ys, axis=1)
    norms1 = np.abs(ys).sum(axis=1)
    rhs = np.sqrt(1.3) * (norms2 + norms1 / np.sqrt(2.0))
    assert np.all(lhs <= rhs)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(9, elapsed, "66-support enumeration matches the Gram oracle; bound dominated 10^4 probes")


def test_criterion_10_determinism_and_persistence(tmp_path, circle_dict):
    t0 = time.perf_counter()

    def cfg(out):
        return harness.ExperimentConfig(
            dataset={"generator": "swiss-roll", "n": 500, "seed": 3},
            noise_sigmas=[0.0, 0.05],
            oversampling=[1, 2],
            num_draws=2,
            seed=31,
            scales=[0, 1, 2, 3],
            output_dir=str(tmp_path / out),
            local_dim=2,
        )

    harness.run_experiment(cfg("runA"))
    harness.run_experiment(cfg("runB"))
    a = (tmp_path / "runA" / "results.csv").read_bytes()
    b = (tmp_path / "runB" / "results.csv").read_bytes()
    assert a == b

    dict_path = tmp_path / "d.mcsdict"
    gmra.save_dictionary(circle_dict, dict_path)
    back = gmra.load_dictionary(dict_path)
    for j in range(circle_dict.max_scale + 1):
        assert circle_dict.centers(j).tobytes() == back.centers(j).tobytes()
        assert circle_dict.bases(j).tobytes() == back.bases(j).tobytes()

    M = measurement.orthoprojection_matrix(5, 9, seed=13)
    m_path = tmp_path / "m.mcsmtrx"
    measurement.save_matrix(M, m_path)
    assert measurement.load_matrix(m_path).entries.tobytes() == M.entries.tobytes()

    elapsed = time.perf_counter() - t0
    report(10, elapsed, "byte-identical rerun CSV; bit-exact dictionary and matrix round-trips")
