"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the lines.
"""

import math

import numpy as np
import pytest

from ipstable.clustering import Clustering, verify_stability
from ipstable import fast
from ipstable.fast import (
    POTENTIAL_DROPPED,
    calc_average,
    epoch,
    fast_ls,
)
from ipstable.local_search import (
    CONVERGED,
    LsConfig,
    avg_potentials,
    max_ip_local_search,
    max_ip_signatures,
    natural_local_search,
)
from ipstable.median_ip import MedianConfig, median_ip_cluster, merge_bound_factor
from ipstable.merge_split import merge_split_ls
from ipstable.metric import GenSpec, MetricSpace, generate, rng_from_seed
from ipstable.potential import SQRT_MEDIAN_SCALE, phi_avg_clustering
from ipstable.stable_opt import beta_clustering, stable_cluster
from ipstable.cli import main as cli_main

from conftest import merge_heavy_instance, perturbed_planted
from reference import brute_force_min_beta, phi_sqrt_median_exact


def _announce(num, name, detail):
    print(f"[acceptance] criterion {num:2d} ({name}): PASS  {detail}")


def _mixed_spaces(count, max_n, seed0, min_n=16, rsp_cap=220):
    """Deterministic stream of (space, n) across generator families."""
    out = []
    rng = np.random.default_rng(seed0)
    for i in range(count):
        n = int(rng.integers(min_n, max_n + 1))
        kind = ("euclidean_mixture", "random_shortest_path")[i % 2]
        if kind == "random_shortest_path" and n > rsp_cap:
            n = int(rng.integers(min_n, rsp_cap))
        dim = int(rng.integers(2, 7))
        spec = GenSpec(kind, n=n, k=int(rng.integers(2, 9)), dim=dim, seed=seed0 + i)
        out.append(generate(spec).space)
    return out


# -- criterion 1 ---------------------------------------------------------------


def _pair_sums_all_subsets(D):
    n = D.shape[0]
    sums = np.zeros(1 << n)
    for mask in range(1, 1 << n):
        p = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << p)
        idx = [q for q in range(n) if rest >> q & 1]
        sums[mask] = sums[rest] + 2.0 * D[p, idx].sum()
    return sums


def test_criterion_01_potential_sandwich():
    checks = 0
    for n in range(3, 8):
        for seed in range(100):
            sp = generate(GenSpec("euclidean_mixture", n=n, k=2, dim=3, seed=1000 * n + seed)).space
            D = sp.peek_block(np.arange(n), np.arange(n))
            sums = _pair_sums_all_subsets(D)
            log2n = math.log2(n)
            for mask in range(1, 1 << n):
                size = mask.bit_count()
                phi_s = math.log2(size) / size * sums[mask] if size > 1 else 0.0
                for p in range(n):
                    if mask >> p & 1:
                        continue
                    idx = [q for q in range(n) if mask >> q & 1]
                    avg = D[p, idx].mean()
                    up = mask | 1 << p
                    phi_up = math.log2(size + 1) / (size + 1) * sums[up]
                    delta = phi_up - phi_s
                    assert avg <= delta * (1 + 1e-9) + 1e-15
                    assert delta <= 2 * log2n * avg * (1 + 1e-9) + 1e-15
                    checks += 1
    n = 256
    sp = generate(GenSpec("euclidean_mixture", n=n, k=6, dim=4, seed=77)).space
    D = sp.peek_block(np.arange(n), np.arange(n))
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        size = int(rng.integers(1, n))
        perm = rng.permutation(n)
        S, p = perm[:size], int(perm[size])
        avg = D[p, S].mean()
        phi_s = math.log2(size) / size * D[np.ix_(S, S)].sum() if size > 1 else 0.0
        up = np.append(S, p)
        phi_up = math.log2(size + 1) / (size + 1) * D[np.ix_(up, up)].sum()
        delta = phi_up - phi_s
        assert avg <= delta * (1 + 1e-9) + 1e-15
        assert delta <= 2 * math.log2(n) * avg * (1 + 1e-9) + 1e-15
        checks += 1
    _announce(1, "potential sandwich", f"{checks} (S, p) pairs, exhaustive n=3..7 plus 10^4 draws at n=256")


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_02_natural_local_search():
    rng = np.random.default_rng(21)
    converged = 0
    total_steps = 0
    runs = []
    for i in range(140):
        n = int(rng.integers(12, 501))
        k = int(rng.choice([2, 5, 20]))
        k = min(k, n)
        sp = _mixed_spaces(1, n, seed0=5000 + i, min_n=n)[0]
        runs.append((sp, k, LsConfig()))
    for i in range(60):
        k = int(rng.choice([2, 5, 20]))
        n = int(rng.integers(max(4 * k, 12), 501))
        sp, _, bad = perturbed_planted(n, k, separation=10.0 ** -float(rng.integers(2, 6)), seed=i, moves=int(rng.integers(1, 6)))
        runs.append((sp, k, LsConfig(init="given", initial=bad)))
    for sp, k, cfg in runs:
        out, trace = natural_local_search(sp, k, cfg)
        assert trace.status == CONVERGED
        converged += 1
        phis = list(avg_potentials(sp, out, trace.steps))
        for before, after in zip(phis, phis[1:]):
            assert after < before
        total_steps += len(trace.steps)
        assert verify_stability(sp, out, "avg", 2 * math.log2(sp.n)).passed
    assert converged == len(runs)
    _announce(2, "natural local search", f"{converged}/200 converged, {total_steps} steps all strictly decreasing")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_03_merge_split():
    rng = np.random.default_rng(31)
    swaps = splits = 0
    cases = []
    for i in range(70):
        n = int(rng.integers(16, 1001))
        sp = _mixed_spaces(1, n, seed0=7000 + i, min_n=n)[0]
        cases.append((sp, int(rng.integers(2, 17)), None))
    for i in range(20):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(max(4 * k, 16), 400))
        sp, _, bad = perturbed_planted(n, k, separation=10.0 ** -float(rng.integers(2, 6)), seed=100 + i, moves=int(rng.integers(1, 6)))
        cases.append((sp, k, bad))
    for i in range(10):
        sp, bad = merge_heavy_instance(width=float(rng.uniform(100, 400)))
        cases.append((sp, 3, bad))
    worst_swap_load = worst_split_load = 0.0
    for idx, (sp, k, initial) in enumerate(cases):
        k = min(k, sp.n)
        out, trace = merge_split_ls(sp, k, seed=idx, initial=initial)
        assert trace.status == CONVERGED
        n = sp.n
        assert verify_stability(sp, out, "avg", 4 * math.log2(n)).passed
        # each step starts from the potential the step before it left
        for prev, rec in zip(trace.steps, trace.steps[1:]):
            assert rec.phi_before == prev.phi_after
        for rec in trace.steps:
            drop = rec.phi_before - rec.phi_after
            if rec.kind == "swap":
                swaps += 1
                assert drop >= rec.threshold / 2 * (1 - 1e-9)
            else:
                splits += 1
                assert drop >= rec.phi_before / (8 * k * math.log2(n)) * (1 - 1e-9)
        # informational telemetry: observed steps against the n*k / k budgets
        worst_swap_load = max(worst_swap_load, trace.counts["swap"] / (n * k))
        worst_split_load = max(worst_split_load, trace.counts["merge_split"] / k)
    _announce(
        3,
        "merge-and-split search",
        f"100 runs verified at 4log2(n); {swaps} swaps and {splits} merge-splits within "
        f"progress bounds (peak swap/(nk)={worst_swap_load:.3f}, splits/k={worst_split_load:.3f})",
    )


# -- criterion 4 ---------------------------------------------------------------


def _audit_epochs(monkeypatch):
    """Wrap ``fast.epoch`` so every epoch ``fast_ls`` runs gets an exact
    potential audit; returns the list the wrapper appends one entry to per epoch."""
    real_epoch = fast.epoch
    epochs = []

    def audited(space, clustering, rng, *args, **kwargs):
        phi_in = phi_avg_clustering(space, clustering)
        result = real_epoch(space, clustering, rng, *args, **kwargs)
        phi_out = phi_avg_clustering(space, result.clustering)
        if result.status == POTENTIAL_DROPPED:
            assert phi_out < 0.75 * phi_in * (1 + 1e-9)
        else:
            assert verify_stability(space, result.clustering, "avg", 16 * math.log2(space.n)).passed
        epochs.append(result.status)
        return result

    monkeypatch.setattr(fast, "epoch", audited)
    return epochs


def test_criterion_04_fast_algorithm(monkeypatch):
    rng = np.random.default_rng(41)
    sizes = [int(rng.integers(40, 401)) for _ in range(96)] + [800, 1200, 1500, 2000]
    epochs = _audit_epochs(monkeypatch)
    total_epochs = 0
    for i, n in enumerate(sizes):
        k = int(rng.integers(2, 33))
        k = min(k, n)
        sp = _mixed_spaces(1, n, seed0=9000 + i, min_n=n)[0]
        epochs.clear()
        out, trace = fast_ls(sp, k, seed=i)
        assert len(epochs) == trace.counts["epoch"]  # the wrapper saw every epoch
        assert verify_stability(sp, out, "avg", 16 * math.log2(n)).passed
        assert len(epochs) <= 4 * math.log2(n)
        total_epochs += len(epochs)
    # epochs starting from adversarial clusterings also honor the contract
    for i in range(4):
        sp, _, bad = perturbed_planted(150, 5, separation=1e-4, seed=i, moves=8)
        r = rng_from_seed(i)
        phi_in = phi_avg_clustering(sp, bad)
        result = epoch(sp, bad, r)
        if result.status == POTENTIAL_DROPPED:
            assert phi_avg_clustering(sp, result.clustering) < 0.75 * phi_in * (1 + 1e-9)
        else:
            assert verify_stability(sp, result.clustering, "avg", 16 * math.log2(sp.n)).passed
    _announce(4, "fast algorithm", f"100 runs verified at 16log2(n); {total_epochs} epochs all within the either-or contract")


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_05_importance_sampling():
    sp = generate(GenSpec("euclidean_mixture", n=210, k=5, dim=4, seed=51)).space
    rng = rng_from_seed(52)
    pick = np.random.default_rng(53)
    violations = undershoots = 0
    total = 0
    for trial in range(1000):
        C = np.sort(pick.choice(210, size=200, replace=False))
        S = pick.choice(210, size=10, replace=False)
        truth = sp.peek_block(S, C).mean(axis=1)
        est = calc_average(sp, C, S, 0.1, rng)
        low = est < truth * (1 - 1e-9)
        high = est > 1.1 * truth * (1 + 1e-9)
        undershoots += int(np.sum(low))
        violations += int(np.sum(low | high))
        total += len(S)
    assert violations / total <= 0.01
    assert undershoots == 0  # one-sidedness held in every audit
    _announce(5, "importance sampling", f"{violations}/{total} sandwich violations at eps=0.1 (<= 1%), {undershoots} undershoots")


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_06_query_scaling():
    sizes = [250, 500, 1000, 2000]
    seeds = range(5)
    means = {}
    for alg in ("fast", "mergesplit"):
        means[alg] = []
        for n in sizes:
            counts = []
            for seed in seeds:
                sp = generate(GenSpec("euclidean_mixture", n=n, k=10, dim=4, seed=600 + seed)).space
                before = sp.query_counter
                if alg == "fast":
                    fast_ls(sp, 10, seed=seed)
                else:
                    merge_split_ls(sp, 10, seed=seed)
                counts.append(sp.query_counter - before)
            means[alg].append(np.mean(counts))
    fast_ratios = [means["fast"][i + 1] / means["fast"][i] for i in range(3)]
    ms_ratios = [means["mergesplit"][i + 1] / means["mergesplit"][i] for i in range(3)]
    assert all(r <= 2.6 for r in fast_ratios), fast_ratios
    assert all(r >= 3.4 for r in ms_ratios), ms_ratios
    _announce(
        6,
        "query-count scaling",
        f"fast doubling ratios {[f'{r:.2f}' for r in fast_ratios]} <= 2.6; "
        f"merge-split {[f'{r:.2f}' for r in ms_ratios]} >= 3.4",
    )


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_07_min_beta_pipeline():
    rng = np.random.default_rng(71)
    compared = 0
    for i in range(500):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(2, n))
        kind = ("euclidean_mixture", "random_shortest_path")[i % 2]
        sp = generate(GenSpec(kind, n=n, k=2, dim=2, seed=7100 + i)).space
        _, best = brute_force_min_beta(sp, k)
        got = stable_cluster(sp, k)
        if best < 1:
            compared += 1
            assert beta_clustering(sp, got) <= best * (1 + 1e-9)
    for i in range(100):
        k = int(rng.integers(2, 4))
        n = int(rng.integers(3 * k, 11))
        sep = 1e-4
        gen = generate(GenSpec("planted_separated", n=n, k=k, separation=sep, seed=7600 + i))
        sp, planted = gen.space, gen.planted
        alpha_star = verify_stability(sp, planted, "avg").alpha_achieved
        assert alpha_star <= 0.001
        got = stable_cluster(sp, k)
        assert verify_stability(sp, got, "avg", 3 * alpha_star).passed
        _, best = brute_force_min_beta(sp, k)
        assert beta_clustering(sp, got) <= best * (1 + 1e-9)
    _announce(7, "min-beta pipeline", f"600 instances; {compared} random cases had beta*<1 and matched brute force; 100 planted verified at 3*alpha*")


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_08_max_ip():
    rng = np.random.default_rng(81)
    converged = 0
    runs = 200
    steps_checked = 0
    for i in range(runs):
        n = int(rng.integers(8, 201))
        k = int(rng.integers(2, min(n, 9)))
        sp = _mixed_spaces(1, n, seed0=8100 + i, min_n=n)[0]
        init = "given" if i % 4 == 0 else "arbitrary_round_robin"
        if init == "given":
            a = np.random.default_rng(i).integers(0, k, size=n)
            a[:k] = np.arange(k)
            cfg = LsConfig(init="given", initial=Clustering(a, k))
        else:
            cfg = LsConfig()
        out, trace = max_ip_local_search(sp, k, cfg)
        sigs = list(max_ip_signatures(sp, out, trace.steps))
        for before, after in zip(sigs, sigs[1:]):
            assert after < before
            steps_checked += 1
        if trace.status == CONVERGED:
            converged += 1
            assert verify_stability(sp, out, "max", 1.0).passed
    assert converged / runs >= 0.95
    _announce(8, "max-IP local search", f"{converged}/{runs} converged and verified at alpha=1; {steps_checked} signature decreases")


# -- criterion 9 ---------------------------------------------------------------


def _batched_max_tsp(W):
    """Max closed-tour length for every vertex subset, by Held-Karp over masks.

    W: (B, m, m) edge lengths.  Returns (B, 2^m) tour lengths with the
    two-point convention (single edge counted twice) and 0 for |mask| <= 1.
    Independent of the package's permutation-based oracle.
    """
    B, m, _ = W.shape
    full = 1 << m
    NEG = -1e30
    dp = np.full((full, B, m), NEG)
    for s in range(m):
        dp[1 << s, :, s] = 0.0
    tours = np.zeros((full, B))
    for mask in range(1, full):
        size = mask.bit_count()
        s = (mask & -mask).bit_length() - 1
        row = dp[mask]
        if size >= 3:
            reach = row > NEG / 2
            best = np.where(reach, row + W[:, :, s], NEG).max(axis=1)
            tours[mask] = best
        elif size == 2:
            j = (mask & ~(1 << s)).bit_length() - 1
            tours[mask] = 2.0 * W[:, s, j]
        for j in range(s + 1, m):
            if mask >> j & 1:
                continue
            cand = (row + W[:, :, j]).max(axis=1)
            np.maximum(dp[mask | 1 << j][:, j], cand, out=dp[mask | 1 << j][:, j])
    return tours.T


def _batch_instances(B, m, seed):
    rng = np.random.default_rng(seed)
    n_euc = 2 * B // 5
    n_rsp = 2 * B // 5
    n_split = B - n_euc - n_rsp
    pts = rng.normal(0, 2, size=(n_euc, m, 3))
    D_euc = np.linalg.norm(pts[:, :, None, :] - pts[:, None, :, :], axis=-1)
    U = 1.0 - rng.random((n_rsp, m, m))
    U = np.triu(U, 1)
    D_rsp = U + np.swapaxes(U, 1, 2)
    for kk in range(m):
        np.minimum(D_rsp, D_rsp[:, :, kk, None] + D_rsp[:, None, kk, :], out=D_rsp)
    idx = np.arange(m)
    D_rsp[:, idx, idx] = 0.0
    # two widely separated scale groups stress the sandwich's upper constant
    D_split = np.zeros((n_split, m, m))
    for b in range(n_split):
        eps = 10.0 ** rng.uniform(-6, -1)
        big = 10.0 ** rng.uniform(0, 3)
        near = rng.choice(np.arange(1, m), size=rng.integers(3, 5), replace=False)
        coords = np.zeros(m)
        coords[near] = eps * rng.uniform(0.2, 1.0, size=len(near))
        far = [q for q in range(1, m) if q not in near]
        coords[far] = big * rng.uniform(0.8, 1.2, size=len(far))
        D_split[b] = np.abs(coords[:, None] - coords[None, :])
    return np.concatenate([D_euc, D_rsp, D_split], axis=0)


def _subset_median(D, p, idx):
    vals = np.sort(D[:, p, idx], axis=1)
    return vals[:, (len(idx) + 1) // 2 - 1]


def test_criterion_09_median_ip():
    m = 8
    K = 10.25
    scale = SQRT_MEDIAN_SCALE
    total_checks = 0
    merge_checks = 0
    cross_checked = 0
    worst_ratio = 0.0
    combos = [
        (mask, p)
        for mask in range(1, 1 << m)
        if mask.bit_count() >= 2
        for p in range(m)
        if mask >> p & 1
    ]
    picker = np.random.default_rng(91)
    for batch_seed in range(4):
        B = 2500
        D = _batch_instances(B, m, seed=9100 + batch_seed)
        W = np.sqrt(D)
        tours = _batched_max_tsp(W)
        phi = scale * tours

        # spot-check the batched solver against the permutation oracle
        for _ in range(12):
            b = int(picker.integers(0, B))
            mask = int(picker.integers(3, 1 << m))
            idx = [q for q in range(m) if mask >> q & 1]
            sp = MetricSpace.from_matrix(D[b], validate=False)
            expected = phi_sqrt_median_exact(sp, idx)
            assert phi[b, mask] == pytest.approx(expected, rel=1e-9, abs=1e-12)
            cross_checked += 1

        for mask, p in combos:
            s_mask = mask & ~(1 << p)
            idx = [q for q in range(m) if s_mask >> q & 1]
            med = _subset_median(D, p, idx)
            root = np.sqrt(med)
            delta = phi[:, mask] - phi[:, s_mask]
            assert np.all(root <= delta * (1 + 1e-9) + 1e-12)
            assert np.all(delta <= K * root * (1 + 1e-9) + 1e-12)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(root > 0, delta / np.where(root > 0, root, 1.0), np.nan)
            if np.isfinite(ratio).any():
                worst_ratio = max(worst_ratio, float(np.nanmax(ratio)))
            total_checks += len(delta)

        # merge bound: exact increase never beats the computable bound
        pfac = merge_bound_factor(m)
        for _ in range(40):
            u_mask = int(picker.integers(0, 1 << m))
            if u_mask.bit_count() < 2:
                continue
            bits = [q for q in range(m) if u_mask >> q & 1]
            cut = int(picker.integers(1, len(bits)))
            c_bits, c2_bits = bits[:cut], bits[cut:]
            c_mask = sum(1 << q for q in c_bits)
            c2_mask = sum(1 << q for q in c2_bits)
            p = int(picker.integers(0, m))
            inc = phi[:, u_mask] - phi[:, c_mask] - phi[:, c2_mask]
            bound = pfac * (np.sqrt(_subset_median(D, p, c_bits)) + np.sqrt(_subset_median(D, p, c2_bits)))
            assert np.all(inc <= bound * (1 + 1e-9) + 1e-12)
            merge_checks += len(inc)

    cfg = MedianConfig()
    rng = np.random.default_rng(93)
    for i in range(100):
        n = int(rng.integers(16, 501))
        k = int(rng.integers(2, 9))
        k = min(k, n)
        sp = _mixed_spaces(1, n, seed0=9300 + i, min_n=n)[0]
        out, trace = median_ip_cluster(sp, k, cfg)
        assert trace.status == CONVERGED
        assert verify_stability(sp, out, "median", cfg.median_alpha).passed
    _announce(
        9,
        "median-IP",
        f"sandwich K={K}: {total_checks} checks, 0 violations, worst observed ratio {worst_ratio:.2f} "
        f"(oracle cross-checked {cross_checked}x); {merge_checks} merge-bound checks; "
        f"100 runs verified at {cfg.median_alpha}",
    )


# -- criterion 10 --------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path, capsys):
    def run(argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return captured.out

    outputs = []
    for rep in ("one", "two"):
        d = tmp_path / rep
        gen_out = run(
            ["gen", "--kind", "planted_separated", "--n", "40", "--k", "4",
             "--separation", "0.05", "--seed", "11", "--out", str(d / "inst")]
        )
        cluster_out = run(
            ["cluster", "--in", str(d / "inst" / "points.csv"), "--k", "4",
             "--alg", "fast", "--seed", "3", "--out", str(d / "run"), "--no-time"]
        )
        verify_out = run(
            ["verify", "--in", str(d / "inst" / "points.csv"),
             "--clustering", str(d / "run" / "clustering.json"), "--objective", "avg"]
        )
        bench_out = run(
            ["bench", "--alg", "natural", "mergesplit", "--n", "30", "--k", "3",
             "--seeds", "5", "--no-time"]
        )
        files = {
            "points": (d / "inst" / "points.csv").read_bytes(),
            "planted": (d / "inst" / "planted.json").read_bytes(),
            "clustering": (d / "run" / "clustering.json").read_bytes(),
            "report": (d / "run" / "report.json").read_bytes(),
        }
        outputs.append((cluster_out, verify_out, bench_out, files))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    assert outputs[0][2] == outputs[1][2]
    for key in outputs[0][3]:
        assert outputs[0][3][key] == outputs[1][3][key], key
    _announce(10, "CLI determinism", "gen/cluster/verify/bench byte-identical across repeated seeded runs")
