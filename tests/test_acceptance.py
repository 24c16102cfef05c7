"""End-to-end behavior checks, one test per headline property.

Every test prints a single ``[PASS]``/``[FAIL]`` line with the measured
numbers before asserting, so a verbose run reads as a checklist.  The
protocols (grids, sizes, seeds) are fixed here; solver tolerances are
the shipped defaults unless a check is about asymptotics, in which case
the residual smoothing is dropped to 1e-12 so it cannot floor the
quantities under test.

The three recovery studies (fixed-weight noise sweep, weight-range
grid, inner weight decay) draw the mixing columns from a Dirichlet with
``alpha = RECOVERY_ALPHA = 0.05``, the regime the README and ``demos/``
use.  With the generator default ``alpha = 1`` a few hundred columns do
not scatter far enough towards the vertices for min-vol
identifiability (Fu, Huang, Sidiropoulos & Ma, IEEE SPM 2019): on those
draws the solver ends with a lower ``f_eps`` than the ground truth has
(by 0.44 at sigma = 1e-6, lambda = 1 on the 4x4 sweep, by 27.6 on the
25x20x2000 instance), so the truth is not the model's minimizer and no
solver could meet the recovery bounds there.

These are slow tests; ``BENCH_<pr>.json`` records the time of each.
Grid-style checks go through the sweep harness with a process
pool, so wall time benefits from spare cores without affecting any
asserted value.
"""

import io
import math
import os
from dataclasses import replace

import numpy as np

from oracles import (
    align_brute_force,
    f_eps_grad,
    fd_grad,
    grad_H,
    grad_W,
    jacobi_eigenvalues,
    proj_capped_oracle,
    surrogate_g,
)
from sqrtminvol.datagen import InstanceSpec, make_instance
from sqrtminvol.linalg import frobenius_norm, shifted_gram
from sqrtminvol.matrixio import write_table
from sqrtminvol.metrics import align_columns
from sqrtminvol.baseline import objective_minvol
from sqrtminvol.projections import project_H_columns
from sqrtminvol.initialization import snpa
from sqrtminvol.solver import SqrtConfig, f_eps, solve
from sqrtminvol.sweep import (
    ExperimentSpec,
    SummaryRow,
    SweepRecord,
    cell_seed,
    run_sweep,
    summarize,
)

BASE_SEED = 7
# Pool workers for the sweeps: one per core up to 8, but at least 2 so
# the determinism study still compares serial against parallel.
JOBS = max(2, min(8, os.cpu_count() or 1))
# Dirichlet concentration of the recovery studies' H columns; see the
# module docstring for why it is not the generator default of 1.
RECOVERY_ALPHA = 0.05

# Checklist lines, echoed after the run by the conftest terminal hook
# (stdout of passing tests is captured, so printing alone is not enough).
RESULTS = []


def report(label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    RESULTS.append(line)
    print(line, flush=True)
    assert ok, f"{label}: {detail}"


def random_feasible(rng, m, r, n, scale=1.0):
    W = rng.random((m, r)) * scale
    H = rng.random((r, n))
    H /= H.sum(axis=0, keepdims=True) + 0.5
    return W, H


def lambda_break(gt, delta):
    """Weight above which shrinking W* lowers f_eps to first order.

    ``d/dc f_eps(c W*, H*)`` at ``c = 1`` from below is
    ``-|X*|_F + 2 lam tr((W*^T W* + delta I)^-1 W*^T W*)``.
    """
    gram = gt.W_star.T @ gt.W_star
    shrink_rate = float(np.trace(shifted_gram(gt.W_star, delta)[1] @ gram))
    return frobenius_norm(gt.X_star) / (2.0 * shrink_rate)


def lambda_cert(gt, delta):
    """Weight below which moving W alone off W* raises f_eps at sigma = 0.

    The fit term grows by at least ``s_min(H*) |D|_F`` for a step ``D``;
    the log-volume changes by at most ``2 |W* (W*^T W* + delta I)^-1|_F |D|_F``.
    """
    s_min = float(np.linalg.svd(gt.H_star, compute_uv=False)[-1])
    _, Q_inv = shifted_gram(gt.W_star, delta)
    return s_min / (2.0 * frobenius_norm(gt.W_star @ Q_inv))


def test_surrogate_majorizes_objective():
    """Tangency at the anchor and domination everywhere else."""
    rng = np.random.default_rng(BASE_SEED)
    m, r, n = 4, 3, 6
    delta = eps = 0.1
    worst_tan, worst_dom = 0.0, math.inf
    for _ in range(10_000):
        X = rng.random((m, n)) * 2.0
        Wk, Hk = random_feasible(rng, m, r, n, scale=1.5)
        W, H = random_feasible(rng, m, r, n, scale=1.5)
        lam = rng.random() * 2.0
        fk = f_eps(X, Wk, Hk, lam, delta, eps)
        gk = surrogate_g(Wk, Hk, Wk, Hk, X, lam, delta, eps)
        worst_tan = max(worst_tan, abs(gk - fk) / abs(fk))
        gap = surrogate_g(W, H, Wk, Hk, X, lam, delta, eps) - f_eps(
            X, W, H, lam, delta, eps
        )
        worst_dom = min(worst_dom, gap)
    ok = worst_tan <= 1e-12 and worst_dom >= -1e-10
    report(
        "surrogate majorization (10k pairs)",
        ok,
        f"max tangency gap {worst_tan:.2e} (<= 1e-12), "
        f"min domination gap {worst_dom:.2e} (>= -1e-10)",
    )


def test_outer_descent_is_monotone():
    """The smoothed objective never increases across outer iterations."""
    rng = np.random.default_rng(BASE_SEED + 1)
    violations = []
    for case in range(50):
        if case % 2 == 0:
            spec = InstanceSpec(
                "paper-4x4",
                n=int(rng.integers(30, 90)),
                sigma=float(rng.choice([0.0, 1e-3, 1e-2, 1e-1])),
                seed=1000 + case,
            )
        else:
            m = int(rng.integers(5, 9))
            r = int(rng.integers(2, min(m, 5)))
            spec = InstanceSpec(
                "random-uniform",
                n=int(rng.integers(30, 90)),
                sigma=float(rng.choice([0.0, 1e-3, 1e-2])),
                seed=1000 + case,
                m=m,
                r=r,
            )
        _, X = make_instance(spec)
        lam = float(rng.choice([0.05, 0.2, 0.5, 1.0]))
        _, trace = solve(X, spec.rank, "sqrt-minvol", lam=lam, max_outer=25)
        fs = [row.f_eps for row in trace.rows]
        for a, b in zip(fs, fs[1:]):
            if b > a + 1e-9 * abs(a):
                violations.append((case, a, b))
    report(
        "monotone outer descent (50 problems)",
        not violations,
        "no increases" if not violations else f"increases at {violations[:3]}",
    )


def test_fixed_weight_noise_sweep():
    """One weight across five noise levels; errors should track sigma.

    On these alpha = 0.05 draws the SNPA start is already within about
    1.3 sigma of the truth, so the study checks that a fixed weight does
    not pull the basis off the vertices at any noise level (where a
    fixed baseline weight fails, see ``demos/fixed_weight_across_noise.py``);
    it does not check that the solver travels far.
    """
    sigmas = (1e-1, 1e-2, 1e-3, 1e-4, 1e-6)
    spec = ExperimentSpec(
        generator=InstanceSpec(
            "paper-4x4", n=500, sigma=0.0, seed=0, alpha=RECOVERY_ALPHA
        ),
        solver="sqrt-minvol",
        sigma_grid=sigmas,
        lambda_grid=(1.0,),
        replicates=1,
        base_seed=BASE_SEED,
        epsilon=1e-12,
        max_outer=150,
    )
    records = run_sweep(spec, jobs=min(JOBS, len(sigmas)))
    lines, ok = [], True
    for rec in records:
        bound = max(10.0 * rec.sigma, 1e-4)
        good = (
            rec.status == "ok" and rec.rel_rmse_X <= bound and rec.rel_rmse_W <= bound
        )
        ok = ok and good
        lines.append(
            f"sigma={rec.sigma:g} relX={rec.rel_rmse_X:.3e} "
            f"relW={rec.rel_rmse_W:.3e} bound={bound:g} {'ok' if good else 'VIOLATED'}"
        )
    report(
        f"fixed-weight noise sweep (lambda = 1, alpha = {RECOVERY_ALPHA:g})",
        ok,
        "; ".join(lines),
    )


def test_weight_range_robustness():
    """Recovery across four orders of magnitude of the weight.

    As in the fixed-weight sweep, the alpha = 0.05 SNPA start is already
    close to the truth: the grid checks that no in-range weight pulls the
    basis off the vertices, not that the solver travels far.
    """
    generator = InstanceSpec(
        "paper-4x4", n=500, sigma=0.0, seed=0, alpha=RECOVERY_ALPHA
    )
    lam_grid = (2.0, 1.5, 1.0, 0.8, 0.5, 0.1, 0.05, 0.01, 0.005, 0.001, 0.0005, 0.0001)
    spec = ExperimentSpec(
        generator=generator,
        solver="sqrt-minvol",
        sigma_grid=(0.0, 1e-3, 1e-2),
        lambda_grid=lam_grid,
        replicates=1,
        base_seed=BASE_SEED,
        epsilon=1e-12,
        max_outer=150,
    )
    records = run_sweep(spec, jobs=JOBS)
    bad = []
    for rec in records:
        if not (1e-4 <= rec.lam <= 1.0):
            continue
        bound = max(10.0 * rec.sigma, 1e-4)
        if rec.status != "ok" or rec.rel_rmse_W > bound:
            bad.append(f"(sigma={rec.sigma:g}, lam={rec.lam:g}, relW={rec.rel_rmse_W:.3e})")

    # A clearly-too-large weight must break recovery at high noise.  It
    # has to exceed lambda_break of the cell, above which shrinking W*
    # lowers f_eps.  A shrinking W has relW -> 1 from below as W -> 0, so
    # the threshold sits under that collapse limit (10 sigma = 1 could
    # never be exceeded).
    over_lam, over_threshold = 10.0, 0.5
    overshoot = ExperimentSpec(
        generator=generator,
        solver="sqrt-minvol",
        sigma_grid=(1e-1,),
        lambda_grid=(over_lam,),
        replicates=1,
        base_seed=BASE_SEED,
        epsilon=1e-12,
        max_outer=150,
    )
    over_gt, _ = make_instance(
        replace(generator, sigma=1e-1, seed=cell_seed(BASE_SEED, 0, 0))
    )
    # The spec leaves delta unset, so its cells run at the solver default.
    lam_break = lambda_break(over_gt, SqrtConfig.delta)
    over = run_sweep(overshoot, jobs=1)[0]
    over_ok = (
        over_lam > lam_break
        and over.status == "ok"
        and over.rel_rmse_W > over_threshold
    )

    ok = not bad and over_ok
    detail = (
        f"alpha = {RECOVERY_ALPHA:g}; {len(bad)} in-range cells over bound"
        + (f" e.g. {', '.join(bad[:4])}" if bad else "")
        + f"; overshoot cell (sigma={over.sigma:g}, lam={over_lam:g}, "
        + f"lambda_break={lam_break:.3g}) relW={over.rel_rmse_W:.3e} "
        + f"({'>' if over_ok else 'NOT >'} {over_threshold:g})"
    )
    report("weight-range robustness grid", ok, detail)


def test_inner_weight_decay():
    """The self-scaled inner weight should fall with the residual.

    The weight must sit below lambda_cert of the instance, where the
    truth is a strict local minimizer in W at sigma = 0; above it (at
    lambda = 0.8, say) the solver ends with a lower f_eps than the truth
    and the residual cannot fall to zero.
    """
    gt, X = make_instance(
        InstanceSpec(
            "random-uniform",
            n=2000,
            sigma=0.0,
            seed=BASE_SEED,
            m=25,
            r=20,
            alpha=RECOVERY_ALPHA,
        )
    )
    factors, trace = solve(
        X, 20, "sqrt-minvol", lam=0.2, epsilon=1e-12, max_outer=200,
        ground_truth=(gt.W_star, gt.X_star),
    )
    cfg = factors.config
    lam_cert = lambda_cert(gt, cfg.delta)
    rows = trace.rows
    lam1, lam_last = rows[0].lambda_k, rows[-1].lambda_k
    increases = sum(
        1
        for a, b in zip(rows, rows[1:])
        if a.k >= 5 and b.lambda_k > a.lambda_k * (1 + 1e-12)
    )
    rel_x = rows[-1].rel_rmse_X
    ok = (
        cfg.lam < lam_cert
        and increases == 0
        and lam_last <= 1e-3 * lam1
        and rel_x <= 1e-6
    )
    report(
        f"inner weight decay (25x20x2000, alpha = {RECOVERY_ALPHA:g})",
        ok,
        f"lam = {cfg.lam:g} (< lambda_cert = {lam_cert:.3g}), "
        f"increases after iter 5: {increases}, lam_final/lam_1 = "
        f"{lam_last / lam1:.3e} (<= 1e-3), final relX = {rel_x:.3e} (<= 1e-6)",
    )


def test_baseline_optimal_weight_trend():
    """The best init-scaled weight should shrink as the noise shrinks.

    Every cell must finish; a faulted cell would otherwise drop out of
    the replicate means unnoticed.  At sigma <= 1e-3 the argmin falls on
    the grid's smallest weight and is decided by differences in the 3rd
    to 4th digit of the mean relX; the result is deterministic.
    """
    lam_grid = tuple(c * 10.0**-d for d in range(6) for c in (1.5, 0.5)) + (1.5e-6,)
    spec = ExperimentSpec(
        generator=InstanceSpec("paper-4x4", n=500, sigma=0.0, seed=0),
        solver="minvol-baseline",
        sigma_grid=(1e-1, 1e-2, 1e-3, 1e-4),
        lambda_grid=lam_grid,
        replicates=5,
        base_seed=BASE_SEED,
        max_outer=400,
    )
    records = run_sweep(spec, jobs=JOBS)
    rows = summarize(records, spec.sigma_grid, spec.lambda_grid)
    faults = sum(1 for rec in records if rec.status != "ok")
    args = [row.argmin_lambda_X for row in rows]
    ok = (
        faults == 0
        and all(a is not None for a in args)
        and all(b <= a for a, b in zip(args, args[1:]))
    )
    detail = f"{faults} faulted cells; argmin lambda-tilde per sigma " + " -> ".join(
        f"{row.sigma:g}:"
        + ("none" if row.argmin_lambda_X is None else f"{row.argmin_lambda_X:g}")
        for row in rows
    )
    report("baseline optimal-weight trend", ok, detail)


def test_kernels_match_oracles():
    """Projection, logdet, gradients and alignment against references."""
    rng = np.random.default_rng(BASE_SEED + 2)
    problems = []

    worst = 0.0
    for case in range(500):
        k = case % 6 + 1
        v = rng.normal(size=k) * rng.choice([0.3, 1.0, 3.0])
        got = project_H_columns(v[:, None])[:, 0]
        want = proj_capped_oracle(v)
        worst = max(worst, float(np.max(np.abs(got - want))))
    problems.append(("projection vs QP oracle", worst <= 1e-10, f"max dev {worst:.2e}"))

    worst = 0.0
    for _ in range(50):
        W = rng.random((5, 4)) * rng.choice([0.5, 1.0, 2.0])
        got = shifted_gram(W, 0.1)[0]
        want = sum(math.log(e) for e in jacobi_eigenvalues(W.T @ W + 0.1 * np.eye(4)))
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    problems.append(("logdet vs eigenvalue oracle", worst <= 1e-10, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for _ in range(20):
        X = rng.random((4, 6))
        W, H = random_feasible(rng, 4, 3, 6)
        W += 0.2
        lam, delta, eps = 0.3, 0.1, 0.1
        Gw, Gh = f_eps_grad(X, W, H, lam, delta, eps)
        for got, num in (
            (Gw, fd_grad(lambda V: f_eps(X, V, H, lam, delta, eps), W)),
            (Gh, fd_grad(lambda V: f_eps(X, W, V, lam, delta, eps), H)),
        ):
            denom = max(float(np.max(np.abs(num))), 1e-12)
            worst = max(worst, float(np.max(np.abs(got - num))) / denom)
    problems.append(("smoothed-objective gradient vs FD", worst <= 1e-5, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for _ in range(20):
        X = rng.random((4, 6))
        W, H = random_feasible(rng, 4, 3, 6)
        W += 0.2
        lam, delta = 0.4, 0.1
        _, A = shifted_gram(W, delta)
        got_W = grad_W(X, W, H, A, lam)
        num_W = fd_grad(lambda V: objective_minvol(X, V, H, lam, delta), W)
        got_H = grad_H(X, W, H)
        num_H = fd_grad(lambda V: objective_minvol(X, W, V, lam, delta), H)
        for got, num in ((got_W, num_W), (got_H, num_H)):
            denom = max(float(np.max(np.abs(num))), 1e-12)
            worst = max(worst, float(np.max(np.abs(got - num))) / denom)
    problems.append(("baseline gradient vs FD", worst <= 1e-5, f"max rel dev {worst:.2e}"))

    worst = 0.0
    for r in (2, 3, 4, 5, 6):
        for _ in range(4):
            Ws = rng.random((5, r))
            Wh = rng.random((5, r))
            got = align_columns(Ws, Wh).cost
            _, want = align_brute_force(Ws, Wh)
            worst = max(worst, abs(got - want))
    problems.append(("alignment vs brute force", worst <= 1e-10, f"max cost dev {worst:.2e}"))

    ok = all(p[1] for p in problems)
    report(
        "kernel oracles",
        ok,
        "; ".join(f"{name} {'ok' if good else 'FAILED'} ({msg})" for name, good, msg in problems),
    )


def test_separable_initializer_recovery():
    """Planted extreme columns are found exactly on separable data."""
    rng = np.random.default_rng(BASE_SEED + 3)
    failures = []
    for case in range(50):
        m = int(rng.integers(4, 11))
        r = int(rng.integers(2, min(m, 5) + 1))
        n_extra = int(rng.integers(20, 41))
        W = rng.random((m, r)) + 0.05
        D = rng.dirichlet(np.ones(r), size=n_extra).T * 0.9
        body = np.hstack([W, W @ D])
        perm = rng.permutation(body.shape[1])
        X = body[:, perm]
        planted = sorted(int(np.where(perm == j)[0][0]) for j in range(r))
        result = snpa(X, r)
        res_ok = result.residual_norms[-1] <= 1e-8 * frobenius_norm(X)
        if sorted(result.selected_indices) != planted or not res_ok:
            failures.append(case)
    report(
        "separable initializer recovery (50 instances)",
        not failures,
        "all planted vertex sets recovered, residuals <= 1e-8 |X|"
        if not failures
        else f"failed cases {failures}",
    )


def strip_wall_column(csv_text):
    return [",".join(line.split(",")[:-1]) for line in csv_text.splitlines()]


def test_sweep_is_deterministic_across_jobs():
    """Serial and parallel sweeps emit identical bytes (minus timing)."""
    details = []
    ok = True
    for solver, grid, budget in (
        ("sqrt-minvol", (0.5, 0.05), {"max_outer": 10}),
        ("minvol-baseline", (0.1, 0.001), {"max_outer": 15}),
    ):
        spec = ExperimentSpec(
            generator=InstanceSpec("paper-4x4", n=60, sigma=0.0, seed=0),
            solver=solver,
            sigma_grid=(0.0, 1e-2),
            lambda_grid=grid,
            replicates=2,
            base_seed=BASE_SEED,
            **budget,
        )
        outputs = []
        for jobs in (1, JOBS):
            records = run_sweep(spec, jobs=jobs)
            sweep_buf, summary_buf = io.StringIO(), io.StringIO()
            write_table(sweep_buf, SweepRecord, records)
            rows = summarize(records, spec.sigma_grid, spec.lambda_grid)
            write_table(summary_buf, SummaryRow, rows)
            outputs.append(
                (strip_wall_column(sweep_buf.getvalue()), summary_buf.getvalue())
            )
        same = outputs[0] == outputs[1]
        ok = ok and same
        details.append(f"{solver}: {'identical' if same else 'DIFFER'}")
    report("sweep determinism across --jobs", ok, "; ".join(details))
