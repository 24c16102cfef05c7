"""The benchmark's workloads: inputs made from a seed, the timed call, checks.

Every call goes through the public API and looks its function up on the
owning module at call time, so a tracer that patches the modules sees
the benchmark's own calls as well as the package's internal ones.

Call ``i`` of a run uses an instance seeded from ``(seed, i)``, so a run
covers several instances and reports medians over them; the solver
only ever sees the generated ``X``.
"""

import importlib
import itertools
import math
import statistics

import numpy as np

PACKAGE = "sqrtminvol"

# Slack on the unit cap of H columns, as in the package's feasibility check.
CAP_SLACK = 1e-12
# The solvers' acceptance rule: f_eps may rise by rounding only.
DESCENT_SLACK = 1e-9
# Agreement of an independently recomputed value with the reported one.
RECOMPUTE_RTOL = 1e-9


def module(name):
    return importlib.import_module(f"{PACKAGE}.{name}")


def call_seed(seed, i):
    """Instance seed of call ``i`` in a run started with ``seed``."""
    ss = np.random.SeedSequence(entropy=(int(seed), int(i)))
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def _close(a, b, rtol=RECOMPUTE_RTOL):
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def factor_problems(W, H):
    """Feasibility of a factor pair: finite, ``W >= 0``, ``H >= 0``, H columns capped."""
    W, H = np.asarray(W), np.asarray(H)
    if not (np.isfinite(W).all() and np.isfinite(H).all()):
        return ["non-finite factor entries"]
    problems = []
    if W.min() < 0.0:
        problems.append(f"W has a negative entry {W.min():.3g}")
    if H.min() < 0.0:
        problems.append(f"H has a negative entry {H.min():.3g}")
    if H.sum(axis=0).max() > 1.0 + CAP_SLACK:
        problems.append(f"H column sum {H.sum(axis=0).max():.17g} over the cap")
    return problems


def descent_problems(history, what):
    """An objective history must be finite and rise by rounding only."""
    f = [float(v) for v in history]
    if not np.isfinite(f).all():
        return [f"non-finite {what} history"]
    return [
        f"{what} rose at step {k}: {f[k - 1]!r} -> {f[k]!r}"
        for k in range(1, len(f))
        if f[k] > f[k - 1] + DESCENT_SLACK * abs(f[k - 1])
    ]


def _rel_rmse_W_bracket(W_star, W):
    """Lower and upper bounds on the column-matched relative error of ``W``.

    Exact (both bounds equal) for up to 6 columns by trying every
    matching; otherwise the nearest-column bound below and the identity
    matching above.
    """
    C = ((W_star[:, :, None] - W[:, None, :]) ** 2).sum(axis=0)
    denom = math.sqrt(float((W_star * W_star).sum()))
    r = W.shape[1]
    if r <= 6:
        best = min(C[np.arange(r), list(p)].sum() for p in itertools.permutations(range(r)))
        return math.sqrt(best) / denom, math.sqrt(best) / denom
    lower = math.sqrt(float(C.min(axis=1).sum())) / denom
    upper = math.sqrt(float(np.trace(C))) / denom
    return lower, upper


class SqrtSolve:
    """``sqrt_minvol`` on one generated instance per call, ground truth passed in."""

    kind = "sqrt"
    call_module = "solver"

    def __init__(self, generator, n, sigma, lam, epsilon, max_outer, m=None, r=None,
                 quality_calls=1, trace_calls=1):
        self.generator = generator
        self.n, self.sigma, self.m, self.r = n, sigma, m, r
        self.lam, self.epsilon, self.max_outer = lam, epsilon, max_outer
        self.quality_calls = quality_calls
        self.trace_calls = trace_calls

    def make_input(self, seed, i):
        datagen = module("datagen")
        spec = datagen.InstanceSpec(
            self.generator, n=self.n, sigma=self.sigma, seed=call_seed(seed, i),
            m=self.m, r=self.r,
        )
        truth, X = datagen.make_instance(spec)
        return truth, X

    def config(self):
        return module("solver").SqrtConfig(
            lam=self.lam, epsilon=self.epsilon, max_outer=self.max_outer
        )

    def call(self, inp):
        truth, X = inp
        return module("solver").sqrt_minvol(
            X, truth.spec.rank, self.config(), ground_truth=(truth.W_star, truth.X_star)
        )

    def units(self):
        return 1

    def input_key(self, inp):
        truth, X = inp
        return X.tobytes(), truth.W_star.tobytes(), truth.X_star.tobytes()

    def check(self, inp, out):
        """Problems with one solve, checked in numpy apart from the package."""
        truth, X = inp
        pair, trace = out
        W, H = np.asarray(pair.W), np.asarray(pair.H)
        cfg = self.config()
        if W.shape != truth.W_star.shape or H.shape != truth.H_star.shape:
            return [f"factor shapes {W.shape}, {H.shape}"]
        problems = factor_problems(W, H)
        if not trace.rows:
            return problems + ["empty trace"]
        problems += descent_problems([row.f_eps for row in trace.rows], "f_eps")
        if problems:
            return problems
        last = trace.rows[-1]
        res = X - W @ H
        sign, logdet = np.linalg.slogdet(W.T @ W + cfg.delta * np.eye(W.shape[1]))
        f_check = math.sqrt(float((res * res).sum()) + cfg.epsilon) + cfg.lam * logdet
        if sign <= 0 or not _close(f_check, last.f_eps):
            problems.append(f"final f_eps {last.f_eps!r}, recomputed {f_check!r}")
        E = truth.X_star - W @ H
        relX = math.sqrt(float((E * E).sum()) / float((truth.X_star ** 2).sum()))
        if last.rel_rmse_X is None or not _close(relX, last.rel_rmse_X):
            problems.append(f"rel_rmse_X {last.rel_rmse_X!r}, recomputed {relX!r}")
        lower, upper = _rel_rmse_W_bracket(truth.W_star, W)
        relW = last.rel_rmse_W
        if relW is None or not (
            lower * (1 - RECOMPUTE_RTOL) <= relW <= upper * (1 + RECOMPUTE_RTOL)
        ):
            problems.append(f"rel_rmse_W {relW!r} outside [{lower!r}, {upper!r}]")
        return problems

    def quality(self, out):
        last = out[1].rows[-1]
        return {"objective": last.f_eps, "rel_rmse_W": last.rel_rmse_W,
                "rel_rmse_X": last.rel_rmse_X}

    def answer(self, out):
        """Everything the solve returned, for bit-for-bit comparisons."""
        pair, trace = out
        return (pair.W.tobytes(), pair.H.tobytes(),
                tuple((r.f_eps, r.rel_rmse_W, r.rel_rmse_X) for r in trace.rows))


class SqrtSweep:
    """``run_sweep`` of ``sqrt_minvol`` over a (sigma, lambda) grid on a process pool.

    Each cell builds its own instance, runs its own SNPA and a cold solve
    of ``max_outer`` outer steps, and computes its metrics once.
    """

    kind = "sweep"
    call_module = "sweep"

    def __init__(self, n, sigmas, lambdas, replicates, jobs, max_outer,
                 quality_calls=1, trace_calls=1):
        self.n, self.sigmas, self.lambdas = n, sigmas, lambdas
        self.replicates, self.jobs, self.max_outer = replicates, jobs, max_outer
        self.quality_calls = quality_calls
        self.trace_calls = trace_calls

    def make_input(self, seed, i):
        datagen, sweep = module("datagen"), module("sweep")
        return sweep.ExperimentSpec(
            generator=datagen.InstanceSpec("paper-4x4", n=self.n, sigma=0.0, seed=0),
            solver="sqrt-minvol",
            sigma_grid=self.sigmas,
            lambda_grid=self.lambdas,
            replicates=self.replicates,
            base_seed=call_seed(seed, i),
            max_outer=self.max_outer,
        )

    def call(self, spec):
        return module("sweep").run_sweep(spec, jobs=self.jobs)

    def units(self):
        return len(self.sigmas) * len(self.lambdas) * self.replicates

    def input_key(self, spec):
        return spec

    def check(self, spec, records):
        problems = []
        if len(records) != self.units():
            problems.append(f"{len(records)} records for {self.units()} cells")
        for rec in records:
            where = f"cell sigma={rec.sigma:g} lam={rec.lam:g} rep={rec.replicate}"
            if rec.status != "ok":
                problems.append(f"{where}: status {rec.status}")
                continue
            values = (rec.final_obj, rec.rel_rmse_W, rec.rel_rmse_X)
            if any(v is None or not math.isfinite(v) for v in values):
                problems.append(f"{where}: non-finite result {values}")
            elif rec.rel_rmse_W < 0.0 or rec.rel_rmse_X < 0.0:
                problems.append(f"{where}: negative error {values}")
            if not 1 <= rec.outer_iters <= self.max_outer:
                problems.append(f"{where}: {rec.outer_iters} outer iterations")
        return problems

    def quality(self, records):
        """Means over the cells that finished."""
        ok = [r for r in records if r.status == "ok"]
        return {
            key: statistics.fmean(getattr(r, attr) for r in ok) if ok else None
            for key, attr in (("objective", "final_obj"), ("rel_rmse_W", "rel_rmse_W"),
                              ("rel_rmse_X", "rel_rmse_X"))
        }

    def answer(self, records):
        return tuple(
            (r.sigma, r.lam, r.replicate, r.seed, r.status, r.final_obj, r.rel_rmse_W,
             r.rel_rmse_X, r.outer_iters)
            for r in records
        )


# Why each workload is here: see README.md in this directory.
WORKLOADS = {
    "paper-4x4": SqrtSolve(
        "paper-4x4", n=500, sigma=1e-4, lam=1.0, epsilon=1e-12, max_outer=6,
        quality_calls=20, trace_calls=2,
    ),
    "uniform-r20": SqrtSolve(
        "random-uniform", m=25, r=20, n=200, sigma=0.0, lam=0.8, epsilon=1e-12,
        max_outer=2, quality_calls=10,
    ),
    "sqrt-sweep": SqrtSweep(
        n=500, sigmas=(1e-1, 1e-2, 1e-3, 1e-4), lambdas=(1.5e-1, 1.5e-3, 1.5e-5),
        replicates=2, jobs=2, max_outer=4, quality_calls=5,
    ),
}
