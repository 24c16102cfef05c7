"""Smallest end-to-end run: generate data, solve, read the trace.

The solver needs the data matrix, the target rank, and one penalty
weight.  Everything else has workable defaults.  The point to watch in
the printed trace is the lambda_k column: the inner penalty weight is
recomputed from the current misfit at every outer iteration, so it
shrinks on its own as the fit improves instead of staying at whatever
value was passed in.
"""

from sqrtminvol import InstanceSpec, make_instance, solve

# A 4 x 300 instance from the fixed 0/1 basis, mixing weights on the
# simplex, and a little additive noise.
spec = InstanceSpec("paper-4x4", n=300, sigma=1e-2, seed=0)
truth, X = make_instance(spec)
print(f"instance: X is {X.shape[0]} x {X.shape[1]}, rank {spec.rank}, "
      f"noise level {spec.sigma:g}")

# Passing the ground truth makes the solver record recovery errors in
# the trace; it never uses them to steer the iteration.
factors, trace = solve(X, spec.rank, "sqrt-minvol", lam=0.5, epsilon=1e-9,
                       max_outer=40, ground_truth=(truth.W_star, truth.X_star))

print(f"\n{'k':>3} {'f_eps':>12} {'lambda_k':>12} {'rel_rmse_X':>12} "
      f"{'rel_rmse_W':>12}")
for row in trace.rows:
    if row.k % 5 == 0 or row.k == len(trace.rows) - 1:
        print(f"{row.k:>3} {row.f_eps:>12.6f} {row.lambda_k:>12.3e} "
              f"{row.rel_rmse_X:>12.3e} {row.rel_rmse_W:>12.3e}")

last = trace.rows[-1]
print(f"\nstopped after {last.k} outer iterations")
print(f"W is {factors.W.shape[0]} x {factors.W.shape[1]}, "
      f"H columns sum to at most 1: {factors.H.sum(axis=0).max():.6f}")
print(f"final recovery error on W (after column matching): "
      f"{last.rel_rmse_W:.3e}")
