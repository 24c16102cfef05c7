"""The paper's picture: data, true vertices and estimated vertices in 2-D.

The columns of the paper's 4 x 4 basis satisfy w1 + w3 = w2 + w4, so
they are the corners of a parallelogram in a plane, and every noiseless
data column X* = W* h lies inside it.  The top two principal directions
of the data span that plane (up to the noise), so projecting the data,
the true vertices and the square-root solver's vertices onto them shows
the whole geometry: the solver's columns should sit on the true corners.

The script writes ``set,index,pc1,pc2`` rows for any plotting tool:
sets ``X``, ``W_star`` and ``W_hat`` (matched to the columns of
``W_star``), all in the frame fitted to ``X``.  The CSV goes to the path
given as the first argument, or else to a temporary directory.

    python demos/paper_picture.py [out.csv]
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

from sqrtminvol import InstanceSpec, align_columns, make_instance, solve

spec = InstanceSpec("paper-4x4", n=500, sigma=1e-2, seed=0, alpha=0.3)
truth, X = make_instance(spec)
factors, trace = solve(
    X, 4, "sqrt-minvol", lam=1.0, epsilon=1e-9, max_outer=50,
    ground_truth=(truth.W_star, truth.X_star),
)
# Solved columns come in any order; list them in the order of the truth's.
W_hat = factors.W[:, align_columns(truth.W_star, factors.W).permutation]

# Frame: the mean of the data columns and the top two eigenvectors of
# their covariance, each signed so that its largest entry is positive.
mean = X.mean(axis=1, keepdims=True)
_, vecs = np.linalg.eigh(np.cov(X))
basis = vecs[:, [-1, -2]]
basis *= np.sign(basis[np.abs(basis).argmax(axis=0), [0, 1]])

out = Path(sys.argv[1]) if len(sys.argv) > 1 else (
    Path(tempfile.mkdtemp(prefix="paper_picture_")) / "paper_picture.csv"
)
with open(out, "w") as fh:
    fh.write("set,index,pc1,pc2\n")
    for name, points in (("X", X), ("W_star", truth.W_star), ("W_hat", W_hat)):
        for i, (pc1, pc2) in enumerate((points - mean).T @ basis):
            fh.write(f"{name},{i},{pc1:.17g},{pc2:.17g}\n")

print(f"{trace.rows[-1].k} outer iterations, stop = {trace.stop}, "
      f"rel_rmse_W = {trace.rows[-1].rel_rmse_W:.3e}")
print("vertices in the principal frame, W_star | W_hat:")
for star, hat in zip((truth.W_star - mean).T @ basis, (W_hat - mean).T @ basis):
    print(f"  ({star[0]:+.3f}, {star[1]:+.3f}) | ({hat[0]:+.3f}, {hat[1]:+.3f})")
print(f"wrote {out}")
