"""A small parameter sweep, summarized and written to CSV.

The sweep harness runs a (sigma, replicate, lambda) grid of solves with
per-cell deterministic seeding, collects one record per cell, and
reduces the grid to a per-sigma summary: the weight with the smallest
replicate-averaged recovery error.  Records are byte-identical however
many worker processes are used, so results can be regenerated and
diffed.  The same grid is also what the command line runs from an INI
file via "sqrtminvol sweep".
"""

import io
import tempfile
from pathlib import Path

from sqrtminvol import ExperimentSpec, InstanceSpec, run_sweep, summarize, write_table
from sqrtminvol.sweep import SummaryRow, SweepRecord

spec = ExperimentSpec(
    generator=InstanceSpec("paper-4x4", n=200, sigma=0.0, seed=0, alpha=0.05),
    solver="sqrt-minvol",
    sigma_grid=(1e-1, 1e-2),
    lambda_grid=(1.0, 0.3, 0.1),
    replicates=2,
    base_seed=17,
    epsilon=1e-9,
    max_outer=30,
)

records = run_sweep(spec, jobs=4)
print(f"ran {len(records)} cells "
      f"({len(spec.sigma_grid)} sigmas x {spec.replicates} replicates x "
      f"{len(spec.lambda_grid)} lambdas)")

print(f"\n{'sigma':>6} {'rep':>4} {'lambda':>7} {'rel_rmse_W':>11} "
      f"{'outer':>6} {'status':>7}")
for r in records:
    print(f"{r.sigma:>6g} {r.replicate:>4} {r.lam:>7g} "
          f"{r.rel_rmse_W:>11.3e} {r.outer_iters:>6} {r.status:>7}")

rows = summarize(records, spec.sigma_grid, spec.lambda_grid)
print("\nper-sigma best weights (replicate-averaged):")
for row in rows:
    print(f"  sigma={row.sigma:g}: best lambda for W is "
          f"{row.argmin_lambda_W:g} "
          f"(mean rel_rmse_W {row.min_rel_rmse_W:.3e})")

# The one CSV writer is a plain function over the in-memory records, so a
# string buffer works as well as a file.
buf = io.StringIO()
write_table(buf, SweepRecord, records)
print(f"\nsweep CSV is {len(buf.getvalue().splitlines())} lines "
      f"(1 header + {len(records)} records)")

out = Path(tempfile.mkdtemp(prefix="sweep_demo_"))
with open(out / "records.csv", "w") as fh:
    write_table(fh, SweepRecord, records)
with open(out / "summary.csv", "w") as fh:
    write_table(fh, SummaryRow, rows)
print(f"wrote {out / 'records.csv'} and {out / 'summary.csv'}")
