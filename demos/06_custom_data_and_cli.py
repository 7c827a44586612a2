"""Bring your own dataset: CSV ingestion, gradient checking, and the CLI.

Any CSV of feature columns plus a final binary label column can back a
logistic-regression or small-MLP objective. Every objective carries an
analytic gradient; the finite-difference oracle verifies it at seeded
points, which is also what `salsa-opt check-grad` does.
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from salsa_opt import finite_diff_grad, problem_from_csv
from salsa_opt.cli import main as salsa_opt_cli

workdir = Path(tempfile.mkdtemp(prefix="salsa_opt_demo_"))

# write a small synthetic dataset the way a user's export might look
rng = np.random.default_rng(2024)
X = rng.standard_normal((120, 4))
labels = (X @ np.array([1.0, -0.5, 2.0, 0.0]) > 0).astype(int)
csv_path = workdir / "mydata.csv"
rows = ["f0,f1,f2,f3,label"]
rows += [",".join(repr(float(v)) for v in x) + f",{y}"
         for x, y in zip(X, labels)]
csv_path.write_text("\n".join(rows) + "\n")

problem = problem_from_csv(str(csv_path), model="logreg")
print(f"loaded {problem.name}: dim={problem.dim}, "
      f"train points={problem.dataset_size}")

w = problem.init_params(0)
analytic = problem.loss_grad(w, problem.full_indices()).grad
numeric = finite_diff_grad(problem, w, h=1e-5)
rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
print(f"analytic vs finite-difference gradient: rel err {rel:.2e}")

# the same workflow through the command line
config = {
    "problem": {"kind": "csv", "path": str(csv_path), "model": "logreg"},
    "optimizer": {"kind": "adam_salsa"},
    "seeds": [0],
    "epochs": 3,
    "batch_size": 16,
}
cfg_path = workdir / "run.json"
cfg_path.write_text(json.dumps(config))
out_path = workdir / "trace.csv"
code = salsa_opt_cli(["run", "--config", str(cfg_path),
                      "--out", str(out_path)])
print(f"\n`salsa-opt run` exit code {code}; first trace lines:")
print("\n".join(out_path.read_text().splitlines()[:4]))
print("\nother subcommands: compare, scaling, freq-ablation, check-grad")
