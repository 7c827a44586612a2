"""All six candidates side by side: ranks across desk-scale problems.

Fixed-rate SGD/Adam (using a decent hand-picked rate), the raw per-batch
Armijo searches, and the smoothed ones - the comparison table reports the
per-problem smoothed final losses, arithmetic and geometric means, and the
average rank (ties averaged), mirroring how optimizer benchmarks are
usually summarized.
"""

from salsa_opt import compare_optimizers

PROBLEMS = [
    {"kind": "logreg", "n": 2000, "dim": 20, "seed": 0, "label_noise": 0.1},
    {"kind": "mlp", "n": 2000, "in_dim": 10, "hidden": 8, "seed": 0},
    {"kind": "matrix_factorization", "rows": 20, "cols": 15, "rank": 3,
     "seed": 0},
]
OPTIMIZERS = [
    {"kind": "sgd", "lr": 0.1},
    {"kind": "adam", "lr": 0.01},
    {"kind": "sgd_sls"},
    {"kind": "adam_sls"},
    {"kind": "sgd_salsa"},
    {"kind": "adam_salsa"},
]

table = compare_optimizers(PROBLEMS, OPTIMIZERS, seeds=[0, 1, 2], epochs=5,
                           batch_size=32)
print(table.to_csv())
print("lower is better everywhere; the last row is the average rank")
print("note: on runs this short the sgd searches rarely meet a violating")
print("batch, so the raw and smoothed sgd columns can coincide exactly;")
print("they separate once the step size reaches the acceptance boundary")
print("(demo 02 shows that regime)")
