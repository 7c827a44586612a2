"""Backtracking Armijo line search on an ill-conditioned quadratic.

The search proposes a slightly grown step each iteration, then shrinks it
until the sufficient-decrease test holds. Compare against plain SGD with a
hand-picked rate: the search needs no tuning and lands near the same
stability boundary by itself.
"""

from salsa_opt import (BatchSampler, SlsConfig, SlsState, batch_for_step,
                       make_quadratic, run_single, sls_step)

problem = make_quadratic(dim=10, cond=100, seed=42)
sampler = BatchSampler(seed=0, batch_size=1, dataset_size=1)
cfg = SlsConfig()
state = SlsState(eta=cfg.eta_init)
w = problem.init_params(0)

print(f"problem: {problem.name}, start loss {problem.full_loss(w):.3f}")
print(f"{'step':>5} {'loss':>12} {'eta':>10} {'backtracks':>10}")
for k in range(400):
    batch = batch_for_step(problem, sampler, k)
    w, rec = sls_step(batch, w, state, cfg)
    if k % 50 == 0 or k == 399:
        print(f"{k:5d} {rec.loss:12.6f} {rec.eta:10.5f} {rec.backtracks:10d}")

print(f"\nfinal loss {problem.full_loss(w):.3e} "
      f"(optimum is {problem.optimum_hint})")
print("note: eta settled near 2(1-c)/L_max = "
      f"{2 * (1 - cfg.c) / 100:.4f} without any tuning")

# the same problem with a fixed rate at the classical stability boundary
w_fixed = run_single(problem, {"kind": "sgd", "lr": 0.018}, seed=0,
                     epochs=400, batch_size=1).final_params
print(f"fixed SGD at lr=0.018 after 400 steps: "
      f"{problem.full_loss(w_fixed):.3e}")
