"""Frank-Wolfe steps of the trainer on a small problem, with their certificate.

The trainer minimizes P(H) = max_alpha 1'alpha - 1/2 beta'(F + L'HL)beta
over {H PSD, trace(H) <= lam}, beta = alpha * y. At fixed beta the
objective is linear in H, and its minimizer is the rank-1 vertex lam*hh',
h = v/||v||, v = L beta. A step moves H to (1-t)H + t*lam*hh'; by
Danskin's theorem dP/dt = -1/2 (lam (h'L beta_t)^2 - (L beta_t)'H(L beta_t))
at the dual solution beta_t for that metric. Every dual solution also
certifies L(alpha) = 1'alpha - 1/2 beta'F beta - 1/2 lam ||L beta||^2 <= the
saddle value, so P - max L bounds the distance to it. This script checks
dP/dt at t = 0 against a finite difference, then takes eight steps from
the scaled identity, the trainer's start point, with the trainer's rule:
t = 1 unless the slope there is positive, else the better of t = 1 and
the secant root (hfa.core._alternate also halves t if P would rise).
"""

import numpy as np

from hfa.core import HfaConfig, prepare_kernels
from hfa.data import SyntheticSpec, generate_synthetic, sample_protocol
from hfa.metric import initial_metric
from hfa.svm import DualProblem, solve_dual

# class 0 against the rest, 20 source and 4 target rows per class; F is
# blockdiag(Ks, Kt) and L blockdiag of their ridged square roots
source, pool = generate_synthetic(SyntheticSpec(num_classes=4, source_per_class=20))
target, _ = sample_protocol(pool, 4, seed=0)
cfg = HfaConfig()
pk = prepare_kernels(source.X, target.X, cfg)
base, lift = pk.base, pk.lift
y = np.concatenate([source.binary_view(0).y, target.binary_view(0).y]).astype(float)
C, lam = cfg.C, cfg.lam


def solve(H, warm=None):
    K = base + lift.T @ H.matrix @ lift
    return solve_dual(DualProblem(K, y, C), 1e-9, warm_start=warm)


def slope(H, h, sol):
    """dP/dt at the dual solution for H(t) = (1-t)H + t*lam*hh'."""
    w = lift @ sol.beta
    return -0.5 * (lam * float(h @ w) ** 2 - H.energy(w))


def lower_bound(sol):
    w = lift @ sol.beta
    return float(sol.alpha.sum() - 0.5 * sol.beta @ base @ sol.beta - 0.5 * lam * (w @ w))


H = initial_metric(lift.shape[0], lam)
sol = solve(H)
lower = lower_bound(sol)
print(f"start (scaled identity): P = {sol.objective:.8f}, certificate L = {lower:.8f}")
for step in range(1, 9):
    v = lift @ sol.beta
    h = v / np.linalg.norm(v)
    d0 = slope(H, h, sol)
    if step == 1:
        eps = 1e-6
        P_eps = solve(H.rank1_update(1 - eps, eps * lam, h), sol.alpha).objective
        print(f"  dP/dt at t = 0 is {d0:.6f} (finite difference {(P_eps - sol.objective) / eps:.6f}), "
              f"and P - L(alpha) = -dP/dt(0) = {sol.objective - lower_bound(sol):.6f}")
    trials = [(1.0, solve(H.rank1_update(0.0, lam, h), sol.alpha))]
    d1 = slope(H, h, trials[0][1])
    if d1 > 0:  # P turns upward before the vertex: try the secant root of the slope too
        t = d0 / (d0 - d1)
        trials.append((t, solve(H.rank1_update(1 - t, t * lam, h), sol.alpha)))
    lower = max([lower] + [lower_bound(s) for _, s in trials])
    t, new = min(trials, key=lambda trial: trial[1].objective)
    H = H.rank1_update(1 - t, t * lam, h)
    sol = new
    gap = (sol.objective - lower) / sol.objective
    print(f"step {step}: dP/dt(0) {d0:.3e}, dP/dt(1) {d1:+.3e}, t = {t:.4f}, P = {sol.objective:.8f}, "
          f"certified gap {gap:.1e}, trace {H.trace:.6f} <= {lam}, feasible {H.is_feasible()}")
