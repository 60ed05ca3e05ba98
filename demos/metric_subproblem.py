"""Frank-Wolfe steps of the trainer on a small problem, with their certificate.

The trainer minimizes P(H) = max_alpha 1'alpha - 1/2 beta'(F + L'HL)beta
over {H PSD, trace(H) <= lam}, beta = alpha * y. At fixed beta the
objective is linear in H, and its minimizer is the rank-1 vertex lam*hh',
h = v/||v||, v = L beta. Every lifted vector is L times a dual vector, so
this script, like the trainer, works with M = L'L alone: h = L c with
c = beta/sqrt(beta'M beta), h'v = c'M beta and ||v||^2 = beta'M beta, and
the metric H = s*I + sum_k w_k h_k h_k' adds
L'HL = s*M + sum_k w_k (M c_k)(M c_k)' to the kernel. A step moves H to
(1-t)H + t*lam*hh'; by Danskin's theorem
dP/dt = -1/2 (lam (c'M beta_t)^2 - v_t'H v_t) at the dual solution beta_t
for that metric. Every dual solution also certifies
L(alpha) = 1'alpha - 1/2 beta'F beta - 1/2 lam beta'M beta <= the saddle
value, so P - max L bounds the distance to it. This script checks dP/dt
at t = 0 against a finite difference, then takes eight steps from the
scaled identity, the trainer's start point, with the trainer's rule:
t = 1 unless the slope there is positive, else the better of t = 1 and
the secant root (hfa.evaluate._alternate also halves t if P would rise).
"""

import numpy as np

from hfa.core import HfaConfig
from hfa.data import SyntheticSpec, generate_synthetic, sample_protocol
from hfa.evaluate import prepare_kernels
from hfa.metric import initial_metric
from hfa.svm import solve_dual

# class 0 against the rest, 20 source and 4 target rows per class; F is
# blockdiag(Ks, Kt) of the two domain Grams, and so is M = L'L for L
# blockdiag of their square roots
source, pool = generate_synthetic(SyntheticSpec(num_classes=4, source_per_class=20))
target, _ = sample_protocol(pool, 4, seed=0)
cfg = HfaConfig()
(_, Ks), (_, Kt) = prepare_kernels(source.X, target.X, cfg)
base = M = np.block([[Ks, np.zeros((len(Ks), len(Kt)))], [np.zeros((len(Kt), len(Ks))), Kt]])
y = np.concatenate([source.binary_view(0).y, target.binary_view(0).y]).astype(float)
C, lam = cfg.C, cfg.lam


def solve(H, warm=None):
    U = M @ H.atoms.T
    # the product (U * w) @ U' need not be exactly symmetric, as solve_dual requires
    K = base + H.scale * M + (U * H.weights) @ U.T
    K = 0.5 * (K + K.T)
    return solve_dual(K, y, C, 1e-9, warm_start=warm)


def slope(H, c, sol):
    """dP/dt at the dual solution for H(t) = (1-t)H + t*lam*hh', h = L c."""
    m = M @ sol.beta
    return -0.5 * (lam * float(c @ m) ** 2 - H.energy(sol.beta, m))


def lower_bound(sol):
    return float(sol.alpha.sum() - 0.5 * sol.beta @ base @ sol.beta - 0.5 * lam * (sol.beta @ M @ sol.beta))


H = initial_metric(len(y), lam, len(y))
sol = solve(H)
lower = lower_bound(sol)
print(f"start (scaled identity): P = {sol.objective:.8f}, certificate L = {lower:.8f}")
for step in range(1, 9):
    c = sol.beta / np.sqrt(sol.beta @ M @ sol.beta)
    d0 = slope(H, c, sol)
    if step == 1:
        eps = 1e-6
        P_eps = solve(H.rank1_update(1 - eps, eps * lam, c), sol.alpha).objective
        print(f"  dP/dt at t = 0 is {d0:.6f} (finite difference {(P_eps - sol.objective) / eps:.6f}), "
              f"and P - L(alpha) = -dP/dt(0) = {sol.objective - lower_bound(sol):.6f}")
    trials = [(1.0, solve(H.rank1_update(0.0, lam, c), sol.alpha))]
    d1 = slope(H, c, trials[0][1])
    if d1 > 0:  # P turns upward before the vertex: try the secant root of the slope too
        t = d0 / (d0 - d1)
        trials.append((t, solve(H.rank1_update(1 - t, t * lam, c), sol.alpha)))
    lower = max([lower] + [lower_bound(s) for _, s in trials])
    t, new = min(trials, key=lambda trial: trial[1].objective)
    H = H.rank1_update(1 - t, t * lam, c)
    sol = new
    gap = (sol.objective - lower) / sol.objective
    print(f"step {step}: dP/dt(0) {d0:.3e}, dP/dt(1) {d1:+.3e}, t = {t:.4f}, P = {sol.objective:.8f}, "
          f"certified gap {gap:.1e}, trace {H.trace:.6f} <= {lam}, feasible {H.is_feasible()}")
