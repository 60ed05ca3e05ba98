"""The per-iteration metric subproblem, solved the way the trainer does.

At fixed dual coefficients the objective -1/2 (beta' base beta + v'Hv) is
linear in the metric H, so its exact minimizer over {H PSD, trace(H) <=
budget} is the rank-1 vertex budget * vv'/||v||^2, whose energy v'Hv is
budget * ||v||^2. The trainer instead takes damped steps
H <- gamma * H + delta * vv'; the metric stays a scaled identity plus one
atom per step, and this script shows the energy climbing to the vertex
while every iterate stays feasible.
"""

import numpy as np

from hfa.metric import MetricFactors, _scalar_inner_loop, initial_metric, lift_vector

rng = np.random.default_rng(0)
ns, nt = 4, 3
A = rng.standard_normal((ns, ns + 2))
B = rng.standard_normal((nt, nt + 2))
base = np.zeros((ns + nt, ns + nt))
base[:ns, :ns] = A @ A.T
base[ns:, ns:] = B @ B.T
factors = MetricFactors(base=base, lift=rng.standard_normal((ns + nt, ns + nt)),
                        n_source=ns, n_target=nt)
beta = rng.standard_normal(ns + nt)
budget = 2.0

v = lift_vector(factors, beta)
vertex_energy = budget * float(v @ v)
print(f"rank-1 vertex: energy v'Hv = budget * ||v||^2 = {vertex_energy:.8f}")

H = initial_metric(ns + nt, budget)
const = float(beta @ (base @ beta))
print(f"start (scaled identity): trace {H.trace:.6f}, energy {H.energy(v):.8f}")
for step in range(1, 31):
    gamma, delta = _scalar_inner_loop(H, v, const)
    if (gamma, delta) == (1.0, 0.0):
        print(f"  step {step:2d}: no step improves the energy, stopping")
        break
    H = H.rank1_update(gamma, delta, v)
    if step in (1, 2, 5, 10, 30):
        print(f"  step {step:2d}: gamma {gamma:.4f}, delta {delta:.3e}, trace {H.trace:.6f}, "
              f"energy {H.energy(v):.8f}, feasible {H.is_feasible()}, atoms {len(H.weights)}")
gap = vertex_energy - H.energy(v)
print(f"gap to the vertex energy after {len(H.weights)} steps: {gap:.2e} "
      f"(relative {gap / vertex_energy:.1e}); identity weight left {H.scale:.2e}")
