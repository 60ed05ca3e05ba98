"""Train one cross-domain binary model and inspect what it learned.

The two domains share latent class structure but live in different
feature spaces (here 10-D source, 8-D target), so no single-space
classifier applies to both; the model couples them through a learned
PSD metric and predicts on target-domain vectors only.
"""

import numpy as np

from hfa import HfaConfig, SyntheticSpec, generate_synthetic, hfa_train

spec = SyntheticSpec(latent_dim=3, num_classes=2, d_s=10, d_t=8,
                     source_per_class=30, target_per_class=10, seed=1)
source, target = generate_synthetic(spec)
print(f"source: {len(source)} samples in {source.dim}-D, target: {len(target)} in {target.dim}-D")

# binary task: class 1 vs rest, labels relabeled to +-1
model = hfa_train(source.binary_view(1), target.binary_view(1), HfaConfig())

trace = model.objective_trace
print(f"converged after {len(trace)} outer iterations "
      f"(objective {trace[0]:.3f} -> {trace[-1]:.3f})")
print(f"metric trace {model.metric.trace:.3f} of budget {model.metric.budget}")

scores = model.decision_function(target.X)
acc = np.mean(np.sign(scores) == target.binary_view(1).y)
print(f"training accuracy on the target side: {acc:.3f}")
print(f"single-vector decision value: {model.decision_function(target.X[0][None, :])[0]:+.4f} "
      f"(label {target.y[0]})")
