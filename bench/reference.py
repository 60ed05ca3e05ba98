"""A fixed reference command: the yardstick for the host's current speed.

    python3 bench/reference.py

bench/run.py runs this between the timed `hfa` commands, in a fresh
process started the same way, and divides the commands' median wall time
by this command's median. The host's speed drifts by up to 60% over
minutes; the ratio cancels that drift, because both commands run on the
same CPU within seconds of each other.

It imports nothing from the repository, so its work is the same on every
commit, and mixes the kinds of work the `hfa` commands do: interpreter
start and the numpy import, a loop of small-array numpy operations (as
in SMO), dense BLAS products and an eigendecomposition, and JSON and CSV
text written and parsed. It prints a checksum of its results, which is the same on every
run.
"""

import hashlib
import json
import sys

import numpy as np


def main() -> int:
    rng = np.random.default_rng(0)
    n = 100
    X = rng.standard_normal((n, 30))
    K = X @ X.T / 30.0
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)

    # small-array loop: selection and a rank-two update per step
    alpha = np.zeros(n)
    G = y.copy()
    for _ in range(6000):
        up = np.where(y > 0, alpha < 1.0, alpha > 0.0)
        i = int(np.argmax(np.where(up, G, -np.inf)))
        j = int(np.argmin(np.where(up, np.inf, G)))
        step = 1e-4 * (G[i] - G[j])
        alpha[i] = min(1.0, alpha[i] + abs(step))
        G -= step * (K[i] - K[j])

    # dense linear algebra
    M = np.tanh(rng.standard_normal((300, 300)))
    for _ in range(10):
        M = np.tanh(M @ M.T / 300)
    w, V = np.linalg.eigh(M[:n, :n])

    # text: JSON and CSV round trips of floats, as in model and data files
    values = rng.standard_normal(80_000).tolist()
    back = json.loads(json.dumps({"values": values}))["values"]
    lines = "\n".join(",".join(repr(v) for v in row) for row in np.reshape(back[:30_000], (-1, 20)).tolist())
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines.splitlines()])

    digest = hashlib.sha256()
    for part in (alpha, G, w, parsed):
        digest.update(np.ascontiguousarray(part).tobytes())
    digest.update(lines.encode())
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
