"""The two on-disk dataset formats plus PCA preprocessing.

Dense CSV carries a "label,f0,...,f{d-1}" header; the sparse format is
"label idx:val ..." with 1-based ascending indices and an optional
"#dim N" first line. Loading either yields the same Dataset type.
"""

from pathlib import Path
from tempfile import TemporaryDirectory

import numpy as np

from hfa import Dataset, load_dense_csv, load_sparse, save_dense_csv
from pca import pca_fit_transform

with TemporaryDirectory() as tmp:
    tmp = Path(tmp)

    dense = tmp / "demo.csv"
    data = Dataset("demo", np.array([[1.0, 0.0, 2.5], [0.0, -3.0, 0.0]]), np.array([0, 1]))
    save_dense_csv(data, dense)
    print(dense.read_text(), end="")
    back = load_dense_csv(dense)
    print(f"dense round trip exact: {np.array_equal(back.X, data.X)}\n")

    sparse = tmp / "demo.txt"
    sparse.write_text("#dim 3\n0 1:1.0 3:2.5\n1 2:-3.0\n", encoding="utf-8")
    as_sparse = load_sparse(sparse)
    print(f"sparse equals dense: {np.array_equal(as_sparse.X, data.X)}\n")

# PCA keeps the fewest axes reaching the requested energy fraction
rng = np.random.default_rng(3)
wide = Dataset("wide", rng.standard_normal((40, 2)) @ rng.standard_normal((2, 10)), np.zeros(40, dtype=int))
projected, basis = pca_fit_transform(wide, energy=0.9)
print(f"10-D data on a 2-D plane, energy 0.9 -> kept {projected.dim} axes, "
      f"retained energy {basis.retained_energy:.4f}")
