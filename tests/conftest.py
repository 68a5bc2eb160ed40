import os

# One BLAS thread, set before numpy loads: the statistical-harness tests run
# thousands of tiny (K = 2) solves, which OpenBLAS's default thread pool slows
# down several times over whenever another process holds a core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from mtfact.core import Collection, MaskedTensor3, Tensor3  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_collection(gen, n=12, d1=5, d2=6, l=4, masked=False):
    """Small matrix + tensor collection for unit tests."""
    x1 = gen.standard_normal((n, d1, 1))
    x2 = gen.standard_normal((n, d2, l))
    if masked:
        m1 = gen.random((n, d1, 1)) > 0.2
        m2 = gen.random((n, d2, l)) > 0.2
        # keep every fiber usable
        m1[:3] = True
        m2[:3] = True
        views = (MaskedTensor3(Tensor3(x1), m1), MaskedTensor3(Tensor3(x2), m2))
    else:
        views = (MaskedTensor3.fully_observed(x1), MaskedTensor3.fully_observed(x2))
    return Collection(views, (), ("mat", "tens"))


def make_masked_rows_collection(gen, n=8, d1=3, d2=4, l=3):
    """Matrix + tensor collection where about a third of the entries are
    masked at random, so rows have their own missingness patterns, and
    row 2 is masked in every view."""
    views = []
    for shape in ((n, d1, 1), (n, d2, l)):
        obs = gen.random(shape) > 0.3
        obs[2] = False
        views.append(MaskedTensor3(Tensor3(gen.standard_normal(shape)), obs))
    return Collection(tuple(views), (), ("mat", "tens"))


def fully_observed(c):
    """The same collection with every entry observed."""
    return Collection(tuple(MaskedTensor3.fully_observed(v.values) for v in c.views),
                      c.third_mode_groups, c.names)


def swap_index_columns(path):
    """Swap the first two columns of a CSV table file, header included."""
    rows = [line.split(",", 2) for line in path.read_text().splitlines()]
    path.write_text("".join(f"{b},{a},{rest}\r\n" for a, b, rest in rows))


def stacked_draw_spy(monkeypatch, module):
    """Record the Gaussian row draws of the Z- and U-steps in ``module``:
    returns a list that receives, per draw, (precision per row, conditional
    mean per row).  The pattern precisions that ``module._factors`` gets are
    expanded to the rows by the pattern index that
    ``module.draw_mvn_precision_chol`` gets (a shared (K, K) precision is
    repeated)."""
    seen, precs = [], []
    factors, draw = module._factors, module.draw_mvn_precision_chol

    def factors_spy(prec):
        precs.append(prec.reshape((-1,) + prec.shape[-2:]))
        return factors(prec)

    def draw_spy(h, chols, pattern, eps):
        prec_rows = precs.pop()[pattern]
        seen.append((prec_rows, np.linalg.solve(prec_rows, h[..., None])[..., 0]))
        return draw(h, chols, pattern, eps)

    monkeypatch.setattr(module, "_factors", factors_spy)
    monkeypatch.setattr(module, "draw_mvn_precision_chol", draw_spy)
    return seen
