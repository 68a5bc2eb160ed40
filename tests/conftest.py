import numpy as np
import pytest

from mtfact.core import Collection, MaskedTensor3, Tensor3


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


def stacked_draw_spy(monkeypatch, module):
    """Record the (h, chols) arguments of ``module.draw_mvn_rows`` calls;
    returns a list that receives (precision stack, conditional means)."""
    seen = []
    orig = module.draw_mvn_rows

    def spy(h, chols, rng):
        prec = chols @ chols.transpose(0, 2, 1)
        seen.append((prec, np.linalg.solve(prec, h[..., None])[..., 0]))
        return orig(h, chols, rng)

    monkeypatch.setattr(module, "draw_mvn_rows", spy)
    return seen
