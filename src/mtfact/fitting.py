"""Multi-chain fitting front end shared by the CLI and the experiment scripts."""

from __future__ import annotations

from .core import Collection, center_and_normalize, unfold_collection
from .dist import RngStream
from .mtf import HyperParams, run_chain
from .rmtf import rmtf_run_chain

__all__ = ["fit_model", "pmap"]

MODELS = ("mtf", "rmtf", "gfa")


def pmap(fn, items, jobs: int = 1):
    """Order-preserving map, optionally over worker processes."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


def _run_one(payload):
    c, hp, model, seed, chain_id = payload
    return (rmtf_run_chain if model == "rmtf" else run_chain)(c, hp, RngStream(seed, chain_id))


def fit_model(c: Collection, hp: HyperParams, model: str = "mtf", seed: int = 0,
              preprocess: bool = True, jobs: int = 1):
    """Preprocess, dispatch (gfa = unfold tensors, then the strict sampler on
    matrices, each chain's ``origins`` set to the unfold map), and run
    ``hp.n_chains`` chains, chain i on ``RngStream(seed, i)``, over ``jobs``
    worker processes.

    Returns (chains, transform or None, fitted collection).
    """
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}, got {model!r}")
    origins = None
    if model == "gfa":
        # unfold first so the stored transform matches the archived views
        # (per-fiber standardization commutes with unfolding)
        c, origins = unfold_collection(c)
        model = "mtf"
    transform = None
    if preprocess:
        c, transform = center_and_normalize(c)
    chains = pmap(_run_one, [(c, hp, model, seed, i) for i in range(hp.n_chains)], jobs)
    for chain in chains:
        chain.origins = origins
    return chains, transform, c
