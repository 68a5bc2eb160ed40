"""Set-up time of one fresh process: import mtfact, then bring a training
collection to a sampling-ready state for both samplers.

Run by ``run.py`` as ``python3 perfbench/setup_probe.py <root> <inputs.npz>``;
prints ``{"setup_s": ...}``.  Loading the inputs is harness work and is not
timed.  The parent sets the BLAS thread variables, which this process inherits.
"""

import json
import sys
import time


def main(root: str, inputs: str) -> int:
    sys.path.insert(0, f"{root}/src")
    t0 = time.perf_counter()
    import mtfact
    from mtfact import mtf, rmtf
    t_import = time.perf_counter() - t0

    import numpy as np
    from mtfact.core import Collection, MaskedTensor3, Tensor3
    with np.load(inputs) as z:
        n_views = int(z["n_views"])
        views = tuple(MaskedTensor3(Tensor3(z[f"values_{t}"]), z[f"observed_{t}"])
                      for t in range(n_views))
        c = Collection(views, tuple(tuple(g) for g in json.loads(str(z["groups"]))),
                       tuple(str(s) for s in z["names"]))
        hp = mtfact.HyperParams(k=int(z["k"]), n_chains=1)
        seed = int(z["seed"])

    t0 = time.perf_counter()
    cn, _ = mtfact.center_and_normalize(c)
    data = mtf.prepare(cn, hp)
    mtf.init_state(data, hp, mtfact.RngStream(seed, 0))
    rmtf.rmtf_init(data, hp, mtfact.RngStream(seed, 0))
    t_ready = time.perf_counter() - t0
    print(json.dumps({"setup_s": t_import + t_ready, "import_s": t_import}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
