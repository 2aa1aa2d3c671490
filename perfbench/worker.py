"""One workload iteration in a fresh process; prints one JSON line.

Usage: python3 perfbench/worker.py --workload NAME --seed N --out DIR
[--trace]. A fresh process per iteration makes ``ru_maxrss`` the peak of
this iteration alone and makes the set-up cold, as a user's run is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _checksums(root):
    out = {}
    for path in sorted(root.rglob("*")):
        # the CLI manifest holds wall-clock timings; its checksum block
        # covers every other artifact, which is hashed here directly
        if path.is_file() and path.name != "manifest.json":
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def environment():
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg()[0],
    }


def pin_random_starts():
    """Fix the two random draws the program leaves to scipy unseeded.

    Without this no run repeats bit for bit (see WORKLOADS.md): scipy's
    ``onenormest`` inside ``expm_multiply`` draws from the global numpy RNG,
    and ``eigsh`` called without ``v0`` or ``rng`` draws its start vector
    from OS entropy. The start vector is made constant, which every torus
    symmetry leaves unchanged, so that ARPACK does the same work on each
    seed's symmetric image of a problem.
    """
    import numpy as np
    import scipy.sparse.linalg as spla

    np.random.seed(0)
    eigsh = spla.eigsh

    def constant_start_eigsh(A, *args, **kwargs):
        if kwargs.get("v0") is None and kwargs.get("rng") is None:
            kwargs["v0"] = np.ones(A.shape[0])
        return eigsh(A, *args, **kwargs)

    spla.eigsh = constant_start_eigsh


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    # one BLAS/OpenMP thread: must be set before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    pin_random_starts()
    from workloads import WORKLOADS
    from tracer import Tracer

    wl = WORKLOADS[args.workload]
    base = Path(args.out)
    inputs_dir, out = base / "inputs", base / "artifacts"
    for d in (inputs_dir, out):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    inp = wl.inputs(args.seed, inputs_dir)

    tracer = Tracer().install() if args.trace else None
    errors = {}
    try:
        t0, cpu0 = time.perf_counter(), time.process_time()
        ctx = wl.setup(inp)
        setup_s = time.perf_counter() - t0
        ops = wl.ops(ctx, out)
        for name, fn in ops:
            try:
                fn()
            except Exception as exc:  # a failed operation is a result
                errors[name] = f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if tracer is not None:
            tracer.uninstall()

    try:
        checks = wl.check(ctx, out)
    except Exception as exc:  # e.g. an artifact a failed operation never wrote
        checks = {name: f"{type(exc).__name__}: {exc}" for name, _ in ops}
    for name, reason in checks.items():
        if reason is not None and name not in errors:
            errors[name] = f"check failed: {reason}"
    print(json.dumps({
        "wall_s": wall_s,
        "setup_s": setup_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [name for name, _ in ops],
        "errors": errors,
        "checksums": _checksums(out),
        "layers": tracer.layers() if tracer is not None else None,
        "env": environment(),
    }))


if __name__ == "__main__":
    main()
