"""Command-line entry point.

Exit codes: 0 success, 2 config error, 3 solver non-convergence or a
partial result (artifacts are written, the manifest lists the warnings),
4 internal inconsistency (a structural identity failed numerically).  A
stage that fails once the output directory exists still leaves config.json
and a manifest whose ``error`` names it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .choquard import SelfDualInconsistencyError
from .harness import ConfigError, RunConfig, run
from .operator import SolverError
from .spectral import SpectralInconsistencyError
from .variational import NotFoundError


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="anderson2d",
        description="Anderson operator toolkit on the flat 2-torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None,
                       help="output directory (default <root>/<command>, the "
                            "root from $ANDERSON2D_OUT_ROOT or runs)")

    p = sub.add_parser("sample-noise", help="draw a seeded white-noise field")
    common(p)
    p.add_argument("--cutoff", type=int, default=None)

    p = sub.add_parser("diagnose-heat", help="heat kernel / Green diagnostics")
    common(p)
    p.add_argument("--times", type=_float_list, default=None)

    p = sub.add_parser("spectrum", help="low eigenpairs of -H_c + a")
    common(p)
    p.add_argument("--potential", default=None)
    p.add_argument("--count", type=int, default=None)

    p = sub.add_parser("kato-check", help="Kato moduli and resolvent sweeps")
    common(p)
    p.add_argument("--potential", default=None)
    p.add_argument("--sweep", default=None,
                   help="sweeps as key=values, keys separated by ';' and "
                        "values by ',', e.g. \"r=0.8,0.4;T=0.5;lambda=1,10\"")

    for name in ("solve-mp", "solve-fountain"):
        p = sub.add_parser(name, help="variational saddle search")
        common(p)
        p.add_argument("--potential", default=None)
        p.add_argument("--nonlinearity", default=None,
                       help="pow3 or pow:<ell>")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--max-iter", type=int, default=None,
                       help="Nehari-descent step cap")
        if name == "solve-fountain":
            p.add_argument("--count", type=int, default=None,
                           help="number of distinct levels to find")

    p = sub.add_parser("solve-choquard", help="self-dual Choquard minimizer")
    common(p)
    p.add_argument("--a", dest="a_spec", default=None)
    p.add_argument("--w", dest="w_spec", default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--init", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    return parser


_SWEEP_FIELDS = {"r": "sweep_r", "T": "sweep_T", "lambda": "sweep_lambda"}


def _parse_sweep(text):
    """Sweep fields from "key=v,v;key=v"; ConfigError on a bad key."""
    out = {}
    for part in text.split(";"):
        key, _, vals = part.partition("=")
        key = key.strip()
        if key not in _SWEEP_FIELDS:
            raise ConfigError(f"sweep: unknown key {key!r}, use "
                              f"{', '.join(_SWEEP_FIELDS)}")
        if _SWEEP_FIELDS[key] in out:
            raise ConfigError(f"sweep: key {key!r} is given twice")
        try:
            out[_SWEEP_FIELDS[key]] = tuple(float(v) for v in vals.split(","))
        except ValueError:
            raise ConfigError(f"sweep: key {key!r} needs comma-separated "
                              f"numbers, got {vals!r}") from None
    return out


def config_from_args(args):
    if args.config:
        try:
            text = Path(args.config).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: cannot read the file: {exc}") from None
        config = RunConfig.from_json(text)
    else:
        config = RunConfig(command=args.command)
    # every option's dest is a RunConfig field, except --config and --sweep
    for name in RunConfig.__dataclass_fields__:
        val = getattr(args, name, None)
        if val is not None:
            setattr(config, name, val)
    if getattr(args, "sweep", None):
        for name, vals in _parse_sweep(args.sweep).items():
            setattr(config, name, vals)
    if args.out is None and not args.config:
        root = os.environ.get("ANDERSON2D_OUT_ROOT", "runs")
        config.out = str(Path(root) / args.command)
    return config


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        manifest = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, NotFoundError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (SpectralInconsistencyError, SelfDualInconsistencyError) as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {len(manifest.checksums)} artifacts to {config.out}")
    for warning in manifest.warnings:
        print(f"partial result: {warning}", file=sys.stderr)
    return 3 if manifest.warnings else 0


if __name__ == "__main__":
    sys.exit(main())
