"""Reproducible run orchestration: configs, pipelines, manifests.

Every command is a pure function of its RunConfig: identical config and
seed produce byte-identical numeric artifacts.  The manifest records the
config echo, RNG algorithm, timings, a sha256 checksum of every file
written and, for a run that failed, the error.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import grid as tg
from . import potentials, spectral, variational, choquard
from .noise import RNG_ALGORITHM, sample_white_noise, mollify
from .operator import AndersonOperator, green_band
from .version import __version__

COMMANDS = ("sample-noise", "spectrum", "kato-check", "diagnose-heat",
            "solve-mp", "solve-fountain", "solve-choquard")


class ConfigError(ValueError):
    """Invalid run configuration."""


# RunConfig field annotation -> (JSON value test, what the value must be);
# json.loads gives exact types, so ``type(v) is int`` keeps booleans out
_JSON_TYPES = {
    "str": (lambda v: type(v) is str, "a string"),
    "int": (lambda v: type(v) is int, "an integer"),
    "Optional[int]": (lambda v: v is None or type(v) is int, "an integer or null"),
    "float": (lambda v: type(v) in (int, float), "a number"),
    "tuple": (lambda v: type(v) is list
              and all(type(x) in (int, float) for x in v), "a list of numbers"),
}


@dataclass
class RunConfig:
    command: str
    n: int = 32
    seed: int = 0
    out: str = "runs"
    potential: str = "builtin:const:0"
    nonlinearity: str = "pow3"
    tol: float = 1e-6
    max_iter: int = 5000
    count: int = 6
    cutoff: Optional[int] = None
    times: tuple = (0.05, 0.1, 0.5)
    sweep_r: tuple = (0.4, 0.2, 0.1, 0.05)
    sweep_T: tuple = (1.0, 0.5, 0.25, 0.125)
    sweep_lambda: tuple = (1.0, 10.0, 100.0, 1000.0)
    # Choquard block
    a_spec: str = "builtin:const:1"
    w_spec: str = "builtin:negconst:1"
    p: float = 2.0
    q: float = 3.0
    init: str = "one"

    def validate(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"command: unknown command {self.command!r}")
        for name in ("times", "sweep_r", "sweep_T", "sweep_lambda"):
            if not getattr(self, name):
                raise ConfigError(f"{name}: must hold at least one value")
        if self.n <= 0 or self.n % 2:
            raise ConfigError(f"n: must be positive even, got {self.n}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be non-negative, got {self.seed}")
        if not self.tol > 0:  # also rejects NaN, which JSON configs allow
            raise ConfigError(f"tol: must be positive, got {self.tol}")
        if self.max_iter < 0:
            raise ConfigError(f"max_iter: must be non-negative, got {self.max_iter}")
        if self.command in ("spectrum", "solve-fountain") and self.count < 1:
            raise ConfigError(f"count: must be at least 1, got {self.count}")
        if self.cutoff is not None and not 0 <= self.cutoff <= self.n // 2:
            raise ConfigError(f"cutoff: must lie in [0, n/2] = "
                              f"[0, {self.n // 2}], got {self.cutoff}")
        if self.command == "spectrum" and self.count > self.n * self.n:
            raise ConfigError(f"count: must not exceed n^2 = {self.n * self.n} "
                              f"eigenpairs, got {self.count}")
        grid = tg.TorusGrid(self.n)
        if self.command == "kato-check":
            bad = [r for r in self.sweep_r if not grid.h < r < 1]
            if bad:
                raise ConfigError(f"sweep_r: radii must lie in (h, 1) = "
                                  f"({grid.h:.6g}, 1) at n={self.n}, got {bad}")
            bad = [T for T in self.sweep_T if not 0 < T <= 1]
            if bad:
                raise ConfigError(f"sweep_T: horizons must lie in (0, 1], got {bad}")
            bad = [lam for lam in self.sweep_lambda if not lam >= 0]
            if bad:
                raise ConfigError(f"sweep_lambda: shifts must be >= 0, got {bad}")
        if self.command == "diagnose-heat":
            bad = [t for t in self.times if not 0 < t <= 1]
            if bad:
                raise ConfigError(f"times: heat diagnostic times must lie in "
                                  f"(0, 1], got {bad}")
            d_min, d_max = green_band(grid)
            if d_min > d_max:
                raise ConfigError(
                    f"n: the Green band [4h, {d_max}] = [{d_min:.6g}, {d_max}] "
                    f"is empty at n={self.n}; diagnose-heat needs 4h <= {d_max}")
        return self

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text):
        """A RunConfig from JSON text; ConfigError on malformed JSON, an
        unknown field or a value of the wrong type."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        fields = cls.__dataclass_fields__
        unknown = set(data) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            is_type, kind = _JSON_TYPES[fields[name].type]
            if not is_type(value):
                raise ConfigError(f"{name}: must be {kind}, got {value!r}")
            if isinstance(value, list):
                data[name] = tuple(value)
        return cls(**data)


@dataclass
class RunManifest:
    config: dict
    version: str
    rng_algorithm: str
    wall_clock_s: float
    timings: dict = field(default_factory=dict)
    checksums: dict = field(default_factory=dict)
    # partial results (e.g. fewer fountain levels than requested)
    warnings: list = field(default_factory=list)
    # {stage, type, message} of the exception that ended a failed run
    error: Optional[dict] = None

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _sha256(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _fmt(x):
    return f"{x:.17g}"


def emit_plotdata(series, path, header):
    """Write a CSV of numeric rows with 17 significant digits."""
    series = list(series)
    if not series:
        raise ValueError("refusing to write an empty series")
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in series:
            fh.write(",".join(_fmt(float(v)) for v in row) + "\n")
    return path


def _write_json(obj, path):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
    return path


def _solution_frame(grid, results, outdir, files,
                    trace_header=("iter", "phi", "grad_norm"), omit=()):
    """solution_i.f64, result_i.json (the SolveResult's scalar fields and
    its info dict, less the keys in `omit`) and, for a non-empty trace,
    trace_i.csv."""
    for i, res in enumerate(results):
        fpath = outdir / f"solution_{i}.f64"
        tg.save_field(grid, res.u, fpath)
        files.append(fpath)
        files.append(_write_json({
            "phi": res.phi,
            "residual_l2": res.residual_l2,
            "grad_e_norm": res.grad_e_norm,
            "iterations": res.iterations,
            "method": res.method,
            "converged": res.converged,
            "seed": res.seed,
            **{k: v for k, v in res.info.items() if k not in omit},
        }, outdir / f"result_{i}.json"))
        if res.trace:
            files.append(emit_plotdata(
                [(k, t[0], t[1]) for k, t in enumerate(res.trace)],
                outdir / f"trace_{i}.csv", trace_header))


def _resolve_specs(config, grid, op):
    """The command's inputs (``a``, ``problem``, ``init``) from its spec
    strings; a spec that cannot be resolved, or a Choquard problem its
    constructor rejects, is a ConfigError naming the field."""
    def resolve(name, fn, *args):
        value = getattr(config, name)
        try:
            return fn(*args, value)
        except (ValueError, IndexError, OSError) as exc:
            raise ConfigError(f"{name} {value!r}: {exc}") from exc

    cmd = config.command
    inputs = {}
    if cmd in ("spectrum", "kato-check", "solve-mp", "solve-fountain"):
        inputs["a"] = resolve("potential", potentials.from_spec, grid)
    if cmd in ("solve-mp", "solve-fountain"):
        nl = resolve("nonlinearity", variational.from_spec)
        inputs["problem"] = variational.AndersonProblem(op, inputs["a"], nl)
    if cmd == "solve-choquard":
        a = resolve("a_spec", potentials.from_spec, grid)
        w = resolve("w_spec", _kernel_from_spec, grid)
        inputs["init"] = resolve("init", _init_from_spec, grid)
        try:
            inputs["problem"] = choquard.ChoquardProblem(op, a, w, config.p,
                                                         config.q)
        except ValueError as exc:
            raise ConfigError(f"choquard problem: {exc}") from exc
    return inputs


def run(config):
    """Execute a pipeline and return its RunManifest.

    When a stage raises, config.json and a manifest whose ``error`` holds
    the stage, the exception's type and its message are written beside the
    artifacts so far, into an output directory made for them if the stage
    came before it (the operator), and the exception propagates.  A
    ConfigError, raised before any artifact, writes nothing.
    """
    config.validate()
    t0 = time.perf_counter()
    grid = tg.TorusGrid(config.n)
    outdir = Path(config.out)
    files = []
    timings = {}
    warnings = []

    def clock(name, fn):
        t = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            timings[name] = time.perf_counter() - t
            outdir.mkdir(parents=True, exist_ok=True)
            finish({"stage": name, "type": type(exc).__name__,
                    "message": str(exc)})
            raise
        timings[name] = time.perf_counter() - t
        return out

    def finish(error=None):
        config_path = outdir / "config.json"
        config_path.write_text(config.to_json() + "\n")
        files.append(config_path)
        manifest = RunManifest(
            config=asdict(config),
            version=__version__,
            rng_algorithm=RNG_ALGORITHM,
            wall_clock_s=time.perf_counter() - t0,
            timings=timings,
            checksums={str(Path(f).name): _sha256(f) for f in files},
            warnings=warnings,
            error=error,
        )
        (outdir / "manifest.json").write_text(manifest.to_json() + "\n")
        return manifest

    cmd = config.command
    if cmd != "sample-noise":
        xi = sample_white_noise(grid, config.seed)
        op = clock("operator", lambda: AndersonOperator(grid, xi))
        inputs = _resolve_specs(config, grid, op)
    outdir.mkdir(parents=True, exist_ok=True)
    if cmd == "sample-noise":
        xi = clock("sample", lambda: sample_white_noise(grid, config.seed))
        if config.cutoff is not None:
            xi = mollify(xi, config.cutoff)
        fpath = outdir / "noise.f64"
        tg.save_field(grid, xi.field, fpath)
        files.append(fpath)
    elif cmd == "diagnose-heat":
        report = clock("heat", lambda: op.heat_kernel_diagnostics(config.times))
        lo, hi = clock("green", op.green_log_ratio)
        report["green_ratio_low"], report["green_ratio_high"] = lo, hi
        files.append(_write_json(report, outdir / "report.json"))
    elif cmd == "spectrum":
        a = inputs["a"]
        spec_obj = clock("eigendecompose",
                         lambda: spectral.eigendecompose(op, a, config.count))
        # written before the gap solve too, so a failed gap keeps the spectrum
        report = {"eigenvalues": list(map(float, spec_obj.eigenvalues)),
                  "m": spec_obj.m,
                  "residuals": list(map(float, spec_obj.residuals))}
        files.append(_write_json(report, outdir / "spectrum.json"))
        report["delta"] = clock("gap",
                                lambda: spectral.gap_delta(op, a, spec_obj))
        _write_json(report, outdir / "spectrum.json")
    elif cmd == "kato-check":
        a = inputs["a"]
        rows_r = clock("kato_log", lambda: [
            (r, spectral.kato_modulus_log(grid, a, r)) for r in config.sweep_r])
        rows_T = clock("kato_heat", lambda: list(zip(
            config.sweep_T, spectral.kato_modulus_heat(op, a, config.sweep_T))))
        rows_l = clock("resolvent", lambda: [
            (lam, spectral.resolvent_sup_norm(op, a, lam))
            for lam in config.sweep_lambda])
        files.append(emit_plotdata(rows_r, outdir / "kato_log.csv",
                                   ["r", "modulus"]))
        files.append(emit_plotdata(rows_T, outdir / "kato_heat.csv",
                                   ["T", "modulus"]))
        files.append(emit_plotdata(rows_l, outdir / "resolvent_sweep.csv",
                                   ["lambda", "sup_norm"]))
        files.append(_write_json({
            "kato_log": {_fmt(r): v for r, v in rows_r},
            "kato_heat": {_fmt(T): v for T, v in rows_T},
            "resolvent": {_fmt(l): v for l, v in rows_l},
        }, outdir / "report.json"))
    elif cmd == "solve-mp":
        res = clock("solve", lambda: variational.mountain_pass_solve(
            inputs["problem"], tol=config.tol, max_iter=config.max_iter,
            seed=config.seed))
        _solution_frame(grid, [res], outdir, files)
    elif cmd == "solve-fountain":
        results = clock("solve", lambda: variational.fountain_solve(
            inputs["problem"], config.count, tol=config.tol,
            max_iter=config.max_iter, seed=config.seed))
        # every result carries the same list; it is written once, here
        _solution_frame(grid, results, outdir, files,
                        omit=("rejected_same_level",))
        summary = {
            "requested": config.count,
            "found": len(results),
            "phi": [r.phi for r in results],
            "rejected_same_level": (
                results[0].info.get("rejected_same_level", [])
                if results else []),
        }
        if len(results) < config.count:
            summary["warning"] = (f"requested {config.count} solutions, "
                                  f"found {len(results)} distinct levels")
            warnings.append(summary["warning"])
        files.append(_write_json(summary, outdir / "summary.json"))
    elif cmd == "solve-choquard":
        res = clock("solve", lambda: choquard.selfdual_minimize(
            inputs["problem"], init=inputs["init"], tol=config.tol,
            max_iter=config.max_iter))
        _solution_frame(grid, [res], outdir, files,
                        ("iter", "selfdual_value", "residual_l2"))
        if "warning" in res.info:
            warnings.append(res.info["warning"])
    return finish()


def _kernel_from_spec(grid, spec):
    if spec.startswith("builtin:negconst:"):
        return np.full((grid.n, grid.n), -abs(float(spec.split(":")[2])))
    _, field_vals = tg.load_field(spec)
    return field_vals


def _init_from_spec(grid, spec):
    if spec == "zero":
        return grid.zeros()
    if spec == "one":
        return np.ones((grid.n, grid.n))
    if spec.startswith("random:"):
        rng = np.random.default_rng(int(spec.split(":")[1]))
        return rng.standard_normal((grid.n, grid.n))
    raise ValueError(f"unknown initializer {spec!r}")
