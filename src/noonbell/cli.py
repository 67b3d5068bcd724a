"""Command-line front end.

Commands: eval, optimize, sweep, marginal, verify, catalog.  Machine-readable
outputs (JSON/CSV) are byte-deterministic for a fixed seed; every run that
writes files also writes a ``<out>.manifest.json`` listing the command, the
fully resolved parameters, and the produced files, so the run can be replayed.

Each subcommand declares only the options its handler reads.  Complex
amplitudes on the command line use the single-token form ``a+bi`` (e.g.
``1+0i``, ``-0.5i``, ``2``).  Configuration precedence is built-in defaults <
JSON config file (``--config``) < command-line flags; a subcommand ignores
the config keys it has no option for.

``--threads`` is accepted for compatibility and has no effect: the search
runs on one thread.  A value that is not an integer >= 1 is still a usage
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

import noonbell
from noonbell import correlators, inequalities, marginals, svgplot, verify
from noonbell.optimizer import (
    OptimizerConfig,
    format_amplitude,
    optimize,
    result_to_json,
    sweep_n,
    sweep_to_csv,
)

_ALL_FORMATS = ("json", "csv", "text")
_CONFIG_KEYS = ("seed", "starts", "radius", "grid", "range", "count", "format")


class CliError(Exception):
    """Usage-level error: reported on stderr with exit status 2."""


def parse_amplitude(token: str) -> complex:
    """Parse the a+bi form (no spaces); plain reals and pure imaginaries work."""
    text = token.strip()
    if not text:
        raise CliError("empty amplitude")
    try:
        value = complex(text.replace("i", "j"))
    except ValueError:
        raise CliError(f"cannot parse amplitude {token!r}; use the a+bi form") from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise CliError(f"amplitude {token!r} is not finite")
    return value


def parse_settings(text: str) -> np.ndarray:
    return np.array([parse_amplitude(tok) for tok in text.split(",")], dtype=np.complex128)


def _parse_n_range(text: str) -> tuple[int, int]:
    """'3' means 1..3; 'a:b' means a..b."""
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return int(lo), int(hi)
        return 1, int(text)
    except ValueError:
        raise CliError(f"cannot parse photon-number range {text!r}") from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise CliError(f"config {path} must hold a JSON object")
    unknown = set(raw) - set(_CONFIG_KEYS)
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    return raw


def _resolve(args, config: dict, key: str, builtin):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    return config.get(key, builtin)


def _resolve_number(args, config: dict, key: str, builtin, kind):
    """Resolve ``key`` and convert it with ``kind`` (int or float); a value
    that does not convert is a usage error."""
    value = _resolve(args, config, key, builtin)
    try:
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise CliError(f"{key} must be {what}, got {value!r}") from None


def _resolve_format(args, config: dict, builtin: str) -> str:
    """The output format; the flag's choices bind a config value too."""
    fmt = _resolve(args, config, "format", builtin)
    if fmt not in args.formats:
        raise CliError(f"format must be one of {', '.join(args.formats)}, got {fmt!r}")
    return fmt


def _functional(name: str) -> inequalities.BellFunctional:
    cat = inequalities.catalog()
    if name not in cat:
        raise CliError(f"unknown functional {name!r}; known: {', '.join(sorted(cat))}")
    return cat[name]


def _optimizer_config(args, config: dict) -> OptimizerConfig:
    try:
        return OptimizerConfig(
            num_starts=_resolve_number(args, config, "starts", 64, int),
            search_radius=_resolve_number(args, config, "radius", 5.0, float),
            coarse_grid_points_per_axis=_resolve_number(args, config, "grid", 7, int),
            rng_seed=_resolve_number(args, config, "seed", 0, int),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _search_params(args, cfg: OptimizerConfig) -> dict:
    """Manifest parameters shared by optimize and sweep."""
    return {
        "functional": args.functional,
        "n": args.n,
        "seed": cfg.rng_seed,
        "starts": cfg.num_starts,
        "radius": cfg.search_radius,
        "grid": cfg.coarse_grid_points_per_axis,
        "out": args.out,
    }


def _emit(args, command: str, parameters: dict, text: str, started: float, svg=None) -> None:
    """Write the payload to ``--out`` (else stdout) and ``svg`` to ``--svg``,
    plus the run manifest next to the first file written.  The files come
    first and stdout last, so a run that fails to write prints nothing."""
    payloads = {path: body for path, body in ((args.out, text), (svg and args.svg, svg)) if path}
    for path, body in payloads.items():
        _write(path, body)
    if payloads:
        primary = next(iter(payloads))
        manifest = {
            "command": command,
            "parameters": parameters,
            "seed": parameters.get("seed"),
            "version": noonbell.__version__,
            "duration_seconds": time.monotonic() - started,
            "outputs": sorted(payloads),
        }
        _write(primary + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    if not args.out:
        sys.stdout.write(text)


def _write(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` and rename it into
    place, so that ``path`` never holds a partial file."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    except OSError as exc:
        tmp.unlink(missing_ok=True)
        raise CliError(f"cannot write {path}: {exc.strerror or exc}") from None


def _eval_registry():
    reg = {
        "q-joint": (2, lambda n, s: float(correlators.q_joint(n, s[0], s[1]))),
        "q-single-a": (1, lambda n, s: float(correlators.q_single_a(n, s[0]))),
        # both modes share one single-mode formula
        "q-single-b": (1, lambda n, s: float(correlators.q_single_a(n, s[0]))),
        "clicks": (2, lambda n, s: [float(v) for v in correlators.click_probabilities(n, s[0], s[1])]),
        "parity": (2, lambda n, s: float(correlators.parity_corr(n, s[0], s[1]))),
        "wigner": (2, lambda n, s: float(correlators.wigner(n, s[0], s[1]))),
        "ch-reduced": (1, _eval_ch_reduced),
    }
    for name, functional in inequalities.catalog().items():
        reg[name] = (
            functional.num_settings,
            lambda n, s, _f=functional: inequalities.evaluate_functional(_f, n, s),
        )
    return reg


def _eval_ch_reduced(n, s):
    z = s[0]
    if z.imag != 0.0 or z.real < 0.0:
        raise CliError("ch-reduced takes a single real s = |alpha|^2 >= 0")
    return inequalities.ch_analytic_reduced(n, z.real)


def cmd_eval(args, config: dict) -> int:
    registry = _eval_registry()
    if args.target not in registry:
        raise CliError(
            f"unknown target {args.target!r}; known: {', '.join(sorted(registry))}"
        )
    arity, func = registry[args.target]
    settings = parse_settings(args.settings)
    if len(settings) != arity:
        raise CliError(f"{args.target} takes {arity} settings, got {len(settings)}")
    fmt = _resolve_format(args, config, "text")
    started = time.monotonic()
    try:
        value = func(args.n, settings)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    values = value if isinstance(value, list) else [value]
    if fmt == "json":
        doc = {
            "target": args.target,
            "n": args.n,
            "settings": [format_amplitude(z) for z in settings],
            "value": value,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        header = "P_a,P_b,P_ab" if isinstance(value, list) else "value"
        text = header + "\n" + ",".join(map(repr, values)) + "\n"
    else:
        text = "\n".join(map(repr, values)) + "\n"
    params = {"target": args.target, "n": args.n, "settings": args.settings, "format": fmt,
              "out": args.out, "seed": None}
    _emit(args, "eval", params, text, started)
    return 0


def cmd_optimize(args, config: dict) -> int:
    functional = _functional(args.functional)
    cfg = _optimizer_config(args, config)
    fmt = _resolve_format(args, config, "json")
    started = time.monotonic()
    try:
        result = optimize(functional, args.n, cfg)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if fmt == "text":
        lines = [
            f"functional       {result.functional_name}",
            f"n                {result.n}",
            f"best_value       {result.best_value!r}",
            f"bound            {result.bound!r}",
            f"violation_margin {result.violation_margin!r}",
            f"settings         {', '.join(format_amplitude(z) for z in result.best_settings)}",
            f"starts           {result.starts_converged}/{result.starts_total} converged",
            f"boundary_hit     {result.boundary_hit}",
        ]
        if result.boundary_hit:
            lines.append(f"boundary_limit   {result.boundary_limit!r}")
        text = "\n".join(lines) + "\n"
    elif fmt == "csv":
        text = sweep_to_csv([result])
    else:
        text = result_to_json(result) + "\n"
    _emit(args, "optimize", {**_search_params(args, cfg), "format": fmt}, text, started)
    return 0 if result.starts_converged > 0 else 3


def cmd_sweep(args, config: dict) -> int:
    functional = _functional(args.functional)
    n_min, n_max = _parse_n_range(args.n)
    cfg = _optimizer_config(args, config)
    started = time.monotonic()
    try:
        results = sweep_n(functional, n_min, n_max, cfg)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    svg = args.svg and svgplot.line_plot_svg(
        [r.n for r in results],
        [r.violation_margin for r in results],
        title=f"{args.functional}: violation margin vs photon number",
        x_label="photon number N",
        y_label="violation margin",
        hline=0.0,
    )
    params = {**_search_params(args, cfg), "svg": args.svg}
    _emit(args, "sweep", params, sweep_to_csv(results), started, svg)
    return 0


def cmd_marginal(args, config: dict) -> int:
    range_ = _resolve_number(args, config, "range", 3.0, float)
    count = _resolve_number(args, config, "count", 64, int)
    started = time.monotonic()
    try:
        grid = marginals.density_grid(args.kind, args.n, range_, count)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    svg = args.svg and svgplot.heatmap_svg(
        grid.values,
        grid.y_min,
        grid.y_max,
        title=f"{grid.kind}, N = {grid.n}",
        diverging=grid.kind == "w-marginal",
    )
    params = {
        "kind": grid.kind,
        "n": grid.n,
        "range": range_,
        "count": count,
        "out": args.out,
        "svg": args.svg,
        "seed": None,
    }
    _emit(args, "marginal", params, marginals.grid_to_csv(grid), started, svg)
    return 0


def cmd_verify(args, config: dict) -> int:
    fmt = _resolve_format(args, config, "text")
    checks = verify.run_checks(args.level)
    if fmt == "json":
        doc = [dataclasses.asdict(c) for c in checks]
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0 if all(c.passed for c in checks) else 1
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        sys.stdout.write(
            f"{status}  {c.name:<{width}}  tolerance {c.tolerance:.3g}  "
            f"observed {c.observed:.3g}  {c.detail}\n"
        )
    failed = [c for c in checks if not c.passed]
    if failed:
        sys.stdout.write(f"{len(failed)} check(s) failed: {', '.join(c.name for c in failed)}\n")
        return 1
    sys.stdout.write(f"all {len(checks)} checks passed\n")
    return 0


def cmd_catalog(args, config: dict) -> int:
    sys.stdout.write(inequalities.catalog_json() + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noonbell",
        description="Bell-inequality tests for two-mode path-entangled number states.",
    )
    parser.add_argument("--version", action="version", version=f"noonbell {noonbell.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help, formats=None, n=True):
        """A subparser with --config and --threads, plus an integer --n and a
        --format with these choices where asked for."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func, formats=formats)
        if n:
            p.add_argument("--n", type=int, required=True, help="photon number")
        p.add_argument("--config", help="JSON config file (defaults < config < flags)")
        if formats:
            p.add_argument("--format", choices=formats)
        p.add_argument("--threads", type=int, help="accepted for compatibility; no effect")
        return p

    def outputs(p, svg=None):
        p.add_argument("--out", help="write the payload to this file (plus a manifest)")
        if svg:
            p.add_argument("--svg", help=svg)

    def search(p):
        p.add_argument("functional")
        p.add_argument("--seed", type=int)
        p.add_argument("--starts", type=int)
        p.add_argument("--radius", type=float)
        p.add_argument("--grid", type=int)

    p_eval = subcommand("eval", cmd_eval, "evaluate a correlator or functional at given settings",
                        _ALL_FORMATS)
    p_eval.add_argument("target")
    p_eval.add_argument("--settings", required=True, help="comma-separated a+bi amplitudes")
    outputs(p_eval)

    p_opt = subcommand("optimize", cmd_optimize, "maximize a functional's violation", _ALL_FORMATS)
    search(p_opt)
    outputs(p_opt)

    p_sweep = subcommand("sweep", cmd_sweep, "optimize across a photon-number range; emits CSV",
                         n=False)
    p_sweep.add_argument("--n", required=True, help="photon-number range a:b, or b for 1:b")
    search(p_sweep)
    outputs(p_sweep, svg="also write an SVG line plot of margin vs N")

    p_marg = subcommand("marginal", cmd_marginal, "sample a marginal density grid; emits CSV")
    p_marg.add_argument("kind", choices=("q", "w", "q-marginal", "w-marginal"))
    p_marg.add_argument("--range", type=float)
    p_marg.add_argument("--count", type=int)
    outputs(p_marg, svg="also write an SVG heatmap")

    p_verify = subcommand("verify", cmd_verify, "run the self-check battery", ("json", "text"),
                          n=False)
    p_verify.add_argument("level", nargs="?", default="quick", choices=("quick", "full"))

    sub.add_parser("catalog", help="print the functional catalog as JSON").set_defaults(
        func=cmd_catalog
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        threads = getattr(args, "threads", None)
        if threads is not None and threads < 1:
            raise CliError(f"threads must be an integer >= 1, got {threads!r}")
        config = _load_config(getattr(args, "config", None))
        return args.func(args, config)
    except CliError as exc:
        print(f"noonbell: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
