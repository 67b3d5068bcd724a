"""Command-line front end.

Commands: eval, optimize, sweep, marginal, verify, catalog.  Machine-readable
outputs (JSON/CSV) are byte-deterministic for a fixed seed; every run that
writes files also writes a ``<out>.manifest.json`` listing the command, the
fully resolved parameters, and the produced files, so the run can be replayed.

Complex amplitudes on the command line use the single-token form ``a+bi``
(e.g. ``1+0i``, ``-0.5i``, ``2``).  Configuration precedence is built-in
defaults < JSON config file (``--config``) < command-line flags.

``--threads``, the ``NOONBELL_THREADS`` environment variable (its fallback)
and the ``threads`` config key are accepted for compatibility and have no
effect: the search runs on one thread.  A value that is not an integer >= 1
is still a usage error.
"""

from __future__ import annotations

import argparse
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

ENV_THREADS = "NOONBELL_THREADS"

_CONFIG_KEYS = ("seed", "starts", "radius", "grid", "range", "count", "threads", "format")


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
    if key == "threads":
        env = os.environ.get(ENV_THREADS)
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise CliError(f"{ENV_THREADS} must be an integer, got {env!r}") from None
    if key in config:
        return config[key]
    return builtin


def _resolve_number(args, config: dict, key: str, builtin, kind):
    """Resolve ``key`` and convert it with ``kind`` (int or float); a value
    that does not convert is a usage error."""
    value = _resolve(args, config, key, builtin)
    try:
        return kind(value)
    except (TypeError, ValueError):
        what = "an integer" if kind is int else "a number"
        raise CliError(f"{key} must be {what}, got {value!r}") from None


def _check_threads(args, config: dict) -> None:
    """Validate the thread count from flag, environment or config; the value
    itself is not used."""
    value = _resolve(args, config, "threads", 1)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise CliError(f"threads must be an integer >= 1, got {value!r}")


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


def _write_outputs(command: str, parameters: dict, payloads: dict[str, str], started: float) -> None:
    """Write payload files plus the run manifest next to the primary output."""
    for path, text in payloads.items():
        Path(path).write_text(text, encoding="utf-8")
    primary = next(iter(payloads))
    manifest = {
        "command": command,
        "parameters": parameters,
        "seed": parameters.get("seed"),
        "version": noonbell.__version__,
        "duration_seconds": time.monotonic() - started,
        "outputs": sorted(payloads),
    }
    Path(primary + ".manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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
    if args.settings is None:
        raise CliError("--settings is required for eval")
    settings = parse_settings(args.settings)
    if len(settings) != arity:
        raise CliError(f"{args.target} takes {arity} settings, got {len(settings)}")
    if args.n is None:
        raise CliError("--n is required for eval")
    try:
        n = int(args.n)
    except ValueError:
        raise CliError(f"--n must be an integer, got {args.n!r}") from None
    started = time.monotonic()
    try:
        value = func(n, settings)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    fmt = _resolve(args, config, "format", "text")
    if fmt == "json":
        doc = {
            "target": args.target,
            "n": n,
            "settings": [format_amplitude(z) for z in settings],
            "value": value,
        }
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        if isinstance(value, list):
            text = "P_a,P_b,P_ab\n" + ",".join(repr(v) for v in value) + "\n"
        else:
            text = "value\n" + repr(value) + "\n"
    else:
        if isinstance(value, list):
            text = "\n".join(repr(v) for v in value) + "\n"
        else:
            text = repr(value) + "\n"
    if args.out:
        _write_outputs(
            "eval",
            {
                "target": args.target,
                "n": n,
                "settings": args.settings,
                "format": fmt,
                "out": args.out,
                "seed": None,
            },
            {args.out: text},
            started,
        )
    else:
        sys.stdout.write(text)
    return 0


def cmd_optimize(args, config: dict) -> int:
    cat = inequalities.catalog()
    if args.functional not in cat:
        raise CliError(f"unknown functional {args.functional!r}; known: {', '.join(sorted(cat))}")
    if args.n is None:
        raise CliError("--n is required for optimize")
    cfg = _optimizer_config(args, config)
    started = time.monotonic()
    try:
        result = optimize(cat[args.functional], int(args.n), cfg)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    fmt = _resolve(args, config, "format", "json")
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
    params = {
        "functional": args.functional,
        "n": int(args.n),
        "seed": cfg.rng_seed,
        "starts": cfg.num_starts,
        "radius": cfg.search_radius,
        "grid": cfg.coarse_grid_points_per_axis,
        "format": fmt,
        "out": args.out,
    }
    if args.out:
        _write_outputs("optimize", params, {args.out: text}, started)
    else:
        sys.stdout.write(text)
    return 0 if result.starts_converged > 0 else 3


def cmd_sweep(args, config: dict) -> int:
    cat = inequalities.catalog()
    if args.functional not in cat:
        raise CliError(f"unknown functional {args.functional!r}; known: {', '.join(sorted(cat))}")
    if args.n is None:
        raise CliError("--n is required for sweep (e.g. --n 4 or --n 2:6)")
    n_min, n_max = _parse_n_range(args.n)
    if not 1 <= n_min <= n_max:
        raise CliError(f"need 1 <= n_min <= n_max, got {n_min}..{n_max}")
    cfg = _optimizer_config(args, config)
    started = time.monotonic()
    results = sweep_n(cat[args.functional], n_min, n_max, cfg)
    csv_text = sweep_to_csv(results)
    payloads = {}
    if args.out:
        payloads[args.out] = csv_text
    if args.svg:
        ns = [r.n for r in results]
        margins = [r.violation_margin for r in results]
        payloads[args.svg] = svgplot.line_plot_svg(
            ns,
            margins,
            title=f"{args.functional}: violation margin vs photon number",
            x_label="photon number N",
            y_label="violation margin",
            hline=0.0,
        )
    params = {
        "functional": args.functional,
        "n": args.n,
        "seed": cfg.rng_seed,
        "starts": cfg.num_starts,
        "radius": cfg.search_radius,
        "grid": cfg.coarse_grid_points_per_axis,
        "out": args.out,
        "svg": args.svg,
    }
    if payloads:
        _write_outputs("sweep", params, payloads, started)
    if not args.out:
        sys.stdout.write(csv_text)
    return 0


def cmd_marginal(args, config: dict) -> int:
    kind = {"q": "q-marginal", "w": "w-marginal"}.get(args.kind, args.kind)
    if args.n is None:
        raise CliError("--n is required for marginal")
    range_ = _resolve_number(args, config, "range", 3.0, float)
    count = _resolve_number(args, config, "count", 64, int)
    started = time.monotonic()
    try:
        grid = marginals.density_grid(kind, int(args.n), range_, count)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    csv_text = marginals.grid_to_csv(grid)
    payloads = {}
    if args.out:
        payloads[args.out] = csv_text
    if args.svg:
        payloads[args.svg] = svgplot.heatmap_svg(
            grid.values,
            grid.y_min,
            grid.y_max,
            title=f"{kind}, N = {grid.n}",
            diverging=kind == "w-marginal",
        )
    params = {
        "kind": kind,
        "n": int(args.n),
        "range": range_,
        "count": count,
        "out": args.out,
        "svg": args.svg,
        "seed": None,
    }
    if payloads:
        _write_outputs("marginal", params, payloads, started)
    if not args.out:
        sys.stdout.write(csv_text)
    return 0


def cmd_verify(args, config: dict) -> int:
    checks = verify.run_checks(args.level)
    fmt = _resolve(args, config, "format", "text")
    if fmt == "json":
        doc = [
            {
                "name": c.name,
                "tolerance": c.tolerance,
                "observed": c.observed,
                "passed": c.passed,
                "detail": c.detail,
            }
            for c in checks
        ]
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

    def common(p, seedful=True):
        p.add_argument("--n", help="photon number (sweep accepts a:b or a plain upper bound)")
        p.add_argument("--config", help="JSON config file (defaults < config < flags)")
        p.add_argument("--format", choices=("json", "csv", "text"), default=None)
        p.add_argument("--out", help="write the payload to this file (plus a manifest)")
        p.add_argument(
            "--threads", type=int, default=None, help="accepted for compatibility; no effect"
        )
        if seedful:
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--starts", type=int, default=None)
            p.add_argument("--radius", type=float, default=None)
            p.add_argument("--grid", type=int, default=None)

    p_eval = sub.add_parser("eval", help="evaluate a correlator or functional at given settings")
    p_eval.add_argument("target")
    p_eval.add_argument("--settings", help="comma-separated a+bi amplitudes")
    common(p_eval, seedful=False)
    p_eval.set_defaults(func=cmd_eval)

    p_opt = sub.add_parser("optimize", help="maximize a functional's violation")
    p_opt.add_argument("functional")
    common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_sweep = sub.add_parser("sweep", help="optimize across a photon-number range; emits CSV")
    p_sweep.add_argument("functional")
    p_sweep.add_argument("--svg", help="also write an SVG line plot of margin vs N")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_marg = sub.add_parser("marginal", help="sample a marginal density grid; emits CSV")
    p_marg.add_argument("kind", choices=("q", "w", "q-marginal", "w-marginal"))
    p_marg.add_argument("--range", type=float, default=None)
    p_marg.add_argument("--count", type=int, default=None)
    p_marg.add_argument("--svg", help="also write an SVG heatmap")
    common(p_marg, seedful=False)
    p_marg.set_defaults(func=cmd_marginal)

    p_verify = sub.add_parser("verify", help="run the self-check battery")
    p_verify.add_argument("level", nargs="?", default="quick", choices=("quick", "full"))
    common(p_verify, seedful=False)
    p_verify.set_defaults(func=cmd_verify)

    p_cat = sub.add_parser("catalog", help="print the functional catalog as JSON")
    p_cat.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(getattr(args, "config", None))
        _check_threads(args, config)
        return args.func(args, config)
    except CliError as exc:
        print(f"noonbell: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
