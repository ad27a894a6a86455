"""Command-line front end.

Each subcommand is a compute function that validates its inputs and returns
its results; one runner writes them and a JSON run-manifest (config echo,
versions, seeds, timing, output paths), then prints ``<summary>; wrote <out>``
(generate: ``<n> weights on [<first>, <last>]; wrote <out>``).  Nothing is
written before the compute succeeds; if any write fails, the runner removes
every file at the run's output paths, so a failed run leaves nothing behind.
Numeric text output carries 12 significant digits, and reruns with identical
configuration produce byte-identical data files.

A model argument is a bare model name, an inline JSON object, or a path to a
JSON file; w and p must be JSON numbers and pattern a list of numbers, and a
field the model does not take is refused.
Lattice indices must satisfy |n| < 2**62.  A flag given to a run that does
not read it exits 2 (``--<flag> applies ...``; _flags).

Exit codes: 0 success, 2 validation or resource error, 1 internal error.
The comparison commands (verify-rs, homometry) exit 1 when their check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

# Imported at start, not per command: deferring them cost bench window_dump ~0.9 MiB peak RSS.
from . import __version__
from ._util import fmt, write_json
from .combs import DEFAULT_SEEDS, ModelSpec, _check_tolerance, generate_window
from .correlation import (
    analytic_autocorrelation,
    compare_autocorrelations,
    empirical_autocorrelation,
    verify_rs_recursions,
)
from .order import entropy_report, patch_complexity
from .products import product_autocorrelation, product_diffraction
from .spectra import (
    analytic_diffraction,
    binned_measure,
    bragg_weight,
    periodogram,
    spectral_homometry,
)


def _load_model(text: str) -> ModelSpec:
    """Model argument: inline JSON object, path to a JSON file, or a bare model name."""
    text = text.strip()
    if text.startswith("{"):
        return _model_from_json(text)
    path = Path(text)
    if path.suffix == ".json" or path.is_file():
        return _model_from_json(path.read_text())
    return ModelSpec.from_json({"model": text})


def _model_from_json(raw: str) -> ModelSpec:
    # Both the decoder and ModelSpec.from_json recurse once per nested object.
    try:
        return ModelSpec.from_json(json.loads(raw))
    except RecursionError:
        raise ValueError("model JSON is nested too deeply") from None


_SEEDS_SYNTAX = "comma-separated integers '1,2,3' or an inclusive range '1:50'"


def _flag_integers(flag: str, text: str, parts, syntax: str) -> list[int]:
    """int() of each part of a flag's text; a part that is not an integer is
    refused with the flag's name and syntax."""
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise ValueError(f"{flag} takes {syntax}, got {text!r}") from None


def _parse_seeds(text: str | None) -> range | tuple[int, ...] | None:
    """Seed list: comma-separated integers, or an inclusive range 'a:b' (a range,
    so the ensemble budget counts its seeds without expanding it)."""
    if text is None:
        return None
    text = text.strip()
    if ":" in text:
        first, last = _flag_integers("--seeds", text, text.split(":", 1), _SEEDS_SYNTAX)
        if first > last:
            raise ValueError(f"empty seed range {text!r}")
        return range(first, last + 1)
    parts = [part for part in text.split(",") if part.strip()]
    seeds = tuple(_flag_integers("--seeds", text, parts, _SEEDS_SYNTAX))
    if not seeds:
        raise ValueError("seed list is empty")
    return seeds


def _seeds_read(specs, ensemble=None) -> list[int] | None:
    """Seeds of the random streams a run read: the ensemble when a stochastic model
    was averaged over it, else those of the stochastic models it generated, else None."""
    if ensemble is not None and any(spec.is_stochastic for spec in specs):
        return list(ensemble)
    return [spec.seed for spec in specs if spec.seed is not None] or None


def _flags(args, reads: bool, where: str, **defaults) -> None:
    """defaults maps a flag's dest to the value a run takes when the flag is not
    given; a flag given where the run does not read it (reads false) is refused
    as --<flag> applies <where>."""
    for dest, default in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif not reads:
            raise ValueError(f"--{dest.replace('_', '-')} applies {where}")


def _autocorrelation(spec: ModelSpec, analytic: bool, N: int, M: int):
    return analytic_autocorrelation(spec, M) if analytic else empirical_autocorrelation(spec, N, M)


class _Outcome(NamedTuple):
    """A compute function's results for the runner.  outputs maps a file-name
    infix ("" for --out itself, ".bins" for <stem>.bins<suffix>) to a table,
    written by its to_csv, or to a JSON report (a dict)."""

    outputs: dict
    summary: str
    seeds: list[int] | None = None
    passed: bool = True


# ── Compute functions ──────────────────────────────────────────────────────

def _generate(args, spec: ModelSpec) -> _Outcome:
    window = generate_window(spec, args.first, args.last)
    summary = f"{len(window)} weights on [{window.first}, {window.last}]"
    return _Outcome({"": window}, summary, _seeds_read([spec]))


def _autocorr(args, spec: ModelSpec) -> _Outcome:
    _flags(args, not args.analytic, "only without --analytic", N=4096)
    result = _autocorrelation(spec, args.analytic, args.N, args.M)
    tail = float(np.max(np.abs(result.eta[result.max_lag + 1 :]))) if args.M > 0 else 0.0
    summary = f"eta(0) = {fmt(result.value(0))}, max |eta(m != 0)| = {fmt(tail)}"
    return _Outcome({"": result}, summary, _seeds_read([] if args.analytic else [spec]))


def _diffract(args, spec: ModelSpec) -> _Outcome:
    pg = periodogram(spec, args.N, args.G)
    outputs = {"": pg}
    if args.bins is not None:
        outputs[".bins"] = binned_measure(pg, args.bins)
    summary = f"grid mean intensity = {fmt(pg.grid_mean())}, sup = {fmt(pg.intensities.max())}"
    return _Outcome(outputs, summary, _seeds_read([spec]))


def _bragg(args, spec: ModelSpec) -> _Outcome:
    _flags(args, spec.is_stochastic, "only where the model is stochastic", seeds=None)
    seeds = _parse_seeds(args.seeds)
    parts = [part for part in args.N_list.split(",") if part.strip()]
    sizes = _flag_integers("--N-list", args.N_list, parts, "comma-separated integers '64,256'")
    estimate = bragg_weight(spec, args.k0, sizes, seeds)
    summary = f"weight at k = {fmt(estimate.position)}: limit {fmt(estimate.limit)}"
    summary += f" ({estimate.growth})"
    return _Outcome({"": estimate.to_json()}, summary, _seeds_read([spec], estimate.seeds))


def _spectrum(args, spec: ModelSpec) -> _Outcome:
    measure = analytic_diffraction(spec)
    point_total = sum(weight for _, weight in measure.bragg)
    summary = f"point masses: {len(measure.bragg)} (total {fmt(point_total)}),"
    summary += f" diffuse level {fmt(measure.ac_level)}"
    return _Outcome({"": measure.to_json()}, summary)


def _homometry(args, spec_a: ModelSpec, spec_b: ModelSpec) -> _Outcome:
    # Before either side is computed: the flags, then the tolerance.
    autocorr = args.mode == "autocorr"
    _flags(args, autocorr, "to --mode autocorr only", analytic_a=False, analytic_b=False, M=64)
    _flags(args, not autocorr, "to --mode spectral only", seeds=None, G=4096, bins=16)
    _flags(args, spec_a.is_stochastic or spec_b.is_stochastic,
           "only where a model is stochastic", seeds=None)
    _flags(args, not (args.analytic_a and args.analytic_b),
           "only where a side reads a window, not with both --analytic-a and --analytic-b",
           N=16384)
    _check_tolerance(args.tol)
    ensemble = _parse_seeds(args.seeds) or DEFAULT_SEEDS
    if autocorr:
        sides = ((spec_a, args.analytic_a), (spec_b, args.analytic_b))
        factors = [_autocorrelation(spec, analytic, args.N, args.M) for spec, analytic in sides]
        comparison = compare_autocorrelations(*factors, args.tol)
        seeds_used = _seeds_read([spec for spec, analytic in sides if not analytic])
    else:
        comparison = spectral_homometry(
            spec_a, spec_b, args.N, args.G, args.bins, args.tol, ensemble
        )
        seeds_used = _seeds_read([spec_a, spec_b], ensemble)
    report = comparison.to_json()
    report.update(mode=args.mode, a=spec_a.to_json(), b=spec_b.to_json())
    verdict = "PASS" if comparison.passed else "FAIL"
    summary = f"{verdict}: distance {fmt(comparison.distance)}"
    summary += f" vs tolerance {fmt(comparison.tolerance)}"
    return _Outcome({"": report}, summary, seeds_used, comparison.passed)


def _entropy(args, spec: ModelSpec) -> _Outcome:
    report = entropy_report(spec, args.N, args.k, args.L_max)
    summary = f"exact entropy {fmt(report.exact)},"
    summary += f" block estimate {fmt(report.block_entropy_per_symbol)} (k={args.k})"
    return _Outcome({"": report.to_json()}, summary, _seeds_read([spec]))


def _complexity(args, spec: ModelSpec) -> _Outcome:
    result = patch_complexity(spec, args.N, args.L_max)
    note = "all saturated" if result.all_saturated else "UNSATURATED: grow N"
    summary = f"p({args.L_max}) = {result.count(args.L_max)} ({note})"
    return _Outcome({"": result}, summary, _seeds_read([spec]))


def _product(args, spec_a: ModelSpec, spec_b: ModelSpec) -> _Outcome:
    # --N is refused outside autocorr mode first, then without --empirical.
    _flags(args, args.mode == "autocorr", "to --mode autocorr only",
           M=8, N=None, empirical=False, format="csv")
    _flags(args, args.empirical, "only with --empirical", N=256)
    if args.mode == "diffraction":
        measure = product_diffraction(analytic_diffraction(spec_a), analytic_diffraction(spec_b))
        return _Outcome({"": measure.to_json()}, f"total mass {fmt(measure.total())}")
    result = product_autocorrelation(
        *(_autocorrelation(spec, not args.empirical, args.N, args.M) for spec in (spec_a, spec_b))
    )
    seeds = _seeds_read([spec_a, spec_b] if args.empirical else [])
    return _Outcome({"": result}, f"eta(0, 0) = {fmt(result.value(0, 0))}", seeds)


def _verify_rs(args) -> _Outcome:
    report = verify_rs_recursions(args.max)
    summary = f"checked {report.checked} equations for |t| <= {report.max_index}:"
    summary += f" {len(report.violations)} violations"
    return _Outcome({"": report.to_json()}, summary, passed=report.passed)


# ── Runner ─────────────────────────────────────────────────────────────────

def _run(args) -> int:
    """Load the models, compute, then write the data files and the manifest, all or nothing."""
    started = time.perf_counter()
    models = [_load_model(vars(args)[key]) for key in ("model", "a", "b") if key in vars(args)]
    outcome = args.func(args, *models)
    report = any(isinstance(result, dict) for result in outcome.outputs.values())
    suffix = "json" if report or getattr(args, "format", "csv") == "json" else "csv"
    out = Path(f"{args.command}.{suffix}" if args.out is None else args.out)
    paths = [out.with_name(out.stem + infix + out.suffix) for infix in outcome.outputs]
    written: list[Path] = []
    try:
        for path, result in zip(paths, outcome.outputs.values()):
            written.append(path)
            if isinstance(result, dict):
                write_json(path, result)
            else:
                result.to_csv(path, args.format)
        manifest = {
            "schema_version": 1,
            "command": args.command,
            "config": {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "out")},
            "package_version": __version__,
            "numpy_version": np.__version__,
            "seeds": outcome.seeds,
            "timing_seconds": round(time.perf_counter() - started, 6),
            "outputs": [str(path) for path in paths],
        }
        written.append(out.with_name(out.stem + ".manifest.json"))
        write_json(written[-1], manifest)
    except BaseException:  # remove every output file, then re-raise
        for path in written:
            if path.is_file():
                path.unlink()
        raise
    print(f"{outcome.summary}; wrote {out}")
    return 0 if outcome.passed else 1


# ── Parser ─────────────────────────────────────────────────────────────────

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffcomb",
        description="Diffraction, correlation, and order metrics of binary Dirac combs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, compute, help_text: str, model=True, table=False):
        """Subparser with the shared flags: --model, --out and, for tables, --format."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=compute)
        if model:
            p.add_argument("--model", required=True,
                           help="model as inline JSON, a path to a JSON file, or a bare model name")
        p.add_argument("--out", default=None,
                       help=f"data file; default {name}.csv for a CSV table, else {name}.json")
        if table:
            p.add_argument("--format", choices=("csv", "json"), default="csv",
                           help="data file format")
        return p

    p = command("generate", _generate, "write a window of model weights", table=True)
    p.add_argument("--first", type=int, default=-64, help="first lattice index")
    p.add_argument("--last", type=int, default=64, help="last lattice index")

    p = command("autocorr", _autocorr, "windowed or closed-form autocorrelation", table=True)
    p.add_argument("--N", type=int, default=None, help="window half-size (default 4096)")
    p.add_argument("--M", type=int, default=64, help="maximum lag")
    p.add_argument("--analytic", action="store_true", help="use the closed form")

    p = command("diffract", _diffract, "periodogram on a wavenumber grid", table=True)
    p.add_argument("--N", type=int, default=4096, help="window half-size")
    p.add_argument("--G", type=int, default=4096, help="wavenumber grid size")
    p.add_argument("--bins", type=int, default=None, help="also write binned masses")

    p = command("bragg", _bragg, "point-mass weight estimate along growing windows")
    p.add_argument("--k0", required=True, help="wavenumber in [0, 1), e.g. 0.5 or 1/2")
    p.add_argument(
        "--N-list", dest="N_list", default="1024,4096,16384",
        help="comma-separated strictly increasing window half-sizes",
    )
    p.add_argument("--seeds", default=None, help=f"ensemble seeds: {_SEEDS_SYNTAX}")

    command("spectrum", _spectrum, "closed-form spectral measure")

    p = command("homometry", _homometry, "compare two models' correlations or spectra", model=False)
    p.add_argument("--a", required=True, help="first model (JSON, file, or name)")
    p.add_argument("--b", required=True, help="second model (JSON, file, or name)")
    p.add_argument("--mode", choices=("autocorr", "spectral"), default="autocorr")
    p.add_argument("--N", type=int, default=None,
                   help="window half-size (default 16384; not with both --analytic-a and -b)")
    p.add_argument("--M", type=int, default=None, help="maximum lag (autocorr mode)")
    p.add_argument("--G", type=int, default=None, help="grid size (spectral mode)")
    p.add_argument("--bins", type=int, default=None, help="bin count (spectral mode)")
    p.add_argument("--tol", type=float, default=0.05)
    p.add_argument("--analytic-a", action="store_true", default=None,
                   help="closed form for side a (autocorr mode)")
    p.add_argument("--analytic-b", action="store_true", default=None,
                   help="closed form for side b (autocorr mode)")
    p.add_argument("--seeds", default=None, help="ensemble seeds (spectral mode)")

    p = command("entropy", _entropy, "exact entropy and block-entropy estimate")
    p.add_argument("--N", type=int, default=16384, help="window half-size")
    p.add_argument("--k", type=int, default=8, help="block length")
    p.add_argument(
        "--L-max", dest="L_max", type=int, default=None,
        help="also count subwords up to this length (deterministic models)",
    )

    p = command("complexity", _complexity, "distinct-subword counts", table=True)
    p.add_argument("--N", type=int, default=16384, help="window half-size")
    p.add_argument("--L-max", dest="L_max", type=int, default=16)

    p = command("product", _product, "two-factor product: correlation or diffraction",
                model=False, table=True)
    p.add_argument("--a", required=True, help="first factor model")
    p.add_argument("--b", required=True, help="second factor model")
    p.add_argument("--mode", choices=("autocorr", "diffraction"), default="autocorr")
    p.add_argument("--M", type=int, default=None, help="maximum lag per axis")
    p.add_argument("--N", type=int, default=None, help="window half-size (with --empirical)")
    p.add_argument("--empirical", action="store_true", default=None,
                   help="estimate factors from windows")
    p.set_defaults(format=None)  # csv, read in autocorr mode only

    p = command("verify-rs", _verify_rs, "exact check of the Rudin-Shapiro correlation identity",
                model=False)
    p.add_argument("--max", type=int, default=1024, help="largest |t| to check")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed its diagnostic
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _run(args)
    except (ValueError, OSError) as exc:
        print(f"diffcomb {args.command}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"diffcomb {args.command}: internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
