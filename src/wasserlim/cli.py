"""Command-line interface.

Subcommands wire the library modules to JSON/CSV/SVG files. Exit codes:
0 success, 1 domain error (machine-readable JSON on stdout), 2 usage
error. All numeric output is fixed at 17 significant digits so identical
runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import click

from .curvature import ENTROPY_TOL, estimate_k
from .errors import WasserlimError
from .geodesics import displacement_path
from .limits import (
    SpaceSequence,
    escaping_mass_family,
    sequence_cd,
    sequence_total_variation,
    sequence_wasserstein,
)
from .measures import DiscreteMeasure, total_variation, uniform_quantization
from .serialization import (
    canonical_json,
    coupling_to_dict,
    load_measure,
    load_space,
    measure_from_dict,
    measure_to_dict,
    resolve_space,
    space_to_dict,
    svg_line_chart,
    write_csv,
    write_json,
)
from .spaces import diameter
from .transport import wasserstein_p


class _Main(click.Group):
    """The CLI's one error boundary: a domain error raised while the group
    or a subcommand runs exits 1 with its JSON payload on stdout. Usage
    errors are click's own and pass through to exit 2."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (WasserlimError, ValueError, OSError) as exc:
            if isinstance(exc, WasserlimError):
                payload = exc.payload()
            else:
                payload = {"error": type(exc).__name__, "message": str(exc)}
            click.echo(canonical_json(payload))
            sys.exit(1)


@click.group(cls=_Main, context_settings={"show_default": True})
@click.option(
    "--config",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="JSON file supplying defaults for unset flags; explicit flags win.",
)
@click.pass_context
def main(ctx: click.Context, config: str | None) -> None:
    """Wasserstein distances, geodesics, and curvature checks on finite spaces."""
    if config is None:
        return
    with open(config, "r", encoding="utf-8") as fh:
        try:
            loaded = json.load(fh)
        except ValueError as exc:
            raise click.UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(loaded, dict):
        raise click.UsageError("config file must hold a JSON object")
    name = ctx.invoked_subcommand
    ctx.default_map = {name: _config_defaults(main.commands[name], loaded)}


def _config_defaults(command: click.Command, config: dict) -> dict:
    """Click's default map for ``command`` from the config object.

    The key of a flag is its name with ``-`` turned into ``_`` (``--k-hint``
    is ``k_hint``). Click converts each value with the flag's type, and
    explicit flags win. A null leaves the flag at its default; a boolean,
    list or object is a usage error. Keys that name no flag of ``command``
    are ignored.
    """
    defaults = {}
    for param in command.params:
        key = param.opts[0][2:].replace("-", "_")
        value = config.get(key)
        if isinstance(value, (bool, list, dict)):
            raise click.UsageError(
                f"config key '{key}' must be a string or a number, "
                f"got {json.dumps(value)}"
            )
        if value is not None:
            defaults[param.name] = value
    return defaults


def _require(value, flag: str) -> None:
    if value is None:
        raise click.UsageError(f"missing required option {flag}")


def _check_positive(value: float, flag: str) -> None:
    if not (value > 0):
        raise click.UsageError(f"{flag} must be positive, got {value}")


def _check_p(p: float) -> None:
    if not (p >= 1):
        raise click.UsageError(f"--p must be >= 1, got {p}")
    if math.isinf(p):
        raise click.UsageError(f"--p must be finite, got {p}")


@main.command()
@click.option("--mu", "mu_path", default=None, help="Source measure JSON.")
@click.option("--nu", "nu_path", default=None, help="Target measure JSON.")
@click.option("--p", default=2.0, help="Cost exponent, >= 1.")
@click.option("--coupling", "coupling_path", default=None,
              help="Write the optimal coupling JSON here.")
def transport(mu_path, nu_path, p, coupling_path):
    """Exact W_p distance between two measures."""
    _require(mu_path, "--mu")
    _require(nu_path, "--nu")
    _check_p(p)

    space_files: dict = {}
    mu = load_measure(mu_path, space_files)
    nu = load_measure(nu_path, space_files)
    value, coupling = wasserstein_p(mu, nu, p)
    if coupling_path:
        write_json(coupling_path, coupling_to_dict(coupling))
    click.echo(f"w{p:g} = {value:.17g}")


@main.command()
@click.option("--mu0", "mu0_path", default=None, help="Start measure JSON.")
@click.option("--mu1", "mu1_path", default=None, help="End measure JSON.")
@click.option("--grid", default="0,0.5,1",
              help="Comma-separated interpolation times, must include 0 and 1.")
@click.option("--out", "out_path", default=None, help="Write the path JSON here.")
def geodesic(mu0_path, mu1_path, grid, out_path):
    """Displacement interpolation between two measures on a graph space."""
    _require(mu0_path, "--mu0")
    _require(mu1_path, "--mu1")
    try:
        times = tuple(float(tok) for tok in grid.split(",") if tok.strip())
    except ValueError:
        raise click.UsageError(f"--grid must be comma-separated numbers, got {grid!r}")
    if not times:
        raise click.UsageError("--grid must name at least 0 and 1")

    space_files: dict = {}
    mu0 = load_measure(mu0_path, space_files)
    mu1 = load_measure(mu1_path, space_files)
    path = displacement_path(mu0, mu1, times)
    if out_path:
        write_json(out_path, {
            "space": space_to_dict(mu0.space),
            "times": list(path.times),
            "cost": path.endpoints_cost,
            "constant_speed_defect": path.constant_speed_defect,
            "pair_defects": [list(t) for t in path.pair_defects],
            "measures": [[float(w) for w in m.weights] for m in path.measures],
        })
    click.echo(
        f"w2 = {path.endpoints_cost:.17g}, "
        f"constant-speed defect = {path.constant_speed_defect:.17g}"
    )


@main.command()
@click.option("--lambda", "ref_path", default=None, help="Reference measure JSON.")
@click.option("--pairs", default=50, help="Number of sampled density pairs.")
@click.option("--seed", default=0, help="Sampling seed.")
@click.option("--k-hint", default=0.0, help="K to compare the witnessed value against.")
@click.option("--tol", default=ENTROPY_TOL, help="Entropy comparison tolerance.")
@click.option("--out", "out_path", default=None, help="Write the report JSON here.")
def cd(ref_path, pairs, seed, k_hint, tol, out_path):
    """Witness a curvature lower bound via midpoint entropy convexity."""
    _require(ref_path, "--lambda")
    _check_positive(tol, "--tol")
    if pairs < 1:
        raise click.UsageError("--pairs must be >= 1")

    lam = load_measure(ref_path)
    report = estimate_k(lam, pairs, seed, tol)
    nu0, nu1, midpoint, lhs, rhs = report.worst_pair
    if out_path:
        write_json(out_path, {
            "k_witnessed": report.k_witnessed,
            "k_hint": k_hint,
            "hint_satisfied": bool(report.k_witnessed >= k_hint - tol),
            "pairs_tested": report.pairs_tested,
            "skipped": report.skipped,
            "tolerance": report.tolerance,
            "values": list(report.values),
            "worst_pair": {
                "lhs": lhs,
                "rhs": rhs,
                "nu0": [float(w) for w in nu0.weights],
                "nu1": [float(w) for w in nu1.weights],
                "midpoint": [float(w) for w in midpoint.weights],
            },
        })
    click.echo(
        f"k_witnessed = {report.k_witnessed:.3f} "
        f"({report.pairs_tested} pairs, {report.skipped} skipped)"
    )


def _load_case(path: Path, space_files: dict):
    """Space, reference, mu, nu and label of a case file; ``space_files``
    as in ``measure_from_dict``."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "space" not in doc:
        raise ValueError(f"{path.name}: case file needs a 'space' entry")
    space = resolve_space(doc["space"], path.parent, space_files)

    def measure_of(key):
        val = doc.get(key)
        if val is None:
            return None
        if isinstance(val, dict):
            return measure_from_dict(val, path.parent, space_files)
        return DiscreteMeasure(space, val)

    lam = measure_of("lambda") or DiscreteMeasure.uniform(space)
    label = str(doc.get("label", path.stem))
    return space, lam, measure_of("mu"), measure_of("nu"), label


@main.command()
@click.option("--dir", "case_dir", default=None,
              help="Directory of case JSON files, ordered by filename.")
@click.option("--quantity", default="w2",
              help="One of w<p> (e.g. w1, w2), wp (uses --p), tv, or k.")
@click.option("--p", default=2.0, help="Cost exponent for --quantity wp.")
@click.option("--tol", default=1e-3, help="Stabilization tolerance.")
@click.option("--pairs", default=50, help="Density pairs per entry for --quantity k.")
@click.option("--seed", default=0, help="Sampling seed for --quantity k.")
@click.option("--csv", "csv_path", default=None, help="Write index,label,value rows.")
@click.option("--summary", "summary_path", default=None,
              help="Write the verdict JSON here "
                   "(default: next to --csv, with .summary.json suffix).")
@click.option("--svg", "svg_path", default=None, help="Write a line chart here.")
def sequence(case_dir, quantity, p, tol, pairs, seed, csv_path, summary_path,
             svg_path):
    """Drive a family of instances and judge tail stabilization."""
    _require(case_dir, "--dir")
    _check_positive(tol, "--tol")

    wp_form = re.fullmatch(r"w(\d+(?:\.\d+)?)", quantity)
    if quantity == "wp":
        _check_p(p)
    elif wp_form:
        p = float(wp_form.group(1))
        _check_p(p)
    elif quantity not in ("tv", "k"):
        raise click.UsageError(
            f"--quantity must be w<p>, wp, tv, or k, got {quantity!r}"
        )

    files = sorted(Path(case_dir).glob("*.json"))
    if not files:
        raise ValueError(f"no case files (*.json) in {case_dir}")
    space_files: dict = {}
    cases = [_load_case(f, space_files) for f in files]
    seq = SpaceSequence(
        tuple((space, lam) for space, lam, _, _, _ in cases),
        tuple(label for _, _, _, _, label in cases),
    )
    if quantity == "k":
        verdict = sequence_cd(seq, pairs, seed, tol)
    else:
        mu_family = [c[2] for c in cases]
        nu_family = [c[3] for c in cases]
        if any(m is None for m in mu_family + nu_family):
            raise ValueError(
                f"--quantity {quantity} needs 'mu' and 'nu' in every case file"
            )
        if quantity == "tv":
            verdict = sequence_total_variation(seq, mu_family, nu_family, tol)
        else:
            verdict = sequence_wasserstein(seq, mu_family, nu_family, p, tol)
    if csv_path:
        write_csv(
            csv_path,
            ["index", "label", "value"],
            [(i, seq.labels[i], v) for i, v in enumerate(verdict.values)],
        )
    summary_target = summary_path
    if summary_target is None and csv_path:
        summary_target = str(Path(csv_path).with_suffix(".summary.json"))
    if summary_target:
        write_json(summary_target, {
            "quantity": verdict.quantity,
            "stabilized": verdict.stabilized,
            "limit_estimate": verdict.limit_estimate,
            "tail_start": verdict.tail_start,
            "tail_min": verdict.tail_min,
            "tolerance": verdict.tolerance,
            "values": list(verdict.values),
            "labels": list(seq.labels),
        })
    if svg_path:
        Path(svg_path).write_text(
            svg_line_chart({verdict.quantity: verdict.values},
                           title=f"{verdict.quantity} by index"),
            encoding="utf-8",
        )
    click.echo(
        f"{verdict.quantity}: stabilized={str(verdict.stabilized).lower()} "
        f"limit_estimate={verdict.limit_estimate:.17g} "
        f"tail_start={verdict.tail_start}"
    )


@main.command()
@click.option("--n", "n_list", default="4,100,10000,1000000",
              help="Comma-separated N values.")
@click.option("--csv", "csv_path", default=None, help="Write index,label,w2,tv rows.")
@click.option("--svg", "svg_path", default=None, help="Write a line chart here.")
def counterexample(n_list, csv_path, svg_path):
    """Escaping-mass family: W2 stays at 1 while TV vanishes."""
    try:
        n_values = [int(tok) for tok in n_list.split(",") if tok.strip()]
    except ValueError:
        raise click.UsageError(f"--n must be comma-separated integers, got {n_list!r}")
    if not n_values:
        raise click.UsageError("--n must name at least one value")

    mu_family, nu_family = escaping_mass_family(n_values)
    w2 = [wasserstein_p(m, n, 2)[0] for m, n in zip(mu_family, nu_family)]
    tv = [total_variation(m, n) for m, n in zip(mu_family, nu_family)]
    if csv_path:
        write_csv(
            csv_path,
            ["index", "label", "w2", "tv"],
            [(i, str(n_values[i]), w2[i], tv[i]) for i in range(len(n_values))],
        )
    if svg_path:
        Path(svg_path).write_text(
            svg_line_chart({"w2": w2, "tv": tv}, title="escaping mass"),
            encoding="utf-8",
        )
    click.echo(
        f"counterexample: w2 in [{min(w2):.17g}, {max(w2):.17g}], "
        f"tv down to {min(tv):.17g} over {len(n_values)} values of N"
    )


@main.command()
@click.option("--mu", "mu_path", default=None, help="Measure JSON to quantize.")
@click.option("--delta", default=None, type=float, help="Target W_p error, > 0.")
@click.option("--p", default=2.0, help="Cost exponent, >= 1.")
@click.option("--out", "out_path", default=None, help="Write the cloud JSON here.")
def quantize(mu_path, delta, p, out_path):
    """Approximate a measure by a uniform Dirac cloud within delta."""
    _require(mu_path, "--mu")
    _require(delta, "--delta")
    _check_positive(delta, "--delta")
    _check_p(p)

    mu = load_measure(mu_path)
    result = uniform_quantization(mu, delta, p)
    if out_path:
        doc = measure_to_dict(result.cloud)
        doc["quantization"] = {
            "n_atoms": result.n_atoms,
            "error": result.error,
            "covering_budget": result.covering_budget,
            "delta": delta,
            "p": p,
        }
        write_json(out_path, doc)
    click.echo(
        f"N = {result.n_atoms} atoms, error = {result.error:.17g}, "
        f"covering budget k(delta) = {result.covering_budget}"
    )


@main.command()
@click.option("--space", "space_path", default=None, help="Space JSON to validate.")
def validate(space_path):
    """Check the metric axioms of a space file."""
    _require(space_path, "--space")

    space = load_space(space_path)
    click.echo(
        f"metric OK (n={space.n_points}, diam={diameter(space):.17g})"
    )


if __name__ == "__main__":
    main()
