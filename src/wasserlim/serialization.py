"""File formats: JSON spaces/measures/densities/couplings, CSV, SVG.

All writers are byte-stable: floats carry 17 significant digits, keys
keep construction order, and nothing depends on hash order or locale.
Golden tests rely on this.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .measures import Density, DiscreteMeasure
from .spaces import FiniteMetricSpace, graph_metric, validate_metric
from .transport import Coupling


def format_float(x: float) -> str:
    if not math.isfinite(x):
        # JSON has no literal for these; a string keeps the file parseable.
        return json.dumps("inf" if x > 0 else "-inf" if x < 0 else "nan")
    return format(float(x), ".17g")


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Serialize with deterministic bytes; floats at 17 significant digits."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {canonical_json(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, str, bool, type(None))) for v in seq)
        if flat:
            return "[" + ", ".join(canonical_json(v) for v in seq) + "]"
        parts = [f"{inner}{canonical_json(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path, obj: Any) -> None:
    Path(path).write_text(canonical_json(obj) + "\n", encoding="utf-8")


def space_to_dict(space: FiniteMetricSpace) -> dict:
    names = space.names
    if names is None:
        names = list(range(space.n_points))
    out: dict[str, Any] = {
        "points": [str(x) for x in names],
        "base": int(space.base_point),
    }
    if space.geodesic_structure is not None:
        out["edges"] = [
            [int(u), int(v), float(w)] for u, v, w in space.geodesic_structure
        ]
    else:
        out["metric"] = [[float(x) for x in row] for row in space.dist]
    return out


def space_from_dict(data: dict) -> FiniteMetricSpace:
    if not isinstance(data, dict):
        raise ValueError("space document must be a JSON object")
    names = data.get("points")
    if names is None:
        raise ValueError("space document needs a 'points' list")
    names = [str(x) for x in names]
    base = int(data.get("base", 0))
    if "edges" in data:
        edges = [(int(u), int(v), float(w)) for u, v, w in data["edges"]]
        return graph_metric(names, edges, base_point=base)
    if "metric" in data:
        return validate_metric(data["metric"], base_point=base, names=names)
    raise ValueError("space document needs either 'metric' or 'edges'")


def measure_to_dict(mu: DiscreteMeasure, space_ref: str | None = None) -> dict:
    space: Any = space_ref if space_ref is not None else space_to_dict(mu.space)
    return {"space": space, "weights": [float(w) for w in mu.weights]}


def _file_path(ref: str, relative_to: Path | None) -> Path:
    """``ref`` read relative to ``relative_to``, unless it is absolute."""
    return Path(relative_to or ".") / ref


def resolve_space(
    ref: Any, relative_to: Path | None, space_files: dict
) -> FiniteMetricSpace:
    """The space of a 'space' entry: an inline object, or a file path read
    relative to ``relative_to``. ``space_files`` maps each space file
    already loaded (by real path) to its space and gains any file loaded
    here, so references resolved with one dict share one space object per
    file."""
    if isinstance(ref, dict):
        return space_from_dict(ref)
    if isinstance(ref, str):
        path = _file_path(ref, relative_to)
        key = os.path.realpath(path)
        if key not in space_files:
            space_files[key] = load_space(path)
        return space_files[key]
    raise ValueError("'space' must be an inline object or a file path")


def measure_from_dict(
    data: dict, relative_to: Path | None = None, space_files: dict | None = None
) -> DiscreteMeasure:
    """Measure from its document; its 'space' goes through
    ``resolve_space``, with a fresh ``space_files`` dict when none is given.
    """
    if not isinstance(data, dict) or "weights" not in data or "space" not in data:
        raise ValueError("measure document needs 'space' and 'weights'")
    if space_files is None:
        space_files = {}
    space = resolve_space(data["space"], relative_to, space_files)
    weights = np.asarray(data["weights"], dtype=float)
    return DiscreteMeasure(space, weights)


def density_to_dict(density: Density) -> dict:
    return {
        "reference": measure_to_dict(density.base),
        "values": [float(v) for v in density.values],
    }


def density_from_dict(data: dict) -> Density:
    if not isinstance(data, dict) or "reference" not in data or "values" not in data:
        raise ValueError("density document needs 'reference' and 'values'")
    base = measure_from_dict(data["reference"])
    values = np.asarray(data["values"], dtype=float)
    return Density.create(base, values)


def coupling_to_dict(coupling: Coupling) -> dict:
    plan = []
    rows, cols = np.nonzero(coupling.matrix > 0)
    for i, j in zip(rows, cols):
        plan.append([int(i), int(j), float(coupling.matrix[i, j])])
    return {"p": float(coupling.p), "cost": float(coupling.cost_p), "plan": plan}


def _load_document(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_space(path) -> FiniteMetricSpace:
    return space_from_dict(_load_document(path))


def load_measure(path, space_files: dict | None = None) -> DiscreteMeasure:
    """Measure file; ``space_files`` as in ``measure_from_dict``."""
    return measure_from_dict(_load_document(path), Path(path).parent, space_files)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Plain comma-joined CSV; floats formatted like the JSON writer."""
    def cell(v: Any) -> str:
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, (float, np.floating)):
            return format_float(float(v))
        return str(v)

    lines = [",".join(str(h) for h in header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def svg_line_chart(series: dict[str, Sequence[float]], title: str = "") -> str:
    """Minimal 640x400 line chart: axes, one polyline per series, a legend.

    Coordinates are fixed to two decimals so output bytes do not depend
    on platform float printing quirks.
    """
    if not series or any(len(v) == 0 for v in series.values()):
        raise ValueError("every series needs at least one value")
    width, height, margin = 640, 400, 50.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    all_vals = [float(v) for vals in series.values() for v in vals]
    lo, hi = min(all_vals), max(all_vals)
    if hi - lo < 1e-30:
        lo, hi = lo - 1.0, hi + 1.0
    max_len = max(len(v) for v in series.values())
    palette = ["#1f6f8b", "#c44536", "#3a7d44", "#7d3a6f"]

    def xpix(i: int) -> float:
        if max_len == 1:
            return margin + plot_w / 2
        return margin + plot_w * i / (max_len - 1)

    def ypix(v: float) -> float:
        return margin + plot_h * (1.0 - (v - lo) / (hi - lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin:.2f}" y1="{margin:.2f}" x2="{margin:.2f}" '
        f'y2="{height - margin:.2f}" stroke="black"/>',
        f'<line x1="{margin:.2f}" y1="{height - margin:.2f}" '
        f'x2="{width - margin:.2f}" y2="{height - margin:.2f}" stroke="black"/>',
        f'<text x="{margin - 8:.2f}" y="{margin:.2f}" font-size="11" '
        f'text-anchor="end">{format_float(hi)}</text>',
        f'<text x="{margin - 8:.2f}" y="{height - margin:.2f}" font-size="11" '
        f'text-anchor="end">{format_float(lo)}</text>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.2f}" y="24" font-size="14" '
            f'text-anchor="middle">{title}</text>'
        )
    for idx, (name, vals) in enumerate(series.items()):
        color = palette[idx % len(palette)]
        pts = " ".join(
            f"{xpix(i):.2f},{ypix(float(v)):.2f}" for i, v in enumerate(vals)
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{width - margin:.2f}" y="{margin + 14 * idx:.2f}" '
            f'font-size="11" text-anchor="end" fill="{color}">{name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
