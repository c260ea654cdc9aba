"""The three benchmark workloads.

Each workload is closed-loop with one client: the next operation starts
only after the previous one returns. Operation kinds cycle in equal
shares. A workload object builds its state in ``__init__`` (that is the
set-up that ``setup_s`` times), makes each operation's inputs in
``prepare`` from (seed, operation index), runs the operation in ``run``
(the only timed part) and checks it in ``check`` against the reference
routes in ``checks``. Library calls go through module attributes at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import io
import json
import re
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
from checks import close, fmt17

import wasserlim
from wasserlim import cli, curvature, geodesics, measures, spaces, transport

P = 2.0
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
DYADIC_LEVEL = 8
DYADIC_STEP = 2.0 ** -DYADIC_LEVEL


def euclid_space_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Distance matrix of n points drawn uniformly from [0, 4]^3."""
    pts = rng.uniform(0.0, 4.0, size=(n, 3))
    return np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))


def positive_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-support weights, normalized the way DiscreteMeasure does."""
    w = rng.uniform(0.25, 4.0, size=n)
    return w / float(w.sum())


class Workload:
    """Defaults for workloads whose output needs no reading after the
    operation and that run no probe."""

    def collect(self, inp, output):
        """The operation's full output, gathered after the timed interval."""
        return output

    def probe(self) -> list[dict]:
        """Extra checked solves run once after the timed phase."""
        return []


class TransportEuclid(Workload):
    """W_2 on bare-metric Euclidean spaces at n = 64, 128 and 256.

    The network simplex is almost all of an operation's time. A scale
    probe after the timed phase solves one n = 40 instance with its
    distances scaled by each of SCALES.
    """

    name = "transport-euclid"
    SIZES = (64, 128, 256)
    kinds = tuple(f"n{n}" for n in SIZES)
    SCALES = (1e-5, 1e-4, 1e-3, 1.0, 300.0)
    #: Scales below this are in the range of the known rounding defect
    #: (ROADMAP item 2: costs are integerized at an absolute step of 1e-9):
    #: s = 1e-5 and 1e-4 give wrong values on most seeds, s = 1e-3 on about
    #: one in thirty. Their failures are reported as a known defect.
    DEFECT_BELOW = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.spaces = {
            n: spaces.validate_metric(euclid_space_matrix(rng, n)) for n in self.SIZES
        }
        self.run(self.prepare(0))

    def prepare(self, i: int):
        n = self.SIZES[i % len(self.SIZES)]
        rng = np.random.default_rng([self.seed, 1, i])
        space = self.spaces[n]
        return (measures.DiscreteMeasure(space, positive_weights(rng, n)),
                measures.DiscreteMeasure(space, positive_weights(rng, n)))

    def run(self, inputs):
        mu, nu = inputs
        value, coupling = transport.wasserstein_p(mu, nu, P)
        return value, coupling.matrix

    def check(self, inputs, output) -> list[str]:
        mu, nu = inputs
        value, gamma = output
        return checks.coupling_problems(value, gamma, mu.weights, nu.weights,
                                        mu.space.dist, P)

    def planted(self, inputs, output):
        """Wrong outputs that ``check`` must reject."""
        value, gamma = output
        rows, cols = np.nonzero(gamma > 0)
        i, j = rows[0], cols[0]
        broken = gamma.copy()
        broken[i, j] /= 2
        # Shift mass around a 2x2 cycle: marginals hold, cost rises, and
        # the value is recomputed so that only optimality is wrong.
        k = next(k for k in range(len(rows)) if rows[k] != i and cols[k] != j)
        i2, j3 = rows[k], cols[k]
        eps = min(gamma[i, j], gamma[i2, j3]) / 2
        cycled = gamma.copy()
        cycled[i, j] -= eps
        cycled[i2, j3] -= eps
        cycled[i, j3] += eps
        cycled[i2, j] += eps
        cycled_value = float((cycled * inputs[0].space.dist ** P).sum()) ** (1 / P)
        return {
            "perturbed value": (value * (1 + 1e-9), gamma),
            "broken marginal": (value, broken),
            "suboptimal coupling": (cycled_value, cycled),
        }

    def probe(self) -> list[dict]:
        """Solve one n = 40 instance at every scale and check each solve.

        Each scaled value must match the s = 1 value by homogeneity; the
        s = 1 value must also match HiGHS.
        """
        rng = np.random.default_rng([self.seed, 2])
        dist = euclid_space_matrix(rng, 40)
        a = positive_weights(rng, 40)
        b = positive_weights(rng, 40)
        solves = {}
        for s in self.SCALES:
            space = spaces.validate_metric(dist * s)
            mu = measures.DiscreteMeasure(space, a)
            nu = measures.DiscreteMeasure(space, b)
            value, coupling = transport.wasserstein_p(mu, nu, P)
            solves[s] = (value, self.check((mu, nu), (value, coupling.matrix)))
        unit = solves[1.0][0]
        lp = checks.lp_cost(a, b, dist ** P) ** (1 / P)
        if not close(unit, lp, 1e-9):
            solves[1.0][1].append(f"value {fmt17(unit)} differs from HiGHS {fmt17(lp)}")
        out = []
        for s, (value, problems) in solves.items():
            if not close(value / s, unit, 1e-9):
                problems.append(f"W_2/s = {fmt17(value / s)} but W_2 at s = 1 is {fmt17(unit)}")
            out.append({"scale": s, "value": value, "problems": problems,
                        "known_defect": s < self.DEFECT_BELOW})
        return out


class CurvatureDyadic(Workload):
    """estimate_k plus a displacement path on dyadic_interval_space(8).

    Every shortest-path tree is cached in set-up, as in a long-running
    library process. On a line the north-west-corner start is already
    optimal, so transport is a small share and interpolation a large one.
    """

    name = "curvature-dyadic"
    kinds = ("cd",)
    N_PAIRS = 8
    LSI_K = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.space = spaces.dyadic_interval_space(DYADIC_LEVEL)
        for x in self.space.points:
            self.space.shortest_path_tree(x)
        self.lam = measures.DiscreteMeasure.uniform(self.space)
        self.positions = np.arange(self.space.n_points) * DYADIC_STEP
        self.run(self.prepare(0))

    def prepare(self, i: int):
        rng = np.random.default_rng([self.seed, 1, i])
        nu0, nu1 = curvature.random_density_pair(self.lam, rng)
        return SimpleNamespace(k_seed=self.seed * 1_000_000 + i, nu0=nu0, nu1=nu1)

    def run(self, inp):
        report = curvature.estimate_k(self.lam, self.N_PAIRS, inp.k_seed)
        path = geodesics.displacement_path(inp.nu0, inp.nu1, GRID)
        rajala = curvature.rajala_bound_check(path, self.lam, 0.0)
        lsi = curvature.log_sobolev_check(inp.nu0, self.lam, self.LSI_K)
        return report, path, rajala, lsi

    def check(self, inp, output) -> list[str]:
        report, path, rajala, lsi = output
        lam = self.lam.weights
        x = self.positions
        out = []
        if report.pairs_tested + report.skipped != self.N_PAIRS:
            out.append("pairs_tested + skipped != n_pairs")
        if report.k_witnessed != min(report.values):
            out.append("k_witnessed != min(values)")
        if report.skipped == 0 and len(report.values) == self.N_PAIRS:
            for k, value in enumerate(report.values):
                a, b = checks.philox_pair(lam, inp.k_seed, k)
                mid = checks.path_graph_interpolant(a, b, 0.5)
                ref = 8.0 * (0.5 * checks.entropy(a, lam) + 0.5 * checks.entropy(b, lam)
                             - checks.entropy(mid, lam)) / checks.line_w2(x, a, b) ** 2
                if not close(value, ref, 1e-9):
                    out.append(f"pair {k}: value {fmt17(value)} != reference {fmt17(ref)}")
        else:
            out.append(f"{report.skipped} pairs skipped on full-support densities")
        a, b = inp.nu0.weights, inp.nu1.weights
        cost = checks.line_w2(x, a, b)
        if tuple(path.times) != GRID or len(path.pair_defects) != len(GRID) * (len(GRID) - 1) // 2:
            out.append("path times or pair defects do not match the grid")
        if not close(path.endpoints_cost, cost):
            out.append(f"path W_2 {fmt17(path.endpoints_cost)} != quantile formula {fmt17(cost)}")
        weights = [m.weights for m in path.measures]
        for t, w in zip(GRID[1:-1], weights[1:-1]):
            if np.abs(w - checks.path_graph_interpolant(a, b, t)).max() > 1e-12:
                out.append(f"interpolant at t = {t} differs from the reference")
        gaps = [(s, t, abs(checks.line_w2(x, weights[p], weights[q]) - (t - s) * cost))
                for p, s in enumerate(GRID) for q, t in enumerate(GRID) if p < q]
        for (s, t, gap), (s2, t2, d) in zip(gaps, path.pair_defects):
            if (s, t) != (s2, t2) or abs(gap - d) > 1e-12:
                out.append(f"pair defect ({s}, {t}) = {d!r}, reference {gap!r}")
        if path.constant_speed_defect > DYADIC_STEP + 1e-12:
            out.append("constant-speed defect exceeds the mesh")
        densest = max(float((w / lam).max()) for w in weights[1:-1])
        bound = float((a / lam).max() + (b / lam).max())
        if not (close(rajala.max_density, densest) and close(rajala.bound, bound)
                and rajala.holds == (densest <= bound + 1e-6)):
            out.append("rajala_bound_check differs from the reference")
        lhs = checks.entropy(a, lam)
        rhs = checks.path_graph_fisher(a, lam, DYADIC_STEP) / (2.0 * self.LSI_K)
        if not (abs(lsi.lhs - lhs) <= 1e-12 and close(lsi.rhs, rhs)
                and lsi.holds == (lhs <= rhs + 1e-7)):
            out.append("log_sobolev_check differs from the reference")
        return out

    def planted(self, inp, output):
        report, path, rajala, lsi = output
        values = list(report.values)
        values[-1] *= 1 + 1e-6
        skewed = list(path.measures)
        w = skewed[2].weights.copy()
        w[0], w[-1] = w[0] + 1e-9, w[-1] - 1e-9
        skewed[2] = SimpleNamespace(weights=w)
        return {
            "perturbed k_witnessed": (dataclasses.replace(
                report, k_witnessed=report.k_witnessed * (1 + 1e-9)), path, rajala, lsi),
            "perturbed pair value": (dataclasses.replace(report, values=tuple(values)),
                                     path, rajala, lsi),
            "perturbed W_2": (report, dataclasses.replace(
                path, endpoints_cost=path.endpoints_cost * (1 + 1e-9)), rajala, lsi),
            "moved interpolant mass": (report, dataclasses.replace(
                path, measures=tuple(skewed)), rajala, lsi),
        }


class CliFiles(Workload):
    """In-process CLI invocations on freshly written files.

    Every invocation parses JSON and rebuilds its space from cold, then
    writes JSON, CSV or SVG, as a shell user's one-process-per-call run
    does; fresh files per operation keep in-process caches from earning
    a gain that such a user never sees.
    """

    name = "cli-files"
    kinds = ("validate", "transport", "geodesic", "cd", "sequence")
    VALIDATE_N = 512
    TRANSPORT_N = 128
    CD_PAIRS = 8
    SEQUENCE_LEVELS = (3, 4, 5, 6, 7, 8)

    def __init__(self, seed: int, workdir: Path):
        # Set-up is the import alone: a first invocation runs no slower
        # than later ones, and each operation writes its own files.
        self.seed = seed
        self.dir = workdir

    @functools.cached_property
    def dyadic(self) -> dict:
        """In-memory dyadic spaces for the library-result checks."""
        return {lv: spaces.dyadic_interval_space(lv) for lv in self.SEQUENCE_LEVELS}

    # -- inputs -------------------------------------------------------------

    def _write(self, name: str, doc) -> str:
        path = self.dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @staticmethod
    def _dyadic_doc(level: int) -> dict:
        n = 2 ** level + 1
        step = 2.0 ** -level
        return {"points": [str(j * step) for j in range(n)], "base": 0,
                "edges": [[j, j + 1, step] for j in range(n - 1)]}

    def prepare(self, i: int):
        kind = self.kinds[i % len(self.kinds)]
        rng = np.random.default_rng([self.seed, 1, i])
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        inp = SimpleNamespace(kind=kind, outputs=[])
        if kind == "validate":
            dist = euclid_space_matrix(rng, self.VALIDATE_N)
            inp.diameter = float(dist.max())
            space = self._write("space.json", {
                "points": [f"p{k}" for k in range(self.VALIDATE_N)], "base": 0,
                "metric": dist.tolist()})
            inp.args = ["validate", "--space", space]
        elif kind == "transport":
            dist = euclid_space_matrix(rng, self.TRANSPORT_N)
            inp.dist = dist
            inp.a = positive_weights(rng, self.TRANSPORT_N)
            inp.b = positive_weights(rng, self.TRANSPORT_N)
            self._write("space.json", {"points": [f"p{k}" for k in range(self.TRANSPORT_N)],
                                       "base": 0, "metric": dist.tolist()})
            mu = self._write("mu.json", {"space": "space.json", "weights": inp.a.tolist()})
            nu = self._write("nu.json", {"space": "space.json", "weights": inp.b.tolist()})
            inp.outputs = ["coupling.json"]
            inp.args = ["transport", "--mu", mu, "--nu", nu, "--p", "2",
                        "--coupling", str(self.dir / "coupling.json")]
        elif kind == "geodesic":
            n = 2 ** DYADIC_LEVEL + 1
            inp.a = positive_weights(rng, n)
            inp.b = positive_weights(rng, n)
            self._write("space.json", self._dyadic_doc(DYADIC_LEVEL))
            mu0 = self._write("mu0.json", {"space": "space.json", "weights": inp.a.tolist()})
            mu1 = self._write("mu1.json", {"space": "space.json", "weights": inp.b.tolist()})
            inp.outputs = ["path.json"]
            inp.args = ["geodesic", "--mu0", mu0, "--mu1", mu1,
                        "--grid", ",".join(f"{t:g}" for t in GRID),
                        "--out", str(self.dir / "path.json")]
        elif kind == "cd":
            inp.lam = positive_weights(rng, 2 ** DYADIC_LEVEL + 1)
            inp.k_seed = self.seed * 1_000_000 + i
            self._write("space.json", self._dyadic_doc(DYADIC_LEVEL))
            ref = self._write("lambda.json", {"space": "space.json", "weights": inp.lam.tolist()})
            inp.outputs = ["report.json"]
            inp.args = ["cd", "--lambda", ref, "--pairs", str(self.CD_PAIRS),
                        "--seed", str(inp.k_seed), "--out", str(self.dir / "report.json")]
        else:
            inp.cases = []
            for k, level in enumerate(self.SEQUENCE_LEVELS):
                n = 2 ** level + 1
                a, b = positive_weights(rng, n), positive_weights(rng, n)
                inp.cases.append((level, a, b))
                self._write(f"cases/case{k}.json", {
                    "space": self._dyadic_doc(level), "label": f"L{level}",
                    "mu": a.tolist(), "nu": b.tolist()})
            inp.outputs = ["out.csv", "out.summary.json", "out.svg"]
            inp.args = ["sequence", "--dir", str(self.dir / "cases"), "--quantity", "w2",
                        "--csv", str(self.dir / "out.csv"), "--svg", str(self.dir / "out.svg")]
        return inp

    # -- operation ----------------------------------------------------------

    def run(self, inp):
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf):
            try:
                cli.main.main(args=inp.args, prog_name="wasserlim", standalone_mode=True)
            except SystemExit as exc:
                code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        return code, buf.getvalue()

    def collect(self, inp, output):
        """Exit code and stdout, with the text of each file the call wrote."""
        code, stdout = output
        files = {}
        for name in inp.outputs:
            path = self.dir / name
            files[name] = path.read_text(encoding="utf-8") if path.exists() else None
        return code, stdout, files

    # -- checks -------------------------------------------------------------

    def _expected(self, inp):
        """Library results on in-memory inputs, computed once per operation."""
        if getattr(inp, "expected", None) is None:
            inp.expected = getattr(self, "_expect_" + inp.kind)(inp)
        return inp.expected

    def _expect_validate(self, inp):
        return f"metric OK (n={self.VALIDATE_N}, diam={fmt17(inp.diameter)})\n"

    def _expect_transport(self, inp):
        space = wasserlim.validate_metric(inp.dist)
        value, _ = wasserlim.wasserstein_p(wasserlim.DiscreteMeasure(space, inp.a),
                                           wasserlim.DiscreteMeasure(space, inp.b), P)
        return f"w2 = {fmt17(value)}\n"

    def _expect_geodesic(self, inp):
        space = self.dyadic[DYADIC_LEVEL]
        path = wasserlim.displacement_path(wasserlim.DiscreteMeasure(space, inp.a),
                                           wasserlim.DiscreteMeasure(space, inp.b), GRID)
        return (f"w2 = {fmt17(path.endpoints_cost)}, "
                f"constant-speed defect = {fmt17(path.constant_speed_defect)}\n")

    def _expect_cd(self, inp):
        lam = wasserlim.DiscreteMeasure(self.dyadic[DYADIC_LEVEL], inp.lam)
        report = wasserlim.estimate_k(lam, self.CD_PAIRS, inp.k_seed, 1e-7)
        inp.k_witnessed = report.k_witnessed
        return (f"k_witnessed = {report.k_witnessed:.3f} "
                f"({report.pairs_tested} pairs, {report.skipped} skipped)\n")

    def _expect_sequence(self, inp):
        pairs = [(wasserlim.DiscreteMeasure(self.dyadic[lv], a),
                  wasserlim.DiscreteMeasure(self.dyadic[lv], b)) for lv, a, b in inp.cases]
        seq = wasserlim.SpaceSequence(
            tuple((mu.space, wasserlim.DiscreteMeasure.uniform(mu.space)) for mu, _ in pairs),
            tuple(f"L{lv}" for lv, _, _ in inp.cases))
        verdict = wasserlim.sequence_wasserstein(
            seq, [mu for mu, _ in pairs], [nu for _, nu in pairs], P, 1e-3)
        inp.values = verdict.values
        return (f"{verdict.quantity}: stabilized={str(verdict.stabilized).lower()} "
                f"limit_estimate={fmt17(verdict.limit_estimate)} "
                f"tail_start={verdict.tail_start}\n")

    def check(self, inp, output) -> list[str]:
        code, stdout, files = output
        if code != 0:
            return [f"{inp.kind}: exit code {code}: {stdout.strip()[:200]}"]
        expected = self._expected(inp)
        out = []
        if stdout != expected:
            out.append(f"{inp.kind}: printed {stdout.strip()!r}, library gives {expected.strip()!r}")
        missing = [name for name, text in files.items() if text is None]
        if missing:
            return out + [f"{inp.kind}: did not write {', '.join(missing)}"]
        try:
            out += getattr(self, "_check_" + inp.kind)(inp, files)
        except (ValueError, KeyError, TypeError, IndexError, ET.ParseError) as exc:
            out.append(f"{inp.kind}: unreadable output: {type(exc).__name__}: {exc}")
        return out

    def _check_validate(self, inp, files):
        return []

    def _check_transport(self, inp, files):
        doc = json.loads(files["coupling.json"])
        gamma = np.zeros((self.TRANSPORT_N, self.TRANSPORT_N))
        for i, j, mass in doc["plan"]:
            gamma[i, j] = mass
        out = checks.coupling_problems(doc["cost"], gamma, inp.a, inp.b, inp.dist, doc["p"])
        if f"w2 = {fmt17(doc['cost'])}\n" != self._expected(inp):
            out.append("coupling file cost differs from the library value")
        return [f"transport: {p}" for p in out]

    def _check_geodesic(self, inp, files):
        doc = json.loads(files["path.json"])
        x = np.arange(2 ** DYADIC_LEVEL + 1) * DYADIC_STEP
        out = []
        if not close(doc["cost"], checks.line_w2(x, inp.a, inp.b)):
            out.append("geodesic: W_2 differs from the quantile formula")
        if doc["times"] != list(GRID) or len(doc["measures"]) != len(GRID):
            out.append("geodesic: path file has the wrong grid")
        for t, w in zip(GRID[1:-1], doc["measures"][1:-1]):
            if np.abs(np.asarray(w) - checks.path_graph_interpolant(inp.a, inp.b, t)).max() > 1e-12:
                out.append(f"geodesic: interpolant at t = {t} differs from the reference")
        if doc["constant_speed_defect"] > DYADIC_STEP + 1e-12:
            out.append("geodesic: constant-speed defect exceeds the mesh")
        return out

    def _check_cd(self, inp, files):
        doc = json.loads(files["report.json"])
        out = []
        if fmt17(doc["k_witnessed"]) != fmt17(inp.k_witnessed):
            out.append("cd: report k_witnessed differs from the library value")
        if doc["pairs_tested"] + doc["skipped"] != self.CD_PAIRS:
            out.append("cd: pairs_tested + skipped != pairs")
        if doc["k_witnessed"] != min(doc["values"]):
            out.append("cd: k_witnessed != min(values)")
        return out

    def _check_sequence(self, inp, files):
        rows = list(csv.reader(io.StringIO(files["out.csv"])))
        out = []
        if rows[0] != ["index", "label", "value"] or len(rows) != len(inp.cases) + 1:
            return ["sequence: CSV has the wrong shape"]
        for (idx, label, value), (lv, a, b), lib in zip(rows[1:], inp.cases, inp.values):
            x = np.arange(2 ** lv + 1) * 2.0 ** -lv
            if value != fmt17(lib) or not close(float(value), checks.line_w2(x, a, b)):
                out.append(f"sequence: row {idx} ({label}) value {value} is wrong")
        summary = json.loads(files["out.summary.json"])
        if [fmt17(v) for v in summary["values"]] != [r[2] for r in rows[1:]]:
            out.append("sequence: summary values differ from the CSV")
        if len(ET.fromstring(files["out.svg"]).findall("{http://www.w3.org/2000/svg}polyline")) != 1:
            out.append("sequence: SVG has no single polyline")
        return out

    def planted(self, inp, output):
        code, stdout, files = output
        k = re.search(r"\d+\.\d+", stdout).end() - 1  # last digit of the first value
        wrong_digit = stdout[:k] + str((int(stdout[k]) + 1) % 10) + stdout[k + 1:]
        out = {
            "one wrong printed digit": (code, wrong_digit, files),
            "nonzero exit code": (1, stdout, files),
        }
        if inp.kind == "transport":
            doc = json.loads(files["coupling.json"])
            doc["plan"][0][2] *= 1.5
            out["broken coupling-file marginal"] = (
                code, stdout, dict(files, **{"coupling.json": json.dumps(doc)}))
        if inp.kind == "sequence":
            text = files["out.csv"].rstrip("\n")
            bumped = text[:-1] + str((int(text[-1]) + 1) % 10) + "\n"
            out["one wrong CSV digit"] = (code, stdout, dict(files, **{"out.csv": bumped}))
        return out


WORKLOADS = {w.name: w for w in (TransportEuclid, CurvatureDyadic, CliFiles)}
