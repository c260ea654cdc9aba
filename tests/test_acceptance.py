"""Shipped-guarantee acceptance checks, one criterion per test.

Run ``pytest tests/test_acceptance.py -v -s`` to see one verdict line
per criterion next to its pass/fail status. Tolerances and runtime caps
are part of the guarantee and are asserted, not just reported.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from wasserlim import (
    DiscreteMeasure,
    dyadic_interval_space,
    total_variation,
    wasserstein_p,
)
from wasserlim.cli import main as cli_main
from wasserlim.curvature import (
    random_density_pair,
    rajala_bound_check,
    relative_entropy,
)
from wasserlim.geodesics import displacement_path, w2_midpoint
from wasserlim.limits import dyadic_sequence, escaping_mass_family, sequence_cd
from wasserlim.measures import Density, normalize_density, truncate_density
from wasserlim.serialization import space_to_dict
from wasserlim.spaces import diameter
from wasserlim.transport import (
    assignment_wasserstein,
    nearest_atom_projection,
)
from conftest import (
    brute_force_wasserstein,
    euclidean_space,
    random_measure,
    seeded,
    uniform_cloud,
)


def test_criterion_01_escaping_mass_distance_is_exactly_one():
    start = time.perf_counter()
    mu_family, nu_family = escaping_mass_family([4, 100, 10**4, 10**6])
    deviations = [
        abs(wasserstein_p(mu, nu, 2.0)[0] - 1.0)
        for mu, nu in zip(mu_family, nu_family)
    ]
    elapsed = time.perf_counter() - start
    assert max(deviations) <= 1e-9
    assert elapsed < 1.0
    print(
        f"criterion 1: PASS (W2 = 1 within {max(deviations):.2e} for "
        f"N in {{4, 100, 10^4, 10^6}}; {elapsed:.3f}s)"
    )


def test_criterion_02_assignment_route_matches_general_solver():
    start = time.perf_counter()
    rng = seeded(101)
    worst = 0.0
    for trial in range(200):
        space = euclidean_space(rng, int(rng.integers(2, 12)))
        size = int(rng.integers(1, 65))
        a = uniform_cloud(rng, space, size)
        b = uniform_cloud(rng, space, size)
        p = (1.0, 2.0, 3.0)[trial % 3]
        gap = abs(assignment_wasserstein(a, b, p)[0] - wasserstein_p(a, b, p)[0])
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 30.0
    print(
        f"criterion 2: PASS (assignment route within {worst:.2e} of the "
        f"solver on 200 cloud pairs, N <= 64, p in {{1, 2, 3}}; {elapsed:.2f}s)"
    )


def test_criterion_03_solver_matches_exhaustive_oracle():
    shapes = [(1, 1), (1, 11), (2, 6), (3, 4), (2, 5), (3, 3), (2, 4), (4, 3),
              (1, 8), (6, 2)]
    rng = seeded(103)
    worst = 0.0
    for trial in range(100):
        m, n = shapes[trial % len(shapes)]
        space = euclidean_space(rng, max(m, n) + int(rng.integers(0, 3)))
        mu = random_measure(rng, space, atoms=min(m, space.n_points))
        nu = random_measure(rng, space, atoms=min(n, space.n_points))
        p = (1.0, 2.0, 3.0)[trial % 3]
        gap = abs(wasserstein_p(mu, nu, p)[0] - brute_force_wasserstein(mu, nu, p))
        worst = max(worst, gap)
    assert worst <= 1e-7
    print(
        f"criterion 3: PASS (solver within {worst:.2e} of vertex "
        f"enumeration on 100 instances with at most 12 plan cells)"
    )


def test_criterion_04_diameter_tv_bound_with_corrected_exponent():
    # diam*TV controls the p-th POWER of the distance, so the distance
    # itself obeys diam * TV**(1/p). The un-rooted diam*TV form agrees
    # at p = 1 but is false for every p > 1: moving mass s across a
    # two-point space of diameter D gives W_p = D * s**(1/p) > D*s for
    # s < 1. Both forms are measured; only the true one is asserted.
    rng = seeded(104)
    literal_violations = {1.0: 0, 2.0: 0}
    worst_excess = -np.inf
    for _ in range(200):
        space = euclidean_space(rng, int(rng.integers(2, 10)))
        mu = random_measure(rng, space)
        nu = random_measure(rng, space)
        d = diameter(space)
        tv = total_variation(mu, nu)
        for p in (1.0, 2.0):
            w = wasserstein_p(mu, nu, p)[0]
            assert w <= d * tv ** (1.0 / p) + 1e-9
            worst_excess = max(worst_excess, w - d * tv ** (1.0 / p))
            if w > d * tv + 1e-9:
                literal_violations[p] += 1
    assert literal_violations[1.0] == 0
    print(
        "criterion 4: PASS with corrected exponent (W_p <= diam*TV^(1/p) "
        f"+ 1e-9 on 200 pairs, p in {{1, 2}}, max excess {worst_excess:.2e}; "
        f"the un-rooted diam*TV form, false for p > 1, failed "
        f"{literal_violations[2.0]}/200 draws at p = 2)"
    )


def test_criterion_05_projection_cost_sandwich():
    # In exact arithmetic the left comparison is an equality: each atom's
    # cheapest destination among the pushforward's support is its own
    # image, so the nearest-atom plan is optimal. The sandwich is checked
    # on p-th powers, the solver's native cost scale, where the 1e-9
    # allowance is meaningful; rooted values amplify last-bit noise
    # without bound as costs approach zero.
    rng = seeded(105)
    min_left = np.inf
    min_right = np.inf
    for trial in range(100):
        space = euclidean_space(rng, int(rng.integers(3, 12)))
        mu = random_measure(rng, space)
        cloud = uniform_cloud(rng, space, int(rng.integers(2, 17)))
        p = (1.0, 2.0, 3.0)[trial % 3]
        proj = nearest_atom_projection(mu, cloud, p)
        left = wasserstein_p(mu, proj.pushforward, p)[0]
        right = wasserstein_p(mu, cloud, p)[0]
        assert left**p <= proj.cost**p + 1e-9
        assert proj.cost**p <= right**p + 1e-9
        min_left = min(min_left, proj.cost**p - left**p)
        min_right = min(min_right, right**p - proj.cost**p)
    print(
        f"criterion 5: PASS (projection cost sandwich on 100 pairs; "
        f"worst margins {min_left:.2e} left, {min_right:.2e} right)"
    )


def test_criterion_06_midpoint_and_constant_speed_defects():
    worst_ratio = 0.0
    worst_exact = 0.0
    for level in (5, 6):
        space = dyadic_interval_space(level)
        mesh = space.mesh()
        rng = seeded(106, level)
        for _ in range(5):
            mu0 = random_measure(rng, space)
            mu1 = random_measure(rng, space)
            _, report = w2_midpoint(mu0, mu1)
            for defect in (report.left_defect, report.right_defect,
                           report.max_vertex_defect):
                assert defect <= mesh
                worst_ratio = max(worst_ratio, defect / mesh)
            path = displacement_path(mu0, mu1, grid=(0.0, 0.25, 0.5, 0.75, 1.0))
            assert path.constant_speed_defect <= mesh
            worst_ratio = max(worst_ratio, path.constant_speed_defect / mesh)
        # supports on even vertices put every midpoint on a vertex
        half = (space.n_points + 1) // 2
        w0 = np.zeros(space.n_points)
        w1 = np.zeros(space.n_points)
        w0[::2] = rng.uniform(0.2, 1.0, size=half)
        w1[::2] = rng.uniform(0.2, 1.0, size=half)
        _, report = w2_midpoint(
            DiscreteMeasure(space, w0), DiscreteMeasure(space, w1)
        )
        for defect in (report.left_defect, report.right_defect,
                       report.max_vertex_defect):
            assert defect <= 1e-9
            worst_exact = max(worst_exact, defect)
    print(
        f"criterion 6: PASS (levels 5 and 6: defects <= mesh, worst at "
        f"{worst_ratio:.2f} of mesh; exact-vertex defects <= {worst_exact:.2e})"
    )


def test_criterion_07_interpolant_density_bound():
    start = time.perf_counter()
    space = dyadic_interval_space(6)
    lam = DiscreteMeasure.uniform(space)
    worst_margin = np.inf
    for i in range(50):
        nu0, nu1 = random_density_pair(lam, seeded(107, i))
        path = displacement_path(nu0, nu1, grid=(0.0, 0.5, 1.0))
        check = rajala_bound_check(path, lam, 0.0, tol=1e-6)
        assert check.holds
        assert check.max_density <= check.bound + 1e-6
        worst_margin = min(worst_margin, check.bound - check.max_density)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"criterion 7: PASS (50 level-6 pairs, K = 0: interior densities "
        f"within sup f0 + sup f1 + 1e-6, worst margin {worst_margin:.3f}; "
        f"{elapsed:.2f}s)"
    )


def test_criterion_08_curvature_witness_tail_non_degradation():
    seq = dyadic_sequence(range(3, 8))
    verdict = sequence_cd(seq, n_pairs=12, seed=2, tol=0.5)
    again = sequence_cd(seq, n_pairs=12, seed=2, tol=0.5)
    assert verdict.values == again.values
    tail = verdict.values[len(verdict.values) // 2:]
    for earlier, later in zip(tail, tail[1:]):
        assert later >= earlier - 0.1
    assert len({float(np.sign(v)) for v in tail}) == 1
    print(
        f"criterion 8: PASS (witness tail {[round(v, 2) for v in tail]} "
        f"over the three finest levels: non-degrading within 0.1, sign "
        f"stable, identical across reruns)"
    )


def test_criterion_09_entropy_invariants():
    rng = seeded(109)
    min_entropy = np.inf
    for _ in range(200):
        space = euclidean_space(rng, int(rng.integers(2, 9)))
        lam = DiscreteMeasure.uniform(space)
        nu = random_measure(rng, space)
        h = relative_entropy(nu, lam)
        assert h >= -1e-12
        min_entropy = min(min_entropy, h)

    worst_convexity = -np.inf
    for _ in range(200):
        space = euclidean_space(rng, int(rng.integers(2, 9)))
        lam = DiscreteMeasure.uniform(space)
        nu_a = random_measure(rng, space)
        nu_b = random_measure(rng, space)
        t = float(rng.uniform(0.0, 1.0))
        mix = DiscreteMeasure(space, t * nu_a.weights + (1 - t) * nu_b.weights)
        slack = relative_entropy(mix, lam) - (
            t * relative_entropy(nu_a, lam) + (1 - t) * relative_entropy(nu_b, lam)
        )
        assert slack <= 1e-12
        worst_convexity = max(worst_convexity, slack)

    worst_chain_gap = 0.0
    for i in range(10):
        space = euclidean_space(rng, 8)
        lam = DiscreteMeasure.uniform(space)
        nu, _ = random_density_pair(lam, seeded(109, 7, i))
        f = Density.from_measure(nu, lam)
        mask = set(int(j) for j in lam.support)
        target = relative_entropy(nu, lam)
        m = 1.0
        while m <= f.sup_norm():
            m *= 2.0
        approx = normalize_density(truncate_density(f, m, mask)).measure()
        gap = abs(relative_entropy(approx, lam) - target)
        assert gap <= 1e-6
        worst_chain_gap = max(worst_chain_gap, gap)
    print(
        f"criterion 9: PASS (entropy floor {min_entropy:.2e} >= -1e-12 on "
        f"200 draws; convexity slack <= {worst_convexity:.2e} on 200 "
        f"triples; truncation chain within {worst_chain_gap:.2e} once the "
        f"cap clears the max density)"
    )


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    path3 = {
        "points": ["a", "b", "c"],
        "base": 0,
        "edges": [[0, 1, 1.0], [1, 2, 1.0]],
    }
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "mu.json").write_text(
        json.dumps({"space": path3, "weights": [1, 0, 0]})
    )
    (inputs / "nu.json").write_text(
        json.dumps({"space": path3, "weights": [0, 0, 1]})
    )
    (inputs / "skew.json").write_text(
        json.dumps({"space": path3, "weights": [0.5, 0.3, 0.2]})
    )
    (inputs / "lam.json").write_text(
        json.dumps(
            {"space": space_to_dict(dyadic_interval_space(3)), "weights": [1.0] * 9}
        )
    )
    cases = tmp_path / "cases"
    cases.mkdir()
    for level in (2, 3, 4):
        (cases / f"level{level}.json").write_text(
            json.dumps({"space": space_to_dict(dyadic_interval_space(level))})
        )

    runner = CliRunner()
    sweeps = []
    for run in ("first", "second"):
        out = tmp_path / run
        out.mkdir()
        commands = [
            ["transport", "--mu", str(inputs / "mu.json"),
             "--nu", str(inputs / "nu.json"),
             "--coupling", str(out / "coupling.json")],
            ["geodesic", "--mu0", str(inputs / "mu.json"),
             "--mu1", str(inputs / "nu.json"),
             "--grid", "0,0.25,0.5,0.75,1", "--out", str(out / "path.json")],
            ["cd", "--lambda", str(inputs / "lam.json"), "--pairs", "6",
             "--seed", "3", "--out", str(out / "report.json")],
            ["sequence", "--dir", str(cases), "--quantity", "k",
             "--pairs", "4", "--seed", "11",
             "--csv", str(out / "values.csv"), "--svg", str(out / "plot.svg")],
            ["counterexample", "--n", "4,100,10000",
             "--csv", str(out / "escape.csv")],
            ["quantize", "--mu", str(inputs / "skew.json"), "--delta", "0.5",
             "--out", str(out / "cloud.json")],
        ]
        stdout = []
        for argv in commands:
            result = runner.invoke(cli_main, argv)
            assert result.exit_code == 0, result.output
            stdout.append(result.output)
        artifacts = sorted(f.name for f in out.iterdir())
        sweeps.append(
            ("".join(stdout), {name: (out / name).read_bytes() for name in artifacts})
        )
    assert sweeps[0][0] == sweeps[1][0]
    assert sweeps[0][1] == sweeps[1][1]
    print(
        f"criterion 10: PASS (two seeded sweeps over 6 subcommands wrote "
        f"{len(sweeps[0][1])} artifacts, all byte-identical, stdout included)"
    )
