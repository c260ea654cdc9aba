"""End-to-end command behavior: exit codes, error JSON, config
precedence, byte-stable artifacts, --help coverage.

``PYTHONPATH=src python tests/test_cli.py`` prints the CLI digest.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import wasserlim
from wasserlim import serialization
from wasserlim.cli import main
from wasserlim.serialization import space_to_dict
from wasserlim.spaces import dyadic_interval_space

GOLDEN = Path(__file__).parent / "golden"

SUBCOMMANDS = (
    "transport",
    "geodesic",
    "cd",
    "sequence",
    "counterexample",
    "quantize",
    "validate",
)

PATH3 = {"points": ["a", "b", "c"], "base": 0, "edges": [[0, 1, 1.0], [1, 2, 1.0]]}

# No reference mass on b: every midpoint of mass moving between a and c
# lands on b, so its entropy is infinite and the witnessed K is -inf.
HOLED = [0.5, 0.0, 0.5]


def write_doc(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def two_point_doc(dist: float) -> dict:
    return {"points": ["0", "1"], "base": 0, "metric": [[0.0, dist], [dist, 0.0]]}


@pytest.fixture
def runner():
    return CliRunner()


def write_corpus_inputs(root: Path) -> None:
    """The files the CLI corpus names, relative to ``root``."""
    write_doc(root / "s.json", PATH3)
    write_doc(root / "mu.json", {"space": "s.json", "weights": [0.5, 0.3, 0.2]})
    write_doc(root / "nu.json", {"space": "s.json", "weights": [0, 0, 1]})
    write_doc(root / "lam.json", {
        "space": space_to_dict(dyadic_interval_space(3)), "weights": [1.0] * 9,
    })
    (root / "cases").mkdir()
    write_doc(root / "cases" / "a.json", {
        "space": "../s.json",
        "label": "A",
        "lambda": {"space": "../s.json", "weights": [1, 2, 1]},
        "mu": {"space": "../s.json", "weights": [1, 0, 0]},
        "nu": [0, 0.5, 0.5],
    })
    write_doc(root / "cases" / "b.json", {
        "space": {"points": ["0", "1"], "base": 0, "edges": [[0, 1, 2.0]]},
        "mu": [1, 0],
        "nu": [0.5, 0.5],
    })


# One call per subcommand that sets every flag, with the files it writes.
CLI_CORPUS = (
    (("transport", "--mu", "mu.json", "--nu", "nu.json", "--p", "1",
      "--coupling", "coupling.json"), ("coupling.json",)),
    (("geodesic", "--mu0", "mu.json", "--mu1", "nu.json", "--grid", "0,0.25,0.5,1",
      "--out", "path.json"), ("path.json",)),
    (("cd", "--lambda", "lam.json", "--pairs", "3", "--seed", "7", "--k-hint", "-1",
      "--tol", "1e-6", "--out", "report.json"), ("report.json",)),
    (("sequence", "--dir", "cases", "--quantity", "wp", "--p", "1.5", "--tol", "0.01",
      "--pairs", "2", "--seed", "3", "--csv", "seq.csv", "--summary", "seq.json",
      "--svg", "seq.svg"), ("seq.csv", "seq.json", "seq.svg")),
    (("counterexample", "--n", "4,16", "--csv", "ce.csv", "--svg", "ce.svg"),
     ("ce.csv", "ce.svg")),
    (("quantize", "--mu", "mu.json", "--delta", "0.5", "--p", "1", "--out", "cloud.json"),
     ("cloud.json",)),
    (("validate", "--space", "s.json"), ()),
)

# Calls run by flags only: a curvature sequence, one exit-1 and one exit-2 case.
CLI_EXTRA = (
    (("sequence", "--dir", "cases", "--quantity", "k", "--pairs", "2", "--csv", "k.csv"),
     ("k.csv", "k.summary.json")),
    (("validate", "--space", "absent.json"), ()),
    (("transport", "--mu", "mu.json", "--nu", "nu.json", "--p", "0.5"), ()),
)


def config_value(token: str):
    """A flag's value as a config file would hold it: numbers as numbers."""
    try:
        return json.loads(token)
    except ValueError:
        return token


def config_call(args) -> tuple:
    """Write ``cfg.json`` setting every flag of ``args``; return the call
    that reads it."""
    flags = args[1:]
    doc = {flag[2:].replace("-", "_"): config_value(value)
           for flag, value in zip(flags[::2], flags[1::2])}
    write_doc(Path("cfg.json"), doc)
    return ("--config", "cfg.json", args[0])


def run_cli(args, outputs) -> tuple:
    """Exit code, stdout and the bytes of each named output (None when not
    written) of one call in the working directory; removes the outputs."""
    result = CliRunner().invoke(main, list(args))
    written = []
    for name in outputs:
        path = Path(name)
        written.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return result.exit_code, result.stdout, written


def cli_digest() -> str:
    """sha256 over exit code, stdout and written bytes of the corpus calls,
    by flags and by ``--config``, with relative paths in a fresh working
    directory. Equal digests on two versions of the package mean their
    CLIs behave alike on these inputs."""
    h = hashlib.sha256()
    with CliRunner().isolated_filesystem():
        write_corpus_inputs(Path.cwd())
        for args, outputs in CLI_CORPUS:
            h.update(repr((args, run_cli(args, outputs))).encode())
            call = config_call(args)
            h.update(repr((call, run_cli(call, outputs))).encode())
        for args, outputs in CLI_EXTRA:
            h.update(repr((args, run_cli(args, outputs))).encode())
    return h.hexdigest()


CLI_DIGEST = "bc3f5a31797eafe62e76d72bf8304b59c7a68465309f40165ddd8ed10e38715e"


@pytest.fixture
def path3_files(tmp_path):
    """Space plus dirac-at-each-end measures on the unit path a-b-c."""
    space = write_doc(tmp_path / "s.json", PATH3)
    mu = write_doc(tmp_path / "mu.json", {"space": PATH3, "weights": [1, 0, 0]})
    nu = write_doc(tmp_path / "nu.json", {"space": PATH3, "weights": [0, 0, 1]})
    return space, mu, nu


class TestExitCodes:
    def test_no_subcommand_is_a_usage_error(self, runner):
        assert runner.invoke(main, []).exit_code == 2

    def test_unknown_subcommand_is_a_usage_error(self, runner):
        assert runner.invoke(main, ["frobnicate"]).exit_code == 2

    def test_missing_required_flag_is_a_usage_error(self, runner, path3_files):
        _, mu, _ = path3_files
        result = runner.invoke(main, ["transport", "--mu", str(mu)])
        assert result.exit_code == 2
        assert "--nu" in result.stderr

    def test_domain_error_payload_goes_to_stdout(self, runner, tmp_path):
        result = runner.invoke(
            main, ["validate", "--space", str(tmp_path / "absent.json")]
        )
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["error"] == "FileNotFoundError"
        assert "message" in payload

    @pytest.mark.parametrize("args", [
        ("transport", "--mu", "absent.json", "--nu", "absent.json"),
        ("geodesic", "--mu0", "absent.json", "--mu1", "absent.json"),
        ("cd", "--lambda", "absent.json"),
        ("sequence", "--dir", "empty"),
        ("counterexample", "--n", "0"),
        ("quantize", "--mu", "absent.json", "--delta", "0.5"),
        ("validate", "--space", "absent.json"),
    ], ids=lambda args: args[0])
    def test_every_subcommand_reports_domain_errors_as_json(
        self, runner, tmp_path, monkeypatch, args
    ):
        """A command outside the error boundary would raise a traceback."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty").mkdir()
        result = runner.invoke(main, list(args))
        assert result.exit_code == 1
        payload = json.loads(result.stdout)
        assert set(payload) == {"error", "message"}


class TestValidate:
    def test_valid_space_prints_size_and_diameter(self, runner, path3_files):
        space, _, _ = path3_files
        result = runner.invoke(main, ["validate", "--space", str(space)])
        assert result.exit_code == 0
        assert result.output == "metric OK (n=3, diam=2)\n"

    def test_triangle_violation_is_reported_with_the_triple(self, runner, tmp_path):
        bad = write_doc(
            tmp_path / "bad.json",
            {
                "points": ["x", "y", "z"],
                "base": 0,
                "metric": [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
            },
        )
        result = runner.invoke(main, ["validate", "--space", str(bad)])
        assert result.exit_code == 1
        payload = json.loads(result.output)
        assert payload["error"] == "TriangleViolation"
        assert len(payload["triple"]) == 3

    def test_pseudometric_is_reported_with_the_pair(self, runner, tmp_path):
        bad = write_doc(
            tmp_path / "bad.json",
            {
                "points": ["x", "y", "z"],
                "base": 0,
                "metric": [[0, 0, 1], [0, 0, 1], [1, 1, 0]],
            },
        )
        result = runner.invoke(main, ["validate", "--space", str(bad)])
        assert result.exit_code == 1
        assert json.loads(result.output) == {
            "error": "CoincidentPoints",
            "message": "d(0,1) = 0 for distinct points 0 and 1",
            "pair": [0, 1],
        }


class TestTransport:
    def test_distance_between_endpoint_diracs(self, runner, path3_files):
        _, mu, nu = path3_files
        result = runner.invoke(
            main, ["transport", "--mu", str(mu), "--nu", str(nu)]
        )
        assert result.exit_code == 0
        assert result.output == "w2 = 2\n"

    def test_mismatched_spaces_exit_1_with_error_name(self, runner, tmp_path):
        mu = write_doc(
            tmp_path / "mu.json", {"space": PATH3, "weights": [1, 0, 0]}
        )
        nu = write_doc(
            tmp_path / "nu.json",
            {"space": two_point_doc(1.0), "weights": [0, 1]},
        )
        result = runner.invoke(
            main, ["transport", "--mu", str(mu), "--nu", str(nu)]
        )
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "SpaceMismatch"

    def test_value_scales_with_the_metric_file(self, runner, tmp_path):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 4.0, (12, 3))
        dist = np.linalg.norm(pts[:, None] - pts[None], axis=-1)
        weights = rng.uniform(0.1, 1.0, (2, 12)).tolist()
        values = []
        for s in (1.0, 1e-6):
            space = {"points": [str(i) for i in range(12)], "base": 0,
                     "metric": (dist * s).tolist()}
            mu, nu = (write_doc(tmp_path / f"{name}{s:g}.json",
                                {"space": space, "weights": w})
                      for name, w in zip(("mu", "nu"), weights))
            result = runner.invoke(main, ["transport", "--mu", str(mu), "--nu", str(nu)])
            assert result.exit_code == 0
            values.append(float(result.output.removeprefix("w2 = ")))
        assert values[1] == pytest.approx(1e-6 * values[0], rel=1e-12)

    def test_overflowing_costs_exit_1_with_solver_failure(self, runner, tmp_path):
        space = two_point_doc(1e200)
        mu = write_doc(tmp_path / "mu.json", {"space": space, "weights": [1, 0]})
        nu = write_doc(tmp_path / "nu.json", {"space": space, "weights": [0, 1]})
        result = runner.invoke(main, ["transport", "--mu", str(mu), "--nu", str(nu)])
        assert result.exit_code == 1
        payload = json.loads(result.stdout)
        assert payload["error"] == "SolverFailure"
        assert payload["message"].startswith("d**p = inf")

    def test_coupling_file_carries_the_plan(self, runner, path3_files, tmp_path):
        _, mu, nu = path3_files
        out = tmp_path / "coupling.json"
        result = runner.invoke(
            main,
            [
                "transport",
                "--mu", str(mu),
                "--nu", str(nu),
                "--p", "1",
                "--coupling", str(out),
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["p"] == 1.0
        assert doc["cost"] == 2.0
        assert sum(mass for _, _, mass in doc["plan"]) == pytest.approx(1.0)

    def test_p_below_one_is_a_usage_error(self, runner, path3_files):
        _, mu, nu = path3_files
        result = runner.invoke(
            main, ["transport", "--mu", str(mu), "--nu", str(nu), "--p", "0.5"]
        )
        assert result.exit_code == 2
        assert "--p" in result.stderr

    @pytest.mark.parametrize("p, message", [
        ("inf", "--p must be finite, got inf"),
        ("nan", "--p must be >= 1, got nan"),
    ])
    def test_p_not_finite_is_a_usage_error(self, runner, path3_files, p, message):
        # d**inf is 0 or inf, so the solver has no W_inf to give.
        _, mu, nu = path3_files
        result = runner.invoke(
            main, ["transport", "--mu", str(mu), "--nu", str(nu), "--p", p]
        )
        assert result.exit_code == 2
        assert message in result.stderr
        assert result.stdout == ""


class TestSharedSpaceFile:
    """One transport, geodesic or sequence call parses a space file that
    its inputs name several times once, and gives them all that one space."""

    @pytest.fixture
    def shared_files(self, tmp_path):
        write_doc(tmp_path / "s.json", PATH3)
        (tmp_path / "sub").mkdir()
        mu = write_doc(tmp_path / "mu.json", {"space": "s.json", "weights": [1, 0, 0]})
        # The same file by another spelling of its path.
        nu = write_doc(tmp_path / "sub" / "nu.json",
                       {"space": "../s.json", "weights": [0, 0, 1]})
        return mu, nu

    @pytest.fixture
    def loads(self, monkeypatch):
        paths = []
        original = serialization.load_space

        def counting(path):
            paths.append(Path(path).name)
            return original(path)

        monkeypatch.setattr(serialization, "load_space", counting)
        return paths

    @pytest.mark.parametrize("command, flags, expected", [
        ("transport", ("--mu", "--nu"), "w2 = 2\n"),
        ("geodesic", ("--mu0", "--mu1"), "w2 = 2, constant-speed defect = 0\n"),
    ])
    def test_space_file_loaded_once(self, runner, shared_files, loads,
                                    command, flags, expected):
        mu, nu = shared_files
        result = runner.invoke(main, [command, flags[0], str(mu), flags[1], str(nu)])
        assert result.exit_code == 0, result.output
        assert result.output == expected
        assert loads == ["s.json"]

    def test_each_call_reads_the_file_afresh(self, runner, shared_files, loads, tmp_path):
        mu, nu = shared_files
        args = ["transport", "--mu", str(mu), "--nu", str(nu)]
        assert runner.invoke(main, args).output == "w2 = 2\n"
        doubled = dict(PATH3, edges=[[0, 1, 2.0], [1, 2, 2.0]])
        write_doc(tmp_path / "s.json", doubled)
        assert runner.invoke(main, args).output == "w2 = 4\n"
        assert loads == ["s.json", "s.json"]

    def test_sequence_loads_a_shared_file_once(self, runner, tmp_path, loads):
        write_doc(tmp_path / "s.json", PATH3)
        cases = tmp_path / "cases"
        cases.mkdir()
        for name, weights in (("a", [1, 0, 0]), ("b", [0, 1, 0])):
            write_doc(cases / f"{name}.json", {
                "space": "../s.json",
                "lambda": {"space": "../s.json", "weights": [1, 1, 1]},
                "mu": {"space": "../s.json", "weights": weights},
                "nu": {"space": "../s.json", "weights": [0, 0, 1]},
            })
        result = runner.invoke(main, ["sequence", "--dir", str(cases)])
        assert result.exit_code == 0, result.output
        assert result.output == "w2: stabilized=true limit_estimate=1 tail_start=1\n"
        assert loads == ["s.json"]

    def test_different_space_files_load_separately(self, runner, tmp_path, loads):
        write_doc(tmp_path / "a.json", PATH3)
        write_doc(tmp_path / "b.json", PATH3)
        mu = write_doc(tmp_path / "mu.json", {"space": "a.json", "weights": [1, 0, 0]})
        nu = write_doc(tmp_path / "nu.json", {"space": "b.json", "weights": [0, 0, 1]})
        result = runner.invoke(main, ["transport", "--mu", str(mu), "--nu", str(nu)])
        assert result.output == "w2 = 2\n"
        assert loads == ["a.json", "b.json"]


class TestGeodesic:
    def test_writes_path_document(self, runner, path3_files, tmp_path):
        _, mu, nu = path3_files
        out = tmp_path / "path.json"
        result = runner.invoke(
            main,
            ["geodesic", "--mu0", str(mu), "--mu1", str(nu), "--out", str(out)],
        )
        assert result.exit_code == 0
        assert "constant-speed defect" in result.output
        doc = json.loads(out.read_text())
        assert doc["times"] == [0.0, 0.5, 1.0]
        assert doc["cost"] == 2.0
        for weights in doc["measures"]:
            assert sum(weights) == pytest.approx(1.0)

    def test_grid_missing_an_endpoint_is_a_domain_error(self, runner, path3_files):
        _, mu, nu = path3_files
        result = runner.invoke(
            main,
            ["geodesic", "--mu0", str(mu), "--mu1", str(nu), "--grid", "0,0.5"],
        )
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "ValueError"

    def test_unparseable_grid_is_a_usage_error(self, runner, path3_files):
        _, mu, nu = path3_files
        for grid in ("0,lots,1", ","):
            result = runner.invoke(
                main,
                ["geodesic", "--mu0", str(mu), "--mu1", str(nu), "--grid", grid],
            )
            assert result.exit_code == 2, grid

    def test_metric_only_space_is_a_domain_error(self, runner, tmp_path):
        mu0 = write_doc(
            tmp_path / "m0.json", {"space": two_point_doc(1.0), "weights": [1, 0]}
        )
        mu1 = write_doc(
            tmp_path / "m1.json", {"space": two_point_doc(1.0), "weights": [0, 1]}
        )
        result = runner.invoke(
            main,
            ["geodesic", "--mu0", str(mu0), "--mu1", str(mu1), "--grid", "0,0.5,1"],
        )
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "NoGeodesicStructure"


@pytest.fixture
def dyadic3_reference(tmp_path):
    doc = {
        "space": space_to_dict(dyadic_interval_space(3)),
        "weights": [1.0] * 9,
    }
    return write_doc(tmp_path / "lam.json", doc)


class TestCd:
    def test_report_document_shape(self, runner, dyadic3_reference, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "cd",
                "--lambda", str(dyadic3_reference),
                "--pairs", "4",
                "--seed", "7",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        assert result.output.startswith("k_witnessed = ")
        report = json.loads(out.read_text())
        assert report["pairs_tested"] + report["skipped"] == 4
        assert len(report["values"]) == report["pairs_tested"]
        assert report["k_witnessed"] == min(report["values"])
        assert set(report["worst_pair"]) == {"lhs", "rhs", "nu0", "nu1", "midpoint"}

    def test_hint_flag_is_recorded_against_the_witness(
        self, runner, dyadic3_reference, tmp_path
    ):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            [
                "cd",
                "--lambda", str(dyadic3_reference),
                "--pairs", "2",
                "--seed", "1",
                "--k-hint", "-1e9",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert report["k_hint"] == -1e9
        assert report["hint_satisfied"] is True

    def test_infinite_midpoint_entropy_reports_minus_infinity(self, runner, tmp_path):
        lam = write_doc(tmp_path / "holed.json", {"space": PATH3, "weights": HOLED})
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["cd", "--lambda", str(lam), "--pairs", "3", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert result.output == "k_witnessed = -inf (3 pairs, 0 skipped)\n"
        text = out.read_text()
        assert '"k_witnessed": "-inf"' in text
        assert len(json.loads(text)["worst_pair"]["midpoint"]) == 3

    def test_zero_pairs_is_a_usage_error(self, runner, dyadic3_reference):
        result = runner.invoke(
            main, ["cd", "--lambda", str(dyadic3_reference), "--pairs", "0"]
        )
        assert result.exit_code == 2


@pytest.fixture
def sequence_dir(tmp_path):
    """Three two-point cases written in non-lexical order.

    Each case moves a unit of mass across its own distance, so the
    computed value identifies which case produced which row.
    """
    d = tmp_path / "cases"
    d.mkdir()
    for name, label, dist in (("b", "B", 3.0), ("a", "A", 1.0), ("c", "C", 2.0)):
        write_doc(
            d / f"{name}.json",
            {
                "space": two_point_doc(dist),
                "label": label,
                "mu": [1, 0],
                "nu": [0, 1],
            },
        )
    return d


class TestSequence:
    def test_rows_follow_lexical_filename_order(self, runner, sequence_dir, tmp_path):
        csv = tmp_path / "out.csv"
        result = runner.invoke(
            main,
            [
                "sequence",
                "--dir", str(sequence_dir),
                "--quantity", "w2",
                "--csv", str(csv),
                "--svg", str(tmp_path / "plot.svg"),
            ],
        )
        assert result.exit_code == 0
        assert csv.read_text() == "index,label,value\n0,A,1\n1,B,3\n2,C,2\n"
        assert (tmp_path / "plot.svg").read_text().startswith("<svg")

    def test_summary_lands_next_to_the_csv_by_default(
        self, runner, sequence_dir, tmp_path
    ):
        csv = tmp_path / "run.csv"
        result = runner.invoke(
            main,
            ["sequence", "--dir", str(sequence_dir), "--csv", str(csv)],
        )
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["quantity"] == "w2"
        assert summary["values"] == [1.0, 3.0, 2.0]
        assert summary["labels"] == ["A", "B", "C"]
        assert summary["stabilized"] is False

    def test_total_variation_quantity(self, runner, sequence_dir, tmp_path):
        summary = tmp_path / "tv.json"
        result = runner.invoke(
            main,
            [
                "sequence",
                "--dir", str(sequence_dir),
                "--quantity", "tv",
                "--summary", str(summary),
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(summary.read_text())
        assert doc["quantity"] == "tv"
        assert doc["values"] == [1.0, 1.0, 1.0]
        assert doc["stabilized"] is True

    def test_curvature_quantity_needs_only_the_reference(self, runner, tmp_path):
        d = tmp_path / "cases"
        d.mkdir()
        for level in (2, 3):
            write_doc(
                d / f"level{level}.json",
                {"space": space_to_dict(dyadic_interval_space(level))},
            )
        summary = tmp_path / "k.json"
        result = runner.invoke(
            main,
            [
                "sequence",
                "--dir", str(d),
                "--quantity", "k",
                "--pairs", "3",
                "--seed", "1",
                "--summary", str(summary),
            ],
        )
        assert result.exit_code == 0
        doc = json.loads(summary.read_text())
        assert doc["quantity"] == "k_witnessed"
        assert len(doc["values"]) == 2

    def test_infinite_values_print_bare_and_write_quoted(self, runner, tmp_path):
        d = tmp_path / "cases"
        d.mkdir()
        for name in ("a", "b", "c"):
            write_doc(d / f"{name}.json", {"space": PATH3, "lambda": HOLED})
        csv = tmp_path / "k.csv"
        result = runner.invoke(
            main,
            ["sequence", "--dir", str(d), "--quantity", "k", "--pairs", "3",
             "--csv", str(csv)],
        )
        assert result.exit_code == 0, result.output
        assert result.output == (
            "k_witnessed: stabilized=true limit_estimate=-inf tail_start=0\n"
        )
        assert csv.read_text() == (
            'index,label,value\n0,a,"-inf"\n1,b,"-inf"\n2,c,"-inf"\n'
        )
        summary = (tmp_path / "k.summary.json").read_text()
        assert '"limit_estimate": "-inf"' in summary
        assert '"values": ["-inf", "-inf", "-inf"]' in summary

    def test_missing_mu_for_distance_quantity_is_a_domain_error(
        self, runner, tmp_path
    ):
        d = tmp_path / "cases"
        d.mkdir()
        write_doc(d / "only_space.json", {"space": two_point_doc(1.0)})
        result = runner.invoke(main, ["sequence", "--dir", str(d)])
        assert result.exit_code == 1
        assert "mu" in json.loads(result.output)["message"]

    def test_case_without_space_is_a_domain_error(self, runner, tmp_path):
        d = tmp_path / "cases"
        d.mkdir()
        write_doc(d / "a.json", {"mu": [1, 0], "nu": [0, 1]})
        result = runner.invoke(main, ["sequence", "--dir", str(d)])
        assert result.exit_code == 1
        assert json.loads(result.output)["message"] == "a.json: case file needs a 'space' entry"

    def test_empty_directory_is_a_domain_error(self, runner, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        result = runner.invoke(main, ["sequence", "--dir", str(d)])
        assert result.exit_code == 1
        assert "no case files" in json.loads(result.output)["message"]

    def test_unknown_quantity_is_a_usage_error(self, runner, sequence_dir):
        result = runner.invoke(
            main, ["sequence", "--dir", str(sequence_dir), "--quantity", "zeta"]
        )
        assert result.exit_code == 2


class TestCounterexample:
    def test_n_100_row_reads_one_and_one_percent(self, runner, tmp_path):
        csv = tmp_path / "out.csv"
        result = runner.invoke(
            main, ["counterexample", "--n", "100", "--csv", str(csv)]
        )
        assert result.exit_code == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "index,label,w2,tv"
        index, label, w2, tv = lines[1].split(",")
        assert (index, label) == ("0", "100")
        assert float(w2) == pytest.approx(1.0, abs=1e-9)
        assert float(tv) == pytest.approx(0.01, abs=1e-9)

    def test_w2_stays_at_one_while_tv_shrinks(self, runner, tmp_path):
        csv = tmp_path / "out.csv"
        result = runner.invoke(
            main,
            [
                "counterexample",
                "--n", "4,16,256",
                "--csv", str(csv),
                "--svg", str(tmp_path / "plot.svg"),
            ],
        )
        assert result.exit_code == 0
        rows = [line.split(",") for line in csv.read_text().splitlines()[1:]]
        w2 = [float(r[2]) for r in rows]
        tv = [float(r[3]) for r in rows]
        assert w2 == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
        assert tv == pytest.approx([0.25, 1 / 16, 1 / 256], abs=1e-12)
        assert (tmp_path / "plot.svg").exists()

    def test_non_integer_n_is_a_usage_error(self, runner):
        assert runner.invoke(main, ["counterexample", "--n", "4,x"]).exit_code == 2

    def test_empty_n_is_a_usage_error(self, runner):
        assert runner.invoke(main, ["counterexample", "--n", ","]).exit_code == 2


class TestQuantize:
    def test_cloud_document_has_equal_weights_and_metadata(self, runner, tmp_path):
        mu = write_doc(
            tmp_path / "mu.json", {"space": PATH3, "weights": [0.5, 0.3, 0.2]}
        )
        out = tmp_path / "cloud.json"
        result = runner.invoke(
            main,
            ["quantize", "--mu", str(mu), "--delta", "0.5", "--out", str(out)],
        )
        assert result.exit_code == 0
        assert result.output.startswith("N = ")
        doc = json.loads(out.read_text())
        positive = [w for w in doc["weights"] if w > 0]
        assert len(set(positive)) == 1
        meta = doc["quantization"]
        assert meta["delta"] == 0.5
        assert meta["error"] <= 0.5
        assert meta["n_atoms"] >= 1

    def test_missing_delta_is_a_usage_error(self, runner, tmp_path):
        mu = write_doc(
            tmp_path / "mu.json", {"space": PATH3, "weights": [1, 0, 0]}
        )
        assert runner.invoke(main, ["quantize", "--mu", str(mu)]).exit_code == 2

    def test_nonpositive_delta_is_a_usage_error(self, runner, tmp_path):
        mu = write_doc(
            tmp_path / "mu.json", {"space": PATH3, "weights": [1, 0, 0]}
        )
        result = runner.invoke(
            main, ["quantize", "--mu", str(mu), "--delta", "-0.1"]
        )
        assert result.exit_code == 2

    def test_unreachable_delta_is_a_domain_error(self, runner, tmp_path):
        mu = write_doc(
            tmp_path / "mu.json",
            {"space": two_point_doc(1.0), "weights": [2**-0.5, 1 - 2**-0.5]},
        )
        result = runner.invoke(
            main, ["quantize", "--mu", str(mu), "--delta", "1e-12"]
        )
        assert result.exit_code == 1
        assert json.loads(result.output)["error"] == "QuantizationBudgetExceeded"


class TestConfigFile:
    def test_config_fills_unset_flags(self, runner, path3_files, tmp_path):
        _, mu, nu = path3_files
        cfg = write_doc(
            tmp_path / "cfg.json", {"mu": str(mu), "nu": str(nu), "p": 1.0}
        )
        result = runner.invoke(main, ["--config", str(cfg), "transport"])
        assert result.exit_code == 0
        assert result.output == "w1 = 2\n"

    def test_explicit_flag_beats_config(self, runner, path3_files, tmp_path):
        _, mu, nu = path3_files
        cfg = write_doc(
            tmp_path / "cfg.json", {"mu": str(mu), "nu": str(nu), "p": 1.0}
        )
        result = runner.invoke(
            main, ["--config", str(cfg), "transport", "--p", "3"]
        )
        assert result.exit_code == 0
        assert result.output.startswith("w3 = ")

    def test_invalid_json_config_is_a_usage_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        result = runner.invoke(main, ["--config", str(cfg), "counterexample"])
        assert result.exit_code == 2

    def test_non_object_config_is_a_usage_error(self, runner, tmp_path):
        cfg = write_doc(tmp_path / "cfg.json", [1, 2, 3])
        result = runner.invoke(main, ["--config", str(cfg), "counterexample"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command, bad", [
        ("transport", {"p": "abc"}),
        ("cd", {"pairs": "x"}),
        ("quantize", {"delta": "x"}),
        ("transport", {"p": [1, 2]}),
        ("transport", {"p": {"value": 1}}),
        ("transport", {"p": True}),
    ])
    def test_bad_value_is_a_usage_error_naming_the_key(self, runner, tmp_path,
                                                         monkeypatch, command, bad):
        monkeypatch.chdir(tmp_path)
        write_corpus_inputs(tmp_path)
        valid = {"transport": {"mu": "mu.json", "nu": "nu.json"},
                 "cd": {"lambda": "lam.json"},
                 "quantize": {"mu": "mu.json", "delta": 0.5}}[command]
        write_doc(tmp_path / "cfg.json", {**valid, **bad})
        result = runner.invoke(main, ["--config", "cfg.json", command])
        assert result.exit_code == 2, result.output
        key = next(iter(bad))
        assert f"'--{key}'" in result.stderr or f"key '{key}'" in result.stderr

    def test_null_leaves_the_flag_at_its_default(self, runner, path3_files, tmp_path):
        _, mu, nu = path3_files
        cfg = write_doc(tmp_path / "cfg.json", {"mu": str(mu), "nu": str(nu), "p": None})
        result = runner.invoke(main, ["--config", str(cfg), "transport"])
        assert result.exit_code == 0, result.output
        assert result.output == "w2 = 2\n"

    def test_number_names_a_file_not_a_descriptor(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_doc(tmp_path / "7", {"space": PATH3, "weights": [1, 0, 0]})
        write_doc(tmp_path / "nu.json", {"space": PATH3, "weights": [0, 0, 1]})
        cfg = write_doc(tmp_path / "cfg.json", {"mu": 7, "nu": "nu.json"})
        result = runner.invoke(main, ["--config", str(cfg), "transport"])
        assert result.exit_code == 0, result.output
        assert result.output == "w2 = 2\n"

    def test_keys_of_no_flag_are_ignored(self, runner, path3_files, tmp_path):
        _, mu, nu = path3_files
        cfg = write_doc(tmp_path / "cfg.json",
                        {"mu": str(mu), "nu": str(nu), "delta": [1], "frobnicate": {}})
        result = runner.invoke(main, ["--config", str(cfg), "transport"])
        assert result.exit_code == 0, result.output
        assert result.output == "w2 = 2\n"

    def test_help_shows_config_values_as_defaults(self, runner, tmp_path):
        cfg = write_doc(tmp_path / "cfg.json", {"p": 3, "coupling": "c.json"})
        result = runner.invoke(main, ["--config", str(cfg), "transport", "--help"],
                               env={"COLUMNS": "80"})
        assert result.exit_code == 0
        assert "[default: 3" in result.output
        assert "[default: c.json]" in result.output


class TestConfigMatchesFlags:
    """Each subcommand with every flag set in a config file behaves as
    with the same flags on the command line, which pins every key."""

    @pytest.mark.parametrize("args, outputs", CLI_CORPUS,
                             ids=[args[0] for args, _ in CLI_CORPUS])
    def test_same_exit_code_stdout_and_files(self, tmp_path, monkeypatch, args, outputs):
        flags = {max(param.opts, key=len) for param in main.commands[args[0]].params}
        assert set(args[1::2]) == flags
        monkeypatch.chdir(tmp_path)
        write_corpus_inputs(tmp_path)
        by_flags = run_cli(args, outputs)
        assert by_flags[0] == 0, by_flags
        assert run_cli(config_call(args), outputs) == by_flags


def test_cli_digest_is_unchanged():
    assert cli_digest() == CLI_DIGEST


def test_import_leaves_scipy_optimize_unloaded():
    """Every shell call imports the CLI, and scipy.optimize is slow to
    import and needed only by the assignment route."""
    package_root = Path(wasserlim.__file__).parents[1]
    probe = "import sys, wasserlim.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert result.stdout == "False\n"


class TestDeterminism:
    def test_identical_seeded_runs_write_identical_bytes(self, runner, tmp_path):
        cases = tmp_path / "cases"
        cases.mkdir()
        for level in (2, 3, 4):
            write_doc(
                cases / f"level{level}.json",
                {"space": space_to_dict(dyadic_interval_space(level))},
            )
        artifacts = {}
        for run in ("one", "two"):
            out = tmp_path / run
            out.mkdir()
            result = runner.invoke(
                main,
                [
                    "sequence",
                    "--dir", str(cases),
                    "--quantity", "k",
                    "--pairs", "4",
                    "--seed", "11",
                    "--csv", str(out / "values.csv"),
                    "--svg", str(out / "plot.svg"),
                ],
            )
            assert result.exit_code == 0
            artifacts[run] = {
                name: (out / name).read_bytes()
                for name in ("values.csv", "values.summary.json", "plot.svg")
            }
        assert artifacts["one"] == artifacts["two"]

    def test_counterexample_reruns_match_byte_for_byte(self, runner, tmp_path):
        outputs = []
        for run in range(2):
            csv = tmp_path / f"run{run}.csv"
            result = runner.invoke(
                main, ["counterexample", "--n", "4,100,10000", "--csv", str(csv)]
            )
            assert result.exit_code == 0
            outputs.append(csv.read_bytes())
        assert outputs[0] == outputs[1]


class TestHelp:
    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_enumerates_every_flag(self, runner, name):
        result = runner.invoke(main, [name, "--help"], env={"COLUMNS": "80"})
        assert result.exit_code == 0
        for param in main.commands[name].params:
            flag = max(param.opts, key=len)
            assert flag in result.output

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_help_matches_golden_file(self, runner, name):
        result = runner.invoke(
            main, [name, "--help"], prog_name="wasserlim", env={"COLUMNS": "80"}
        )
        assert result.exit_code == 0
        golden = (GOLDEN / f"help_{name}.txt").read_text()
        assert result.output == golden

    def test_top_level_help_matches_golden_file(self, runner):
        result = runner.invoke(
            main, ["--help"], prog_name="wasserlim", env={"COLUMNS": "80"}
        )
        assert result.exit_code == 0
        assert result.output == (GOLDEN / "help_main.txt").read_text()

    def test_top_level_help_lists_every_subcommand(self, runner):
        result = runner.invoke(main, ["--help"], env={"COLUMNS": "80"})
        for name in SUBCOMMANDS:
            assert name in result.output


if __name__ == "__main__":
    print(cli_digest())
