"""The command line surface: payload formats, manifests, reproducibility."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import greenlab
from greenlab import cli
from greenlab import energy as en
from greenlab import verify
from greenlab.cli import RunManifest, main
from greenlab.manifold import Family, ManifoldSpec, diameter, volume

SRC = os.path.dirname(os.path.dirname(greenlab.__file__))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_and_verify_leave_scipy_out():
    # numpy is the one runtime dependency: importing scipy.special alone
    # cost about 0.4 s and 26 MB at start-up, so no command may load any of it
    code = (
        "import contextlib, io, sys\n"
        "import greenlab.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert greenlab.cli.main(['verify', '--quick']) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.stdout.strip() == "[]"


def test_bound_leaves_mpmath_out():
    # the closed K and Theta formulas run in double precision; mpmath is a
    # test-only dependency
    code = (
        "import sys\n"
        "from greenlab.cli import main\n"
        "assert main(['bound', '--family', 'cp', '--n', '2', '--points', '500']) == 0\n"
        "print('mpmath' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.stdout.strip().splitlines()[-1] == "False"


class TestCompare:
    def test_cayley_plane_row(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--family", "op2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,ours,matzke,ratio"
        n, ours, matzke, _ = lines[1].split(",")
        assert n == "2"
        assert math.floor(float(ours) * 1e4) / 1e4 == 0.0335
        assert math.floor(float(matzke) * 1e4) / 1e4 == 0.0400

    def test_real_projective_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--family", "rp", "--n-min", "3", "--n-max", "8"
        )
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 6
        for row in rows:
            _, ours, matzke, _ = row.split(",")
            assert abs(float(ours)) < abs(float(matzke))


class TestBound:
    def test_quaternionic_line_leading_coefficient(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--family", "hp", "--n", "1", "--points", "100000"
        )
        assert code == 0
        payload = json.loads(out)
        expected = 1.0 / (3.0**1.5 * volume(ManifoldSpec(Family.QUAT_PROJ, 1)))
        assert payload["leading_coefficient"] == pytest.approx(expected, rel=1e-12, abs=0)
        assert payload["best_bound"] <= 0.0
        assert len(payload["radius_grid"]) >= 32

    @pytest.mark.parametrize("n", [16, 20, 24])
    def test_high_dimensional_spheres(self, capsys, n):
        code, out, _ = run_cli(capsys, "bound", "--family", "s", "--n", str(n), "--points", "1000")
        assert code == 0
        best = json.loads(out)["best_bound"]
        assert math.isfinite(best) and best <= 0.0

    @pytest.mark.parametrize("n", [44, 50, 60])
    def test_highest_dimensional_spheres_give_a_nonpositive_bound(self, capsys, n):
        # Theta reads phi(a) from the profile table, whose error once swamped
        # phi itself here and made the bound positive
        code, out, err = run_cli(capsys, "bound", "--family", "s", "--n", str(n), "--points", "1000")
        assert code == 0, err
        best = json.loads(out)["best_bound"]
        assert math.isfinite(best) and best <= 0.0

    @pytest.mark.parametrize("n", [30, 40])
    def test_very_high_dimensional_spheres_never_crash(self, n):
        proc = subprocess.run(
            [sys.executable, "-m", "greenlab.cli", "bound", "--family", "s", "--n", str(n),
             "--points", "1000"],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0 or (proc.returncode == 1 and "error:" in proc.stderr)


    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--family", "s", "--n", "400", "--points", "10"],
            ["profile", "--family", "hp", "--n", "300"],
            ["ball", "--family", "cp", "--n", "600", "--grid-size", "1"],
            ["bound", "--family", "cp", "--n", "1000", "--points", "10"],
        ],
        ids=" ".join,
    )
    def test_any_dimension_is_a_result_or_an_error_line(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "greenlab.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 0 or (proc.returncode == 1 and "error:" in proc.stderr)

    @pytest.mark.parametrize("family", ["s", "rp"])
    def test_underflowing_ball_volume_is_an_error_naming_the_radius(self, capsys, family):
        # V(a) underflows at the smallest grid radius, and Theta divides by it
        code, out, err = run_cli(capsys, "bound", "--family", family, "--n", "250", "--points", "1000")
        assert code == 1 and out == ""
        assert re.match(r"error: Theta is (inf|nan) at a = [0-9.e-]+ on " + family + "250", err)

    def test_an_n_past_the_double_range_is_one_error_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "greenlab.cli", "bound", "--family", "s", "--n", "3",
             "--points", "1" + "0" * 400],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": SRC},
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert re.fullmatch(r"error: need N < 2\^1024 to fit in a double, got an N of 1329 bits\n", proc.stderr)


class TestProfile:
    def test_csv_header_and_precision(self, capsys):
        code, out, _ = run_cli(capsys, "profile", "--family", "s", "--n", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,phi_hat,phi"
        r, phi_hat, phi = lines[1].split(",")
        # 17 significant digits round-trip doubles exactly
        assert float(r) and len(phi_hat) >= 17
        assert float(phi_hat) == pytest.approx(float(phi) * volume(ManifoldSpec(Family.SPHERE, 2)) + 1.0, rel=1e-12)


def run_profile_strictly(family: str, n: int) -> subprocess.CompletedProcess:
    """`greenlab profile` in a child that turns numpy's RuntimeWarnings into errors."""
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "greenlab.cli", "profile",
         "--family", family, "--n", str(n)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )


class TestProfileInHighDimensions:
    @pytest.mark.parametrize("family, n", [("s", 200), ("s", 400), ("rp", 200), ("cp", 100), ("hp", 50)])
    def test_rows_are_finite_and_stderr_is_the_manifest(self, family, n):
        proc = run_profile_strictly(family, n)
        assert proc.returncode == 0, proc.stderr
        rows = np.array([line.split(",") for line in proc.stdout.splitlines()[1:]], dtype=float)
        assert rows.shape == (200, 3) and np.isfinite(rows).all()
        assert json.loads(proc.stderr)["subcommand"] == "profile"

    @pytest.mark.parametrize("family, n", [("rp", 300), ("cp", 150), ("hp", 75)])
    def test_phi_beyond_double_range_is_one_error_line(self, family, n):
        # phi = (phi_hat + c_m) / V overflows, because V < 1e-186
        proc = run_profile_strictly(family, n)
        assert proc.returncode == 1 and proc.stdout == ""
        assert re.fullmatch(rf"error: phi at r=\S+ on {family}{n} overflows a double: .*\n", proc.stderr)


class TestBall:
    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "ball", "--family", "cp", "--n", "2", "--radius", "0.9"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert (
            lines[0]
            == "family,n,a,K_quad,K_closed,Theta_quad,Theta_closed,rel_err_K,rel_err_Theta"
        )
        row = lines[1].split(",")
        assert row[0] == "cp" and row[1] == "2"
        assert float(row[7]) < 1e-7 and float(row[8]) < 1e-6

    @pytest.mark.parametrize(("family", "n"), [("s", "3"), ("rp", "4")])
    def test_spheres_and_real_projective_spaces_have_closed_columns(self, capsys, family, n):
        code, out, _ = run_cli(capsys, "ball", "--family", family, "--n", n)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert rows and all(row[:2] == [family, n] for row in rows)
        for row in rows:
            cells = [float(v) for v in row[2:]]
            assert all(math.isfinite(v) for v in cells)
            assert cells[-2] < 1e-7 and cells[-1] < 1e-7

    @pytest.mark.parametrize(("family", "n"), [("s", 3), ("rp", 3), ("cp", 2), ("hp", 1), ("op2", 2)])
    def test_theta_error_at_the_diameter_is_relative_to_phi(self, capsys, family, n):
        # Theta is 0 at D up to rounding, so its error is measured against phi(D)
        radius = repr(diameter(ManifoldSpec.from_token(family, n)))
        code, out, _ = run_cli(capsys, "ball", "--family", family, "--n", str(n), "--radius", radius)
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[-1]) <= 1e-12


class TestEnergyAndOptimize:
    def test_optimize_then_energy(self, capsys, tmp_path):
        out_file = tmp_path / "points.txt"
        code, _, _ = run_cli(
            capsys,
            "optimize",
            "--family",
            "s",
            "--n",
            "2",
            "--points",
            "12",
            "--iters",
            "20",
            "--seed",
            "7",
            "--out",
            str(out_file),
        )
        assert code == 0
        assert out_file.exists()
        manifest = json.loads((tmp_path / "points.txt.manifest.json").read_text())
        assert manifest["subcommand"] == "optimize"
        assert manifest["seed"] == 7
        assert manifest["version"]

        code, out, _ = run_cli(capsys, "energy", "--config", str(out_file))
        assert code == 0
        payload = json.loads(out)
        assert payload["N"] == 12
        assert payload["slack"] >= 0.0
        assert payload["energy"] >= payload["bound"]["best_bound"]

    def test_optimize_deterministic_payload(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for f in (f1, f2):
            code, _, _ = run_cli(
                capsys,
                "optimize",
                "--family",
                "cp",
                "--n",
                "1",
                "--points",
                "6",
                "--iters",
                "10",
                "--seed",
                "3",
                "--out",
                str(f),
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("iters", [0, 1, 3])
    @pytest.mark.parametrize("family, n", [("s", 2), ("cp", 2), ("hp", 1)])
    def test_optimize_reports_the_energy_of_its_output(self, capsys, family, n, iters):
        # the reported energy is the last accepted step's, with the bits that
        # `energy` gives the returned configuration
        code, _, err = run_cli(
            capsys, "optimize", "--family", family, "--n", str(n), "--points", "12",
            "--iters", str(iters), "--seed", "5",
        )
        assert code == 0
        spec = ManifoldSpec.from_token(family, n)
        cfg, e = en.optimize(spec, 12, iters, np.random.default_rng(5))
        assert e == en.energy(cfg)
        assert f"final energy {e:.17g}\n" in err

    @pytest.mark.parametrize("t", [4e-9, 6.28e-9])
    def test_unrepresentable_pair_distance_is_error(self, capsys, tmp_path, t):
        # two points of S^40 at distance t, above the 1e-9 D separation
        # floor but below the radius where phi_hat is representable
        e = [[1.0 if i == k else 0.0 for i in range(41)] for k in range(3)]
        near = [math.cos(t) * a + math.sin(t) * b for a, b in zip(e[0], e[1])]
        cfg = tmp_path / "s40.txt"
        cfg.write_text(
            "# manifold=s n=40\n"
            + "".join(" ".join(f"{x:.17g}" for x in row) + "\n" for row in (e[0], near, e[2]))
        )
        code, out, err = run_cli(capsys, "energy", "--config", str(cfg))
        assert code == 1
        assert "error:" in err and "not representable" in err
        assert "Infinity" not in out and "Traceback" not in err


class TestRejectedInputs:
    CIRCLE_COMMANDS = [
        ["profile"],
        ["ball"],
        ["bound", "--points", "100"],
        ["optimize", "--points", "5", "--iters", "1"],
    ]

    @pytest.mark.parametrize("family", ["s", "rp"])
    @pytest.mark.parametrize("argv", CIRCLE_COMMANDS, ids=lambda a: a[0])
    def test_circle_is_an_error_not_a_traceback(self, capsys, family, argv):
        code, out, err = run_cli(capsys, argv[0], "--family", family, "--n", "1", *argv[1:])
        assert code == 1 and out == ""
        assert err.startswith("error:") and "circle" in err

    @pytest.mark.parametrize("family", ["s", "rp"])
    def test_circle_configuration_file_is_an_error(self, capsys, tmp_path, family):
        cfg = tmp_path / "circle.txt"
        cfg.write_text(f"# manifold={family} n=1\n1 0\n0 1\n")
        code, _, err = run_cli(capsys, "energy", "--config", str(cfg))
        assert code == 1 and err.startswith("error:")

    def test_non_integer_dimension_in_configuration_is_an_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad_n.txt"
        cfg.write_text("# manifold=s n=two\n1 0 0\n0 1 0\n")
        code, out, err = run_cli(capsys, "energy", "--config", str(cfg))
        assert code == 1 and out == ""
        assert err.startswith("error:") and "field n" in err and "'two'" in err

    @pytest.mark.parametrize("iters", ["-1", "-200"])
    def test_negative_iterations_are_an_error(self, capsys, iters):
        code, out, err = run_cli(
            capsys, "optimize", "--family", "s", "--n", "2", "--points", "5", "--iters", iters
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "iterations" in err

    def test_negative_seed_is_an_error(self, capsys):
        code, out, err = run_cli(
            capsys, "optimize", "--family", "s", "--n", "2", "--points", "3", "--iters", "0",
            "--seed", "-1",
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "seed" in err and "Traceback" not in err

    def test_a_seed_gives_the_stream_of_its_generator(self):
        spec = ManifoldSpec.from_token("s", 2)
        for seed in (0, 5, 2**64 - 1):
            by_seed, _ = en.optimize(spec, 5, 0, seed)
            by_rng, _ = en.optimize(spec, 5, 0, np.random.default_rng(seed))
            assert np.array_equal(by_seed.coords_array(), by_rng.coords_array())

    def test_empty_compare_range_is_an_error(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--family", "cp", "--n-min", "5", "--n-max", "3")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "n_min <= n_max" in err

    def test_compare_without_data_names_the_family_by_its_value(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--family", "s", "--n-min", "3", "--n-max", "4")
        assert (code, out, err) == (1, "", "error: no comparison data for family sphere\n")

    def test_compare_reads_the_family_from_its_token(self, capsys):
        # n = 1 names a circle on S^n and RP^n, but the comparison answers first
        code, out, err = run_cli(capsys, "compare", "--family", "s", "--n-min", "1", "--n-max", "3")
        assert (code, out, err) == (1, "", "error: no comparison data for family sphere\n")

    def test_compare_checks_its_own_range(self, capsys):
        code, out, err = run_cli(capsys, "compare", "--family", "rp", "--n-min", "1", "--n-max", "3")
        assert (code, out, err) == (1, "", "error: family real_proj supports n in [3, inf], got [1, 3]\n")

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_grid_size_below_one_is_an_error(self, capsys, size):
        code, out, err = run_cli(capsys, "ball", "--family", "s", "--n", "2", "--grid-size", size)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--grid-size" in err


class TestParserReuse:
    def test_one_process_matches_separate_runs(self, capsys, tmp_path):
        config = tmp_path / "points.txt"
        bound = ["bound", "--family", "cp", "--n", "2", "--points", "300"]
        optimize = ["optimize", "--family", "hp", "--n", "1", "--points", "8",
                    "--iters", "2", "--seed", "3"]
        energy = ["energy", "--config", str(config)]
        payloads = []
        for argv in (bound, optimize, energy, bound):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            payloads.append(out)
            if argv is optimize:
                config.write_text(out)
        separate = {}
        for argv in (bound, optimize, energy):
            proc = subprocess.run(
                [sys.executable, "-m", "greenlab.cli", *argv],
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
                env={**os.environ, "PYTHONPATH": SRC},
            )
            separate[id(argv)] = proc.stdout
        assert payloads == [separate[id(a)] for a in (bound, optimize, energy, bound)]


class TestParseArgs:
    """`main` parses a subcommand's arguments with that subcommand's parser
    alone; the top-level parser's `parse_args` is the reference: the same
    namespace, attributes in the same order, or the same exit status, stdout
    and stderr."""

    ARGV = [
        ["bound", "--family", "cp", "--n", "2", "--points", "77"],
        ["bound", "--family=s", "--n", "3", "--points", "9", "--format", "csv", "--out", "x"],
        ["bound", "--fam", "hp", "--n", "1", "--poi", "7"],
        ["profile", "--family", "rp", "--n", "3", "--format", "json"],
        ["ball", "--family", "s", "--n", "2", "--radius", "0.5", "--radius", "-0.25"],
        ["compare", "--family", "op2"],
        ["energy", "--config", "c.txt"],
        ["optimize", "--family", "rp", "--n", "3", "--points", "5", "--iters", "1", "--seed", "2"],
        ["verify"],
        ["verify", "--quick"],
        # usage errors and help, after a subcommand and before one
        ["bound", "--family", "s", "--n", "2", "--points", "10", "--seed", "4", "extra"],
        ["bound", "--vers"],
        ["bound", "--version"],
        ["bound"],
        ["bound", "--family", "xx", "--points", "3"],
        ["bound", "--family", "s", "--points", "many"],
        ["bound", "--", "--family", "s"],
        ["bound", "-h"],
        ["verify", "--quick", "--out", "x"],
        # every subcommand's help, and a bad value for each
        ["profile", "-h"],
        ["ball", "-h"],
        ["compare", "-h"],
        ["energy", "-h"],
        ["optimize", "-h"],
        ["verify", "-h"],
        ["profile", "--family", "xx", "--n", "2"],
        ["ball", "--family", "s", "--n", "2", "--grid-size", "x"],
        ["compare", "--family", "op2", "--n-min", "1.5"],
        ["energy", "--config"],
        ["optimize", "--family", "s", "--n", "2", "--points", "4", "--iters", "q"],
        ["verify", "--quick=1"],
        [],
        ["--version"],
        ["-h"],
        ["nosuch"],
        ["--family", "s", "bound"],
    ]

    @staticmethod
    def outcome(parse, argv, capsys):
        try:
            result = list(vars(parse(list(argv))).items())
        except SystemExit as exc:
            result = ("exit", exc.code)
        return result, *capsys.readouterr()

    @pytest.mark.parametrize("argv", ARGV, ids=" ".join)
    def test_same_as_the_top_level_parser(self, argv, capsys):
        parser = cli._parsers()
        assert self.outcome(cli._parse_args, argv, capsys) == self.outcome(parser.parse_args, argv, capsys)


def test_a_bound_builds_its_parser_alone_and_no_oracles():
    # the top-level parser, with all seven subcommands, is built only for what
    # it answers itself, and the oracles and their checks load only for verify
    code = (
        "import contextlib, io, sys\n"
        "from greenlab import cli\n"
        "print('greenlab.verify' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(['bound', '--family', 'cp', '--n', '2', '--points', '50']) == 0\n"
        "print('greenlab.verify' in sys.modules)\n"
        "print(cli._parsers.cache_info().currsize, cli._command_parser.cache_info().currsize)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.stdout.split() == ["False", "False", "0", "1"]


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out
        checks = [line for line in out.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert checks
        for line in checks:
            assert re.search(r"\(\d+\.\d\d s\)$", line), line

    def test_closed_profile_check_passes(self):
        ok, detail = dict(verify.QUICK_CHECKS)["closed profile vs quadrature"]()
        assert ok, detail
        assert "closed profile vs quadrature" in dict(verify.FULL_CHECKS)


class TestPlumbing:
    def test_unknown_flag_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--family", "s", "--n", "2", "--points", "10", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_family_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--family", "q", "--n", "2", "--points", "10"])
        assert exc.value.code == 2

    def test_manifest_on_stderr_without_out(self, capsys):
        code, _, err = run_cli(capsys, "compare", "--family", "op2")
        assert code == 0
        manifest = json.loads(err)
        assert manifest["subcommand"] == "compare"

    def test_version_is_the_project_version(self):
        # CI compares the installed script's --version with this field too
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            assert greenlab.__version__ == tomllib.load(fh)["project"]["version"]

    def test_missing_config_is_error(self, capsys, tmp_path):
        missing = tmp_path / "nope.txt"
        code, _, err = run_cli(capsys, "energy", "--config", str(missing))
        assert code == 1
        assert "error:" in err


class TestOptionsPerSubcommand:
    """Each subcommand takes only the options it reads, and its manifest lists exactly those."""

    @pytest.mark.parametrize("flag", ["--seed", "--threads"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["bound", "--family", "s", "--n", "2", "--points", "10"],
            ["profile", "--family", "s", "--n", "2"],
            ["energy", "--config", "c.txt"],
        ],
        ids=["bound", "profile", "energy"],
    )
    def test_unread_option_is_a_usage_error(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "4"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag} 4" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["--out", "x.csv"], ["--format", "json"]])
    def test_verify_takes_no_output_options(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--quick", *argv])
        assert exc.value.code == 2

    def test_manifest_parameters_are_the_options_read(self, capsys, tmp_path):
        points = str(tmp_path / "points.txt")
        runs = {
            "profile": (["--family", "s", "--n", "2"], {"family", "n", "out", "format"}),
            "ball": (
                ["--family", "s", "--n", "2", "--radius", "0.5"],
                {"family", "n", "out", "format", "grid_size", "radius"},
            ),
            "bound": (["--family", "s", "--n", "2", "--points", "10"], {"family", "n", "out", "format", "points"}),
            "compare": (["--family", "op2"], {"family", "out", "format", "n_min", "n_max"}),
            "optimize": (
                ["--family", "s", "--n", "2", "--points", "4", "--iters", "1"],
                {"family", "n", "out", "points", "iters", "seed"},
            ),
            "energy": (["--config", points], {"out", "config"}),
        }
        for sub, (argv, expected) in runs.items():
            out = points if sub == "optimize" else str(tmp_path / f"{sub}.out")
            code, _, err = run_cli(capsys, sub, *argv, "--out", out)
            assert code == 0, err
            with open(out + ".manifest.json") as fh:
                text = fh.read()
            manifest = json.loads(text)
            assert manifest["subcommand"] == sub
            assert set(manifest["parameters"]) == expected, sub
            assert (manifest["seed"] is None) == (sub != "optimize"), sub
            # the bytes `dataclasses.asdict` gives the same manifest
            assert text == json.dumps(asdict(RunManifest(**manifest)), indent=2, default=str) + "\n", sub

    # a base invocation of each subcommand, and another value for each option
    # its manifest reports but --out, which names a path
    VARIED = {
        "profile": (["--family", "s", "--n", "2"], {"--family": "rp", "--n": "3", "--format": "json"}),
        "ball": (
            ["--family", "s", "--n", "2", "--grid-size", "2"],
            {"--family": "rp", "--n": "3", "--format": "json", "--grid-size": "3", "--radius": "0.5"},
        ),
        "bound": (
            ["--family", "s", "--n", "2", "--points", "10"],
            {"--family": "rp", "--n": "3", "--format": "csv", "--points": "11"},
        ),
        "compare": (
            ["--family", "cp", "--n-min", "2", "--n-max", "3"],
            {"--family": "hp", "--format": "json", "--n-min": "3", "--n-max": "4"},
        ),
        "optimize": (
            ["--family", "s", "--n", "2", "--points", "4", "--iters", "1"],
            {"--family": "rp", "--n": "3", "--points": "5", "--iters": "2", "--seed": "1"},
        ),
        "energy": (["--config", "{square}"], {"--config": "{line}"}),
    }

    @pytest.mark.parametrize("sub", sorted(VARIED))
    def test_every_reported_option_changes_the_payload(self, capsys, tmp_path, sub):
        configs = {"square": "1 0 0\n0 1 0\n0 0 1\n", "line": "1 0 0\n0 1 0\n-1 0 0\n"}
        for name, rows in configs.items():
            (tmp_path / f"{name}.txt").write_text("# manifold=s n=2\n" + rows)
        paths = {name: str(tmp_path / f"{name}.txt") for name in configs}
        base, varied = self.VARIED[sub]
        base = [arg.format(**paths) for arg in base]

        def payload(argv):
            out = str(tmp_path / "payload.out")
            code, _, err = run_cli(capsys, sub, *argv, "--out", out)
            assert code == 0, (argv, err)
            with open(out, "rb") as fh:
                return fh.read()

        reference = payload(base)
        with open(str(tmp_path / "payload.out") + ".manifest.json") as fh:
            reported = set(json.load(fh)["parameters"]) - {"out"}
        assert reported == {flag[2:].replace("-", "_") for flag in varied}
        for flag, value in varied.items():
            argv = list(base)
            if flag in argv:
                argv[argv.index(flag) + 1] = value.format(**paths)
            else:
                argv += [flag, value.format(**paths)]
            assert payload(argv) != reference, flag
