"""Unit tests for the ocqa command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.db.facts import Database, Fact
from repro.io import save_database


@pytest.fixture
def paper_files(tmp_path):
    """The Section 3 preference example on disk."""
    db = Database.from_tuples(
        {
            "Pref": [
                ("a", "b"),
                ("a", "c"),
                ("a", "d"),
                ("b", "a"),
                ("b", "d"),
                ("c", "a"),
            ]
        }
    )
    db_path = tmp_path / "db.json"
    save_database(db, db_path)
    sigma_path = tmp_path / "sigma.txt"
    sigma_path.write_text("Pref(x, y), Pref(y, x) -> false\n")
    return str(db_path), str(sigma_path)


@pytest.fixture
def key_files(tmp_path):
    db = Database.of(Fact("R", ("a", "b")), Fact("R", ("a", "c")))
    db_path = tmp_path / "db.json"
    save_database(db, db_path)
    sigma_path = tmp_path / "sigma.txt"
    sigma_path.write_text("R(x, y), R(x, z) -> y = z\n")
    return str(db_path), str(sigma_path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestViolations:
    def test_lists_violations(self, capsys, key_files):
        db, sigma = key_files
        code, out = run_cli(capsys, "violations", "--db", db, "--constraints", sigma)
        assert code == 0
        assert "2 violation(s)" in out


class TestRepairs:
    def test_uniform(self, capsys, key_files):
        db, sigma = key_files
        code, out = run_cli(capsys, "repairs", "--db", db, "--constraints", sigma)
        assert code == 0
        assert "1/3" in out

    def test_preference_generator(self, capsys, paper_files):
        db, sigma = paper_files
        code, out = run_cli(
            capsys,
            "repairs",
            "--db",
            db,
            "--constraints",
            sigma,
            "--generator",
            "preference",
        )
        assert code == 0
        assert "9/20" in out

    def test_trust_generator_requires_file(self, paper_files):
        db, sigma = paper_files
        with pytest.raises(SystemExit):
            main(
                [
                    "repairs",
                    "--db",
                    db,
                    "--constraints",
                    sigma,
                    "--generator",
                    "trust",
                ]
            )

    def test_trust_generator_with_file(self, capsys, key_files, tmp_path):
        db, sigma = key_files
        trust_path = tmp_path / "trust.json"
        trust_path.write_text(
            json.dumps(
                [
                    {"relation": "R", "values": ["a", "b"], "trust": 0.5},
                    {"relation": "R", "values": ["a", "c"], "trust": 0.5},
                ]
            )
        )
        code, out = run_cli(
            capsys,
            "repairs",
            "--db",
            db,
            "--constraints",
            sigma,
            "--generator",
            "trust",
            "--trust",
            str(trust_path),
        )
        assert code == 0
        assert "3/8" in out and "1/4" in out


class TestOCA:
    def test_example7(self, capsys, paper_files):
        db, sigma = paper_files
        code, out = run_cli(
            capsys,
            "oca",
            "--db",
            db,
            "--constraints",
            sigma,
            "--generator",
            "preference",
            "--query",
            "Q(x) :- forall y (Pref(x, y) | x = y)",
        )
        assert code == 0
        assert "9/20" in out


class TestSample:
    def test_estimates_printed(self, capsys, paper_files):
        db, sigma = paper_files
        code, out = run_cli(
            capsys,
            "sample",
            "--db",
            db,
            "--constraints",
            sigma,
            "--generator",
            "preference",
            "--query",
            "Q(x) :- forall y (Pref(x, y) | x = y)",
            "--seed",
            "1",
        )
        assert code == 0
        assert "~CP" in out and "Theorem 9" in out

    def test_tied_estimates_print_in_candidate_order(self, capsys, tmp_path):
        db_path = tmp_path / "db.json"
        save_database(
            Database.of(*(Fact("R", (f"k{i}", "v")) for i in range(8))), db_path
        )
        sigma_path = tmp_path / "sigma.txt"
        sigma_path.write_text("R(x, y), R(x, z) -> y = z\n")
        code, out = run_cli(
            capsys, "sample", "--db", str(db_path), "--constraints",
            str(sigma_path), "--query", "Q(x) :- R(x, y)", "--seed", "1",
        )
        assert code == 0
        tied = [line for line in out.splitlines() if "~CP = 1.0000" in line]
        assert len(tied) == 8 and tied == sorted(tied)


class TestChain:
    def test_ascii(self, capsys, key_files):
        db, sigma = key_files
        code, out = run_cli(capsys, "chain", "--db", db, "--constraints", sigma)
        assert code == 0
        assert "ε" in out

    def test_dot(self, capsys, key_files):
        db, sigma = key_files
        code, out = run_cli(
            capsys, "chain", "--db", db, "--constraints", sigma, "--format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph")


class TestABC:
    def test_repairs_and_certain_answers(self, capsys, key_files):
        db, sigma = key_files
        code, out = run_cli(
            capsys,
            "abc",
            "--db",
            db,
            "--constraints",
            sigma,
            "--query",
            "Q(x) :- R(x, y)",
        )
        assert code == 0
        assert "2 ABC repair(s)" in out
        assert "('a',)" in out


class TestSQLSample:
    def test_estimates_printed(self, capsys, key_files):
        db, sigma = key_files
        code, out = run_cli(
            capsys,
            "sql-sample",
            "--db",
            db,
            "--constraints",
            sigma,
            "--query",
            "Q(x) :- R(x, y)",
            "--runs",
            "30",
            "--seed",
            "5",
        )
        assert code == 0
        assert "~CP" in out
        assert "1 conflict components" in out

    def test_trust_generator_weights_each_group(self, capsys, tmp_path, monkeypatch):
        """Two groups of one shape with different trust walk different
        tables; the reference walk prints the same estimates."""
        rows = [("a", "b"), ("a", "c"), ("d", "e"), ("d", "f")]
        db = Database.of(*(Fact("R", row) for row in rows))
        db_path = tmp_path / "db.json"
        save_database(db, db_path)
        sigma_path = tmp_path / "sigma.txt"
        sigma_path.write_text("R(x, y), R(x, z) -> y = z\n")
        trust_path = tmp_path / "trust.json"
        trust_path.write_text(
            json.dumps(
                [
                    {"relation": "R", "values": ["a", "b"], "trust": 1},
                    {"relation": "R", "values": ["a", "c"], "trust": 0},
                ]
            )
        )
        argv = [
            "sql-sample", "--db", str(db_path), "--constraints", str(sigma_path),
            "--query", "Q(x, y) :- R(x, y)", "--runs", "200", "--seed", "4",
            "--generator", "trust", "--trust", str(trust_path),
        ]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        # Full trust always keeps R(a, b); the d group (default trust)
        # keeps each fact with probability 3/8.
        assert "('a', 'b')  ~CP = 1.0000" in out
        assert "('a', 'c')" not in out
        monkeypatch.setenv("REPRO_COLUMNAR", "0")
        assert run_cli(capsys, *argv) == (0, out)

    def test_preference_generator_refused(self, paper_files):
        db, sigma = paper_files
        with pytest.raises(SystemExit, match="not component-local"):
            main(
                [
                    "sql-sample", "--db", db, "--constraints", sigma,
                    "--query", "Q(x) :- Pref(x, y)", "--generator", "preference",
                ]
            )

    def test_refuses_a_null_cell(self, tmp_path, key_files):
        """SQL's ``NULL = NULL`` finds no conflict in this key group, so
        ``sql-sample`` would print ``~CP = 1.0000`` where ``oca`` gives
        1/3: the ``--db`` loader refuses the cell instead."""
        _, sigma = key_files
        db_path = tmp_path / "nulls.json"
        db_path.write_text('{"R": [[null, "a"], [null, "b"]]}')
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "sql-sample",
                "--db", str(db_path), "--constraints", sigma,
                "--query", "Q(x, y) :- R(x, y)", "--runs", "400", "--seed", "3",
            ],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode != 0, result.stdout
        assert "'database.R' cell None" in result.stderr

    def test_rejects_tgds(self, tmp_path, key_files):
        db, _ = key_files
        sigma_path = tmp_path / "tgd.txt"
        sigma_path.write_text("R(x, y) -> S(x)\n")
        with pytest.raises(ValueError):
            main(
                [
                    "sql-sample",
                    "--db",
                    db,
                    "--constraints",
                    str(sigma_path),
                    "--query",
                    "Q(x) :- R(x, y)",
                ]
            )


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_generator(self, key_files):
        db, sigma = key_files
        with pytest.raises(SystemExit):
            main(
                [
                    "repairs",
                    "--db",
                    db,
                    "--constraints",
                    sigma,
                    "--generator",
                    "bogus",
                ]
            )

    @pytest.mark.parametrize(
        "command, flag",
        [
            *(
                (command, flag)
                for command in ("violations", "diagnose", "abc")
                for flag in (
                    "--generator", "--preference-relation", "--trust", "--max-states",
                )
            ),
            ("sample", "--max-states"),
            ("sql-sample", "--max-states"),
            ("sql-sample", "--preference-relation"),
            ("sample", "--context-timeout"),
            ("sql-sample", "--context-timeout"),
        ],
    )
    def test_command_refuses_flags_it_does_not_read(
        self, capsys, key_files, command, flag
    ):
        db, sigma = key_files
        argv = [command, "--db", db, "--constraints", sigma, flag, "1"]
        if command in ("sample", "sql-sample"):
            argv += ["--query", "Q(x) :- R(x, y)"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestTimingFlagValidation:
    """Satellite: bad --lease-timeout/--deadline values must die with a
    clear error instead of a downstream hang."""

    def _sql_sample(self, key_files, *extra):
        db, sigma = key_files
        return [
            "sql-sample", "--db", db, "--constraints", sigma,
            "--query", "Q(x) :- R(x, y)", "--runs", "10", "--seed", "1",
            *extra,
        ]

    @pytest.mark.parametrize("flag", ["--lease-timeout", "--deadline"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_rejected(self, key_files, flag, value):
        with pytest.raises(SystemExit, match="positive seconds"):
            main(self._sql_sample(key_files, flag, value))

    def test_deadline_shorter_than_lease_rejected(self, key_files):
        with pytest.raises(SystemExit, match="shorter than --lease-timeout"):
            main(
                self._sql_sample(
                    key_files, "--deadline", "1", "--lease-timeout", "30"
                )
            )

    def test_deadline_alone_clamps_lease(self, capsys, key_files):
        # With no explicit lease timeout there is nothing to conflict
        # with: the lease timeout is clamped down to the deadline.
        code, out = run_cli(
            capsys, *self._sql_sample(key_files, "--deadline", "30")
        )
        assert code == 0
        assert "~CP" in out

    def test_expired_deadline_prints_best_effort_note(self, capsys, key_files):
        code, out = run_cli(
            capsys,
            *self._sql_sample(key_files, "--deadline", "0.000001", "--runs",
                              "5000"),
        )
        assert code == 0
        assert "deadline expired" in out
        assert "achieved epsilon" in out

    def test_sample_subcommand_validates_too(self, key_files):
        db, sigma = key_files
        with pytest.raises(SystemExit, match="positive seconds"):
            main(
                [
                    "sample", "--db", db, "--constraints", sigma,
                    "--query", "Q(x) :- R(x, y)", "--deadline", "0",
                ]
            )


class TestWorkersFlagValidation:
    def test_negative_workers_rejected_by_every_sharding_command(
        self, key_files
    ):
        db, sigma = key_files
        query = ["--query", "Q(x) :- R(x, y)"]
        for argv in (
            ["sample", "--db", db, "--constraints", sigma, *query],
            ["sql-sample", "--db", db, "--constraints", sigma, *query],
            ["serve", "--listen", "127.0.0.1:0"],
        ):
            with pytest.raises(SystemExit, match="--workers must be >= 0"):
                main([*argv, "--workers", "-1"])


class TestWorkerFlagValidation:
    def test_bad_listen_rejected(self):
        with pytest.raises(SystemExit, match="host:port"):
            main(["worker", "--listen", "nonsense"])

    def test_negative_max_inflight_rejected(self):
        with pytest.raises(SystemExit, match="max-inflight"):
            main(
                ["worker", "--listen", "127.0.0.1:0", "--max-inflight", "-1"]
            )

    def test_nonpositive_drain_timeout_rejected(self):
        with pytest.raises(SystemExit, match="drain-timeout"):
            main(
                ["worker", "--listen", "127.0.0.1:0", "--drain-timeout", "0"]
            )


class TestServeFlagValidation:
    def test_bad_tenant_spec_rejected(self):
        from repro.cli import _parse_tenant_quota

        for spec in ("", "acme", "acme:zero", ":4", "acme:0", "a:1:2:3:4"):
            with pytest.raises(SystemExit):
                _parse_tenant_quota(spec)

    def test_tenant_spec_parses_quota(self):
        from repro.cli import _parse_tenant_quota

        name, quota = _parse_tenant_quota("acme:4:1000:2000")
        assert name == "acme"
        assert quota.max_concurrent == 4
        assert quota.draws_per_second == 1000.0
        assert quota.burst == 2000.0

    def test_nonpositive_deadline_rejected(self):
        for value in ("0", "nan"):
            with pytest.raises(SystemExit, match="default-deadline"):
                main(["serve", "--listen", "127.0.0.1:0", "--default-deadline", value])


class TestStatusCommand:
    def test_bare_status_requires_service(self, capsys):
        # Without --service the command could only describe its own
        # fresh process, whose counters are all zero.
        with pytest.raises(SystemExit) as excinfo:
            main(["status"])
        assert excinfo.value.code != 0
        assert "--service" in capsys.readouterr().err


class TestImports:
    def test_no_module_imports_numpy(self):
        """The runtime is pure Python: neither the CLI nor any other
        module of the package pulls in numpy."""
        probe = (
            "import importlib, pkgutil, sys\n"
            "import repro.cli\n"
            "assert 'numpy' not in sys.modules, 'repro.cli'\n"
            "import repro\n"
            "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    importlib.import_module(module.name)\n"
            "    assert 'numpy' not in sys.modules, module.name\n"
        )
        src = pathlib.Path(repro.__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
