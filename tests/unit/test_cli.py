"""Unit tests for the ocqa command-line interface."""

import json

import pytest

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


class TestTimingFlagValidation:
    """Satellite: bad --lease-timeout/--context-timeout/--deadline values
    must die with a clear error instead of a downstream hang."""

    def _sql_sample(self, key_files, *extra):
        db, sigma = key_files
        return [
            "sql-sample", "--db", db, "--constraints", sigma,
            "--query", "Q(x) :- R(x, y)", "--runs", "10", "--seed", "1",
            *extra,
        ]

    @pytest.mark.parametrize(
        "flag", ["--lease-timeout", "--context-timeout", "--deadline"]
    )
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
        with pytest.raises(SystemExit, match="default-deadline"):
            main(
                ["serve", "--listen", "127.0.0.1:0", "--default-deadline", "0"]
            )


class TestStatusCommand:
    def test_local_status_prints_report(self, capsys):
        code, out = run_cli(capsys, "status")
        assert code == 0
        assert "cache" in out or "report" in out or out.strip()
