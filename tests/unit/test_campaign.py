"""Unit tests for the sampling-campaign subsystem."""

import os
import random

import pytest

from repro.campaign import (
    CampaignResult,
    CheckpointMismatchError,
    SamplingCampaign,
    campaign_fingerprint,
)
from repro.core.generators import UniformGenerator
from repro.core.sampling import approximate_cp, approximate_oca
from repro.constraints import ConstraintSet, key
from repro.db.facts import Database, Fact
from repro.queries.parser import parse_cq
from repro.sql import KeyRepairSampler, SamplerPolicy, SQLiteBackend
from repro.workloads import key_conflict_workload

R_AB = Fact("R", ("a", "b"))
R_AC = Fact("R", ("a", "c"))

WORKLOAD = key_conflict_workload(
    clean_rows=8, conflict_groups=4, group_size=3, seed=9
)
QUERY = parse_cq("Q(x) :- R(x, y, z)")


def _sampler(checkpoint=None, policy=SamplerPolicy.OPERATIONAL_UNIFORM, **kwargs):
    backend = SQLiteBackend()
    WORKLOAD.load_into(backend)
    sampler = KeyRepairSampler(
        backend,
        WORKLOAD.schema,
        [WORKLOAD.key_spec],
        policy=policy,
        rng=random.Random(7),
        checkpoint_path=checkpoint,
        **kwargs,
    )
    return backend, sampler


class TestFingerprint:
    def test_stable_and_discriminating(self):
        a = campaign_fingerprint("x", ("R", 2), [1, 2])
        assert a == campaign_fingerprint("x", ("R", 2), [1, 2])
        assert a != campaign_fingerprint("x", ("R", 3), [1, 2])

    def test_bind_rejects_mismatch(self):
        campaign = SamplingCampaign(fingerprint="abc")
        campaign.bind_fingerprint("abc")
        with pytest.raises(CheckpointMismatchError):
            campaign.bind_fingerprint("def")

    def test_sampler_fingerprint_covers_policy(self):
        be1, s1 = _sampler(policy=SamplerPolicy.OPERATIONAL_UNIFORM)
        be2, s2 = _sampler(policy=SamplerPolicy.KEEP_ONE_UNIFORM)
        assert s1.fingerprint() != s2.fingerprint()
        be1.close()
        be2.close()


class TestWarmChains:
    def test_chain_cache_and_prune(self):
        campaign = SamplingCampaign(seed=1)
        built = []

        def factory():
            built.append(1)
            return object()

        first = campaign.chain(("k",), factory)
        assert campaign.chain(("k",), factory) is first
        assert built == [1]
        campaign.prune_chains([("other",)])
        assert campaign.chain(("k",), factory) is not first
        assert built == [1, 1]


class TestEstimate:
    def test_fixed_target_counts_and_frequencies(self):
        campaign = SamplingCampaign(seed=0)
        result = campaign.estimate(
            lambda batch: [[("t",)] for _ in range(batch)], runs=20
        )
        assert isinstance(result, CampaignResult)
        assert result.draws == 20
        assert result.frequencies == {("t",): 1.0}
        assert result.complete

    def test_discarded_draws_are_excluded_from_frequencies(self):
        campaign = SamplingCampaign(seed=0)
        outcomes = iter(
            [None, [("t",)], [("t",)], None, [()], [("t",)], [("t",)], [("t",)]]
        )
        result = campaign.estimate(
            lambda batch: [next(outcomes) for _ in range(batch)], runs=8
        )
        assert result.discarded == 2
        assert result.valid == 6
        assert result.frequencies[("t",)] == pytest.approx(5 / 6)

    def test_new_estimate_resets_completed_tallies(self):
        campaign = SamplingCampaign(seed=0)
        campaign.estimate(lambda b: [[("t",)]] * b, runs=10)
        result = campaign.estimate(lambda b: [[("u",)]] * b, runs=5)
        assert result.draws == 5
        assert set(result.frequencies) == {("u",)}


class TestCheckpointing:
    def test_resume_equals_uninterrupted(self, tmp_path):
        be, sampler = _sampler()
        full = sampler.run(QUERY, runs=90)
        be.close()

        path = str(tmp_path / "campaign.ckpt")
        be1, s1 = _sampler(checkpoint=path)
        partial = s1.run(QUERY, runs=90, max_draws=33)
        assert partial.runs == 33
        assert not s1.campaign.estimation_complete
        be1.close()

        # A brand-new process: fresh backend, fresh sampler, the campaign
        # restored from disk.
        be2, s2 = _sampler(checkpoint=path)
        assert s2.campaign.draws_done == 33
        resumed = s2.run(QUERY, runs=90)
        be2.close()
        assert resumed.runs == 90
        assert resumed.frequencies == full.frequencies

    def test_resume_rejects_wrong_fingerprint(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        campaign = SamplingCampaign(fingerprint="config-A", checkpoint_path=path)
        campaign.save_checkpoint()
        with pytest.raises(CheckpointMismatchError):
            SamplingCampaign.resume(path, "config-B")

    def test_sampler_rejects_stale_checkpoint(self, tmp_path):
        """A checkpoint written under different keys/policy must not feed
        a new sampler's estimates."""
        path = str(tmp_path / "campaign.ckpt")
        be1, s1 = _sampler(checkpoint=path, policy=SamplerPolicy.OPERATIONAL_UNIFORM)
        s1.run(QUERY, runs=5, max_draws=3)
        be1.close()
        with pytest.raises(CheckpointMismatchError):
            _sampler(checkpoint=path, policy=SamplerPolicy.KEEP_ONE_UNIFORM)

    def test_resume_rejects_corrupt_payload(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointMismatchError):
            SamplingCampaign.resume(str(path), "anything")

    def test_resume_rejects_wrong_version(self, tmp_path):
        import pickle

        path = tmp_path / "campaign.ckpt"
        path.write_bytes(pickle.dumps({"version": 999, "fingerprint": "x", "seed": 1}))
        with pytest.raises(CheckpointMismatchError):
            SamplingCampaign.resume(str(path), "x")

    def test_checkpoint_written_atomically(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt")
        campaign = SamplingCampaign(fingerprint="f", checkpoint_path=path)
        campaign.save_checkpoint()
        assert os.path.exists(path)
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert not leftovers


class TestStaleness:
    def test_shared_campaign_distinguishes_databases(self):
        """A shared campaign must not reuse one database's chain for
        another (the chain key covers generator + instance)."""
        sigma = ConstraintSet(key("R", 2, [0]))
        generator = UniformGenerator(sigma)
        query = parse_cq("Q(x) :- R(x, y)")
        campaign = SamplingCampaign(seed=8)
        db1 = Database.of(R_AB, R_AC)
        approximate_cp(db1, generator, query, ("a",), rng=random.Random(1), campaign=campaign)
        db2 = Database.of(Fact("R", ("z", 9)), Fact("R", ("z", 8)))
        result = approximate_cp(
            db2, generator, query, ("z",), rng=random.Random(1), campaign=campaign
        )
        assert len(campaign._chains) == 2
        assert result.estimate > 0.5  # exact CP is 2/3; a db1 chain gives 0.0

    def test_checkpoint_rejected_after_data_refresh(self, tmp_path):
        """Same schema/keys/policy but different base rows: the campaign
        fingerprint covers the instance, so resumption is refused."""
        path = str(tmp_path / "campaign.ckpt")
        be1, s1 = _sampler(checkpoint=path)
        s1.run(QUERY, runs=20, max_draws=10)
        be1.close()
        refreshed = key_conflict_workload(
            clean_rows=8, conflict_groups=4, group_size=3, seed=99
        )
        be2 = SQLiteBackend()
        refreshed.load_into(be2)
        with pytest.raises(CheckpointMismatchError):
            KeyRepairSampler(
                be2,
                refreshed.schema,
                [refreshed.key_spec],
                policy=SamplerPolicy.OPERATIONAL_UNIFORM,
                rng=random.Random(7),
                checkpoint_path=path,
            )
        be2.close()


class TestReviewRegressions:
    def test_shared_campaign_distinguishes_generator_configs(self):
        """Same generator class, different constraints: distinct chains."""
        db = Database.of(R_AB, R_AC)
        query = parse_cq("Q(x) :- R(x, y)")
        campaign = SamplingCampaign(seed=4)
        gen_key0 = UniformGenerator(ConstraintSet(key("R", 2, [0])))
        gen_key1 = UniformGenerator(ConstraintSet(key("R", 2, [1])))
        approximate_cp(db, gen_key0, query, ("a",), rng=random.Random(1), campaign=campaign)
        approximate_cp(db, gen_key1, query, ("a",), rng=random.Random(1), campaign=campaign)
        assert len(campaign._chains) == 2

    def test_crash_mid_run_resumes_from_checkpoint(self, tmp_path):
        """Per-batch checkpoints record an unfinished estimation, so a
        crash-resume continues instead of resetting the tallies."""
        path = str(tmp_path / "c.ckpt")
        campaign = SamplingCampaign(fingerprint="f", checkpoint_path=path, seed=1)
        calls = {"n": 0}

        def crashing_draw(batch):
            if calls["n"] == 1:
                raise RuntimeError("simulated crash")
            calls["n"] += 1
            return [[("t",)] for _ in range(batch)]

        with pytest.raises(RuntimeError):
            campaign.estimate(crashing_draw, runs=20, adaptive=True)
        resumed = SamplingCampaign.resume(path, "f")
        assert resumed.draws_done > 0
        assert not resumed.estimation_complete
        before = resumed.draws_done
        result = resumed.estimate(
            lambda b: [[("t",)] for _ in range(b)], runs=20, adaptive=True
        )
        assert result.draws >= before  # continued, not reset
        assert result.complete

    def test_generic_sampler_fingerprint_covers_generator_config(self):
        from fractions import Fraction

        from repro.core.generators import TrustGenerator
        from repro.db.schema import Schema
        from repro.sql import ConstraintRepairSampler

        db = Database.of(R_AB, R_AC)
        sigma = ConstraintSet(key("R", 2, [0]))
        schema = Schema.of(R=2)
        prints = []
        for level in (Fraction(1, 4), Fraction(3, 4)):
            be = SQLiteBackend()
            be.load(db, schema)
            sampler = ConstraintRepairSampler(
                be,
                schema,
                sigma,
                generator_factory=lambda cs, lv=level: TrustGenerator(cs, {R_AB: lv}),
                rng=random.Random(2),
            )
            prints.append(sampler.fingerprint())
            be.close()
        assert prints[0] != prints[1]

    def test_campaign_adaptive_default_honored_by_estimators(self):
        db = Database.of(Fact("R", ("k", "v")))
        sigma = ConstraintSet(key("R", 2, [0]))
        query = parse_cq("Q(x) :- R(x, y)")
        campaign = SamplingCampaign(seed=2, adaptive=True)
        result = approximate_cp(
            db,
            UniformGenerator(sigma),
            query,
            ("k",),
            epsilon=0.05,
            delta=0.1,
            rng=random.Random(3),
            campaign=campaign,
        )
        assert result.samples < 600  # adaptive stop without an explicit flag

    def test_interrupted_campaign_rejects_a_different_query(self, tmp_path):
        """Unfinished tallies belong to one query; resuming the campaign
        under another query must fail loudly, not merge counts."""
        path = str(tmp_path / "c.ckpt")
        be1, s1 = _sampler(checkpoint=path)
        s1.run(QUERY, runs=60, max_draws=20)
        be1.close()
        be2, s2 = _sampler(checkpoint=path)
        other = parse_cq("Q(y) :- R(x, y, z)")
        with pytest.raises(CheckpointMismatchError):
            s2.run(other, runs=60)
        # The original query still resumes fine.
        report = s2.run(QUERY, runs=60)
        assert report.runs == 60
        be2.close()

    def test_no_instance_digest_on_default_path(self):
        be, sampler = _sampler()
        assert sampler._data_digest is None  # no full-table scan paid
        sampler.fingerprint()
        assert sampler._data_digest is not None
        be.close()


class TestCheckpointHashSafety:
    """Cached hashes are per-process (randomized str hashing) and must
    never ride along in a pickle: a checkpointed chain resumed in a
    fresh process would otherwise hold frozensets whose members hash
    differently from freshly computed equal values, silently breaking
    every set lookup (observed as non-terminating walks on resume)."""

    def test_pickling_strips_cached_hashes(self):
        import pickle

        from repro.constraints.shortcuts import key as make_key
        from repro.core.operations import Operation
        from repro.core.violations import violations

        fact = Fact("R", ("a", "b"))
        op = Operation.delete(fact)
        sigma = ConstraintSet(key("R", 2, [0]))
        violation = next(iter(violations(Database.of(R_AB, R_AC), sigma)))
        constraint = make_key("R", 2, [0])[0]
        for obj, attr in [
            (fact, "_hash_cache"),
            (op, "_hash_cache"),
            (violation, "_hash_cache"),
            (constraint, "_hash"),
        ]:
            hash(obj)
            assert attr in obj.__dict__
            restored = pickle.loads(pickle.dumps(obj))
            assert attr not in restored.__dict__
            assert hash(restored) == hash(obj)
            assert restored == obj

    def test_facts_pickled_in_another_process_hash_consistently(self, tmp_path):
        import os
        import pickle
        import subprocess
        import sys

        blob = tmp_path / "facts.pkl"
        script = (
            "import pickle, sys\n"
            "from repro.db.facts import Fact, Database\n"
            "facts = [Fact('R', ('a', 'b')), Fact('R', ('a', 'c'))]\n"
            "[hash(f) for f in facts]\n"
            "db = Database(facts)\n"
            "pickle.dump((facts, db), open(sys.argv[1], 'wb'))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        env["PYTHONHASHSEED"] = "12345"  # force a different hash universe
        subprocess.run(
            [sys.executable, "-c", script, str(blob)],
            check=True,
            env=env,
            cwd=os.getcwd(),
        )
        facts, db = pickle.load(open(blob, "rb"))
        for restored in facts:
            fresh = Fact(restored.relation, restored.values)
            assert hash(restored) == hash(fresh)
            assert restored in db
            assert fresh in db.facts
        assert db.with_removed([Fact("R", ("a", "b"))]) == {Fact("R", ("a", "c"))}


class TestCoreEstimatorsThroughCampaign:
    def test_approximate_cp_warm_chain_reuse(self):
        db = Database.of(R_AB, R_AC)
        sigma = ConstraintSet(key("R", 2, [0]))
        generator = UniformGenerator(sigma)
        query = parse_cq("Q(x) :- R(x, y)")
        campaign = SamplingCampaign(seed=3)
        first = approximate_cp(
            db, generator, query, ("a",), rng=random.Random(1), campaign=campaign
        )
        assert len(campaign._chains) == 1
        chain = next(iter(campaign._chains.values()))
        second = approximate_cp(
            db, generator, query, ("a",), rng=random.Random(2), campaign=campaign
        )
        assert next(iter(campaign._chains.values())) is chain
        for result in (first, second):
            assert 0.0 <= result.estimate <= 1.0
            assert result.samples == 150

    def test_approximate_cp_adaptive_uses_at_most_hoeffding(self):
        """A zero-variance stream (CP = 1) stops well before Hoeffding."""
        db = Database.of(Fact("R", ("k", "v")))
        sigma = ConstraintSet(key("R", 2, [0]))
        query = parse_cq("Q(x) :- R(x, y)")
        result = approximate_cp(
            db,
            UniformGenerator(sigma),
            query,
            ("k",),
            epsilon=0.05,
            delta=0.1,
            rng=random.Random(11),
            adaptive=True,
        )
        assert result.estimate == 1.0
        assert result.samples < 600  # the fixed Hoeffding count

    def test_approximate_oca_adaptive_matches_fixed_within_epsilon(self):
        db = Database.of(R_AB, R_AC)
        sigma = ConstraintSet(key("R", 2, [0]))
        query = parse_cq("Q(x) :- R(x, y)")
        fixed = approximate_oca(
            db, UniformGenerator(sigma), query, rng=random.Random(5)
        )
        adaptive = approximate_oca(
            db, UniformGenerator(sigma), query, rng=random.Random(5), adaptive=True
        )
        for answer in set(fixed) | set(adaptive):
            assert abs(fixed.get(answer, 0.0) - adaptive.get(answer, 0.0)) <= 0.2
