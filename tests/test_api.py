"""The unified query API: plan IR, lowering, executor, client.

The contract under test (the api_redesign acceptance criteria):

* every Table-4 query kind, expressed as SQL, fluent builder, or
  ``PrismSystem`` method call, lowers to the *same* ``LogicalPlan`` and
  returns bit-identical results through the unified executor — and, for
  the batchable kinds, bit-identical to the sequential 1-D runners;
* single set/count/sum/avg queries demonstrably run through the fused
  batch kernels (asserted via the TrafficStats message-kind counters);
* the ``verify`` flag is carried everywhere the legacy dispatch dropped
  it (PSU, MAX/MIN), with loud rejection where no stream exists.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from reference import assert_matches_plaintext, canonical, run_alone

from repro import (
    Domain,
    LogicalPlan,
    Planner,
    PrismClient,
    PrismSystem,
    Q,
    QueryError,
    Relation,
    VerificationError,
    parse_sql,
)
from repro.entities.adversary import InjectFakeServer
from repro.network.message import is_batch_kind


def build_hospitals(**kwargs):
    relations = [
        Relation("hospital1", {
            "name": ["John", "Adam", "Mike"],
            "age": [4, 6, 2],
            "disease": ["Cancer", "Cancer", "Heart"],
            "cost": [100, 200, 300],
        }),
        Relation("hospital2", {
            "name": ["John", "Adam", "Bob"],
            "age": [8, 5, 4],
            "disease": ["Cancer", "Fever", "Fever"],
            "cost": [100, 70, 50],
        }),
        Relation("hospital3", {
            "name": ["Carl", "John", "Lisa"],
            "age": [8, 4, 5],
            "disease": ["Cancer", "Cancer", "Heart"],
            "cost": [300, 700, 500],
        }),
    ]
    domain = Domain("disease", ["Cancer", "Fever", "Heart"])
    return PrismSystem.build(relations, domain, "disease",
                             agg_attributes=("cost", "age"),
                             with_verification=True, seed=11, **kwargs)


def branches(projection, op, n=3):
    keyword = {"psi": "INTERSECT", "psu": "UNION"}[op]
    return f" {keyword} ".join(
        f"SELECT {projection} FROM h{i + 1}" for i in range(n))


def run_sql(system, sql):
    return PrismClient(system).execute(sql)


#: (name, sql, builder, PrismSystem-method runner).
CASES = [
    ("psi",
     branches("disease", "psi"),
     Q.psi("disease"),
     lambda s: s.psi("disease")),
    ("psi_verify",
     branches("disease", "psi") + " VERIFY",
     Q.psi("disease").verify(),
     lambda s: s.psi("disease", verify=True)),
    ("psu",
     branches("disease", "psu"),
     Q.psu("disease"),
     lambda s: s.psu("disease")),
    ("psu_verify",
     branches("disease", "psu") + " VERIFY",
     Q.psu("disease").verify(),
     lambda s: s.psu("disease", verify=True)),
    ("psi_count",
     branches("COUNT(disease)", "psi"),
     Q.psi("disease").count(),
     lambda s: s.psi_count("disease")),
    ("psi_count_verify",
     branches("COUNT(disease)", "psi") + " VERIFY",
     Q.psi("disease").count().verify(),
     lambda s: s.psi_count("disease", verify=True)),
    ("psu_count",
     branches("COUNT(disease)", "psu"),
     Q.psu("disease").count(),
     lambda s: s.psu_count("disease")),
    ("psi_sum",
     branches("disease, SUM(cost)", "psi"),
     Q.psi("disease").sum("cost"),
     lambda s: s.psi_sum("disease", "cost")["cost"]),
    ("psi_sum_verify",
     branches("disease, SUM(cost)", "psi") + " VERIFY",
     Q.psi("disease").sum("cost").verify(),
     lambda s: s.psi_sum("disease", "cost", verify=True)["cost"]),
    ("psi_average",
     branches("disease, AVG(age)", "psi"),
     Q.psi("disease").avg("age"),
     lambda s: s.psi_average("disease", "age")["age"]),
    ("psu_sum",
     branches("disease, SUM(cost)", "psu"),
     Q.psu("disease").sum("cost"),
     lambda s: s.psu_sum("disease", "cost")["cost"]),
    ("psu_average",
     branches("disease, AVG(cost)", "psu"),
     Q.psu("disease").avg("cost"),
     lambda s: s.psu_average("disease", "cost")["cost"]),
    ("psi_max",
     branches("disease, MAX(age)", "psi"),
     Q.psi("disease").max("age"),
     lambda s: s.psi_max("disease", "age")),
    ("psi_min",
     branches("disease, MIN(age)", "psi"),
     Q.psi("disease").min("age"),
     lambda s: s.psi_min("disease", "age")),
    ("psi_median",
     branches("disease, MEDIAN(cost)", "psi"),
     Q.psi("disease").median("cost"),
     lambda s: s.psi_median("disease", "cost")),
]

CASE_IDS = [case[0] for case in CASES]
#: CASES before this index are batchable (one fused-sweep unit each).
BATCHABLE_CASES = CASE_IDS.index("psi_max")


class TestLowering:
    """Every form of one query lowers to the same LogicalPlan."""

    @pytest.mark.parametrize("name,sql,builder,method", CASES,
                             ids=CASE_IDS)
    def test_sql_and_builder_lower_identically(self, name, sql, builder,
                                               method):
        assert parse_sql(sql) == builder.plan()

    @pytest.mark.parametrize("name,sql,builder,method", CASES,
                             ids=CASE_IDS)
    def test_method_form_lowers_identically(self, name, sql, builder,
                                            method, monkeypatch):
        system = build_hospitals()
        plans = []
        monkeypatch.setattr(system.executor, "execute",
                            lambda plan, **options: plans.append(plan))
        method(system)
        assert plans == [builder.plan()]

    @pytest.mark.parametrize("name,sql,builder,method",
                             CASES[:BATCHABLE_CASES],
                             ids=CASE_IDS[:BATCHABLE_CASES])
    def test_units_name_the_batch_kind(self, name, sql, builder, method):
        (unit,) = parse_sql(sql).units()
        assert unit.kind == name.removesuffix("_verify")

    @pytest.mark.parametrize("query", [
        {"set_op": "psi", "attribute": "disease"},
        {"kind": "psi_sum", "attribute": "disease",
         "agg_attributes": ("cost",)},
        ("psi", "disease"),
        42,
    ], ids=["ir-dict", "kind-dict", "tuple", "int"])
    def test_other_forms_rejected(self, query):
        with pytest.raises(QueryError, match="cannot interpret"):
            Planner().lower(query)

    def test_tables_are_metadata_only(self):
        with_tables = parse_sql(branches("disease", "psi"))
        assert with_tables.tables == ("h1", "h2", "h3")
        assert with_tables == LogicalPlan(set_op="psi", attribute="disease")


class TestEquivalence:
    """All forms return bit-identical results on identical deployments."""

    @pytest.mark.parametrize("name,sql,builder,method", CASES,
                             ids=CASE_IDS)
    def test_forms_bit_identical(self, name, sql, builder, method):
        results = [
            canonical(run_sql(build_hospitals(), sql)),
            canonical(PrismClient(build_hospitals()).execute(builder)),
            canonical(method(build_hospitals())),
        ]
        assert all(r == results[0] for r in results[1:])
        if name in CASE_IDS[:BATCHABLE_CASES]:
            # The unit alone is the plaintext answer.
            system = build_hospitals()
            plan = builder.plan()
            (unit,) = plan.units()
            out = run_alone(system, plan, unit)
            assert_matches_plaintext(out, system.relations, plan, unit)
            if unit.agg_attributes:  # per-unit shape: attribute-keyed
                out = out[unit.agg_attributes[0]]
            assert canonical(out) == results[0]


class TestBatchedKernelPath:
    """Single queries run through the fused batch kernels (acceptance)."""

    @pytest.mark.parametrize("run", [
        lambda s: s.psi("disease", verify=True),
        lambda s: s.psu("disease"),
        lambda s: s.psi_count("disease"),
        lambda s: s.psu_count("disease"),
        lambda s: s.psi_sum("disease", "cost"),
        lambda s: s.psi_average("disease", ["cost", "age"]),
        lambda s: s.psu_sum("disease", "cost"),
        lambda s: s.psu_average("disease", "age"),
    ], ids=["psi", "psu", "psi_count", "psu_count", "psi_sum",
            "psi_average", "psu_sum", "psu_average"])
    def test_system_methods_emit_batch_streams_only(self, run):
        system = build_hospitals()
        system.transport.reset()
        run(system)
        kinds = system.transport.stats.messages_by_kind
        assert kinds and all(is_batch_kind(kind) for kind in kinds)

    def test_batch_of_one_stream_shape(self):
        system = build_hospitals()
        system.transport.reset()
        system.psi("disease")
        stats = system.transport.stats
        # 2 servers broadcast one single-row matrix to 3 owners each.
        assert stats.messages_of_kind("batch:psi-output[1]") == 6
        assert stats.messages_of_kind("psi-output") == 0

    def test_sql_and_builder_take_the_same_path(self):
        system = build_hospitals()
        client = PrismClient(system)
        system.transport.reset()
        client.execute(branches("disease, SUM(cost)", "psi"))
        client.execute(Q.psi("disease").sum("cost"))
        kinds = system.transport.stats.messages_by_kind
        assert all(is_batch_kind(k) for k in kinds)


class TestVerifyCarriedEverywhere:
    """Regression: the legacy dispatch dropped verify for PSU and MAX/MIN."""

    def test_psu_sql_verify_is_honoured(self):
        result = run_sql(build_hospitals(),
                         branches("disease", "psu") + " VERIFY")
        assert result.verified

    def test_psu_query_plan_execute_carries_verify(self):
        plan = parse_sql(branches("disease", "psu") + " VERIFY")
        assert plan.verify
        assert build_hospitals().executor.execute(plan).verified

    def test_psu_sql_verify_detects_tampering(self):
        # Previously VERIFY on a UNION silently ran unverified, so a
        # tampering server went unnoticed; now it must raise.  (Same
        # adversary configuration as test_psu_verify's injected-
        # complement case, expressed through the SQL surface.)
        relations = [Relation("o0", {"k": [1, 2, 9]}),
                     Relation("o1", {"k": [2, 9, 17]})]
        system = PrismSystem.build(
            relations, Domain("k", list(range(1, 25))), "k",
            with_verification=True, seed=3,
            server_factories={
                0: lambda i, p: InjectFakeServer(i, p, cells=(0, 3))})
        with pytest.raises(VerificationError):
            run_sql(system, "SELECT k FROM a UNION SELECT k FROM b VERIFY")

    @pytest.mark.parametrize("fn", ["MAX", "MIN"])
    def test_extrema_lowering_carries_verify(self, fn):
        plan = parse_sql(branches(f"disease, {fn}(age)", "psi") + " VERIFY")
        assert plan.verify
        assert plan == getattr(Q.psi("disease"), fn.lower())("age") \
            .verify().plan()

    def test_extrema_sql_verify_executes(self):
        # The re-blinding consistency check runs and passes when honest.
        result = run_sql(build_hospitals(),
                         branches("disease, MAX(age)", "psi") + " VERIFY")
        assert result.per_value == {"Cancer": 8}

    def test_median_verify_rejected_loudly(self):
        with pytest.raises(QueryError):
            parse_sql(branches("disease, MEDIAN(cost)", "psi") + " VERIFY")

    def test_psu_count_verify_rejected_loudly(self):
        with pytest.raises(QueryError):
            parse_sql(branches("COUNT(disease)", "psu") + " VERIFY")

    def test_tampered_psi_detected_through_every_form(self):
        factories = {0: lambda i, p: InjectFakeServer(i, p, cells=(0,))}
        sql = branches("disease", "psi") + " VERIFY"
        with pytest.raises(VerificationError):
            run_sql(build_hospitals(server_factories=factories), sql)
        with pytest.raises(VerificationError):
            PrismClient(build_hospitals(server_factories=factories)) \
                .execute(Q.psi("disease").verify())
        with pytest.raises(VerificationError):
            build_hospitals(server_factories=factories) \
                .psi("disease", verify=True)


class TestMultiAggregate:
    """SELECT disease, SUM(cost), AVG(age) ... (Table 12 projections)."""

    SQL = branches("disease, SUM(cost), AVG(age)", "psi")

    def test_multi_aggregate_results_match_singles(self):
        combined = run_sql(build_hospitals(), self.SQL)
        assert set(combined) == {"SUM(cost)", "AVG(age)"}
        reference = build_hospitals()
        assert combined["SUM(cost)"].per_value == \
            reference.psi_sum("disease", "cost")["cost"].per_value
        assert combined["AVG(age)"].per_value == \
            reference.psi_average("disease", "age")["age"].per_value

    def test_builder_mixes_sweep_and_interactive_units(self):
        result = PrismClient(build_hospitals()).execute(
            Q.psi("disease").sum("cost").max("age"))
        assert result["SUM(cost)"].per_value == {"Cancer": 1400}
        assert result["MAX(age)"].per_value == {"Cancer": 8}

    def test_multi_attribute_sum_stays_attribute_keyed(self):
        out = build_hospitals().psi_sum("disease", ["cost", "age"])
        assert set(out) == {"cost", "age"}
        assert out["cost"].per_value == {"Cancer": 1400}


class TestExplain:
    def test_explain_prefix_returns_description(self):
        system = build_hospitals()
        system.transport.reset()
        text = run_sql(system, "EXPLAIN " + branches("disease", "psi"))
        assert isinstance(text, str)
        assert "PSI" in text and "3 owners" in text
        assert system.transport.stats.total_messages == 0  # nothing ran

    def test_explain_of_unroutable_plan_raises_query_error(self):
        # EXPLAIN resolves routes through the same dispatch table, so a
        # PSU extrema plan fails with QueryError, not a raw KeyError.
        with pytest.raises(QueryError):
            run_sql(build_hospitals(),
                    "EXPLAIN " + branches("disease, MAX(age)", "psu"))

    def test_explain_names_the_route(self):
        client = PrismClient(build_hospitals())
        assert "fused batch kernel" in client.explain(Q.psi("disease"))
        assert "interactive runner" in \
            client.explain(Q.psi("disease").max("age"))

    def test_explain_reports_batch_plan_savings(self):
        """EXPLAIN surfaces QueryBatch.plan() stats without executing."""
        system = build_hospitals()
        client = PrismClient(system)
        system.transport.reset()
        # SUM + AVG over one attribute share a single Eq. 3 sweep row.
        text = client.explain(Q.psi("disease").sum("cost").avg("age"))
        assert "1 fused rows for 2 requested" in text
        assert "1 rows_deduplicated" in text
        assert "2 fused indicator sweeps" in text
        assert system.transport.stats.total_messages == 0  # nothing ran

    def test_explain_of_interactive_plan_has_no_batch_stats(self):
        client = PrismClient(build_hospitals())
        text = client.explain(Q.psi("disease").max("age"))
        assert "batch plan" not in text

    def test_describe_matches_plan(self):
        sql = branches("disease, SUM(cost)", "psi") + " VERIFY"
        text = parse_sql(sql).describe()
        assert "Sum(cost)" in text and "verification" in text


class TestExecutorDispatch:
    def test_extrema_over_psu_fails_at_execute_not_parse(self):
        plan = parse_sql(branches("disease, MAX(age)", "psu"))
        with pytest.raises(QueryError):
            PrismClient(build_hospitals()).execute(plan)

    def test_owner_subsets_rejected_for_interactive_kinds(self):
        with pytest.raises(QueryError):
            PrismClient(build_hospitals()).execute(
                Q.psi("disease").max("age").owners([0, 1]))

    def test_owner_subsets_batched(self):
        system = build_hospitals()
        result = PrismClient(system).execute(
            Q.psi("disease").owners([0, 2]))
        reference = build_hospitals().psi("disease", owner_ids=[0, 2])
        assert canonical(result) == canonical(reference)

    def test_bucketized_route(self):
        system = build_hospitals()
        system.outsource_bucketized("disease", fanout=2)
        result, stats = PrismClient(system).execute(
            Q.psi("disease").bucketized())
        assert result.values == ["Cancer"]
        assert stats["rounds"] >= 1

    def test_execute_many_fuses_batchable_units(self):
        system = build_hospitals()
        client = PrismClient(system)
        results = client.execute_many([
            Q.psi("disease").verify(),
            branches("COUNT(disease)", "psu"),
            LogicalPlan(set_op="psi", attribute="disease",
                        aggregates=(("SUM", "cost"),)),
            Q.psi("disease").median("cost"),
        ])
        assert results[0].values == ["Cancer"]
        assert results[1].count == 3
        assert results[2].per_value == {"Cancer": 1400}
        assert results[3].per_value == {"Cancer": 300}

    @pytest.mark.parametrize("field,value", [
        ("querier", -1), ("querier", 3), ("owner_ids", ()),
        ("owner_ids", (0, 3)),
    ], ids=["querier=-1", "querier=m", "owner_ids=()", "owner_ids=(0,m)"])
    @pytest.mark.parametrize("aggregates", [(), (("SUM", "cost"),),
                                            (("MAX", "age"),)],
                             ids=["psi", "sum", "max"])
    def test_owner_indices_checked_before_any_message(self, field, value,
                                                      aggregates):
        """An owner index outside [0, m) fails typed, before any round."""
        system = build_hospitals()
        plan = LogicalPlan(set_op="psi", attribute="disease",
                           aggregates=aggregates, **{field: value})
        nonce = system._nonce
        system.transport.reset()
        with pytest.raises(QueryError, match=re.escape(repr(value))):
            system.executor.execute(plan)
        assert system.transport.stats.total_messages == 0
        assert system._nonce == nonce

    def test_runner_options_rejected_for_fully_batched_plans(self):
        with pytest.raises(QueryError):
            build_hospitals().executor.execute(Q.psi("disease"),
                                               common_values=["Cancer"])


class TestClientSession:
    def test_stats_accumulate(self):
        client = PrismClient(build_hospitals())
        client.execute(Q.psi("disease"))
        client.execute(Q.psi("disease").sum("cost").avg("age"))
        client.execute(Q.psi("disease").max("age"))
        client.explain(Q.psu("disease"))
        stats = client.stats
        assert stats["queries"] == 3
        assert stats["explains"] == 1
        assert stats["by_kind"]["psi"] == 1
        assert stats["by_kind"]["psi_sum"] == 1
        assert stats["by_kind"]["psi_max"] == 1
        assert stats["batched_units"] == 3
        assert stats["interactive_units"] == 1
        assert stats["traffic"]["messages"] > 0
        assert stats["traffic"]["bytes"] > 0

    def test_connect_builds_and_outsources(self):
        relations = [Relation(f"o{i}", {"A": values})
                     for i, values in enumerate([[1, 2], [2, 3]])]
        client = PrismClient.connect(relations, Domain("A", [1, 2, 3]), "A")
        assert client.execute(Q.psi("A")).values == [2]

    def test_failed_query_not_counted(self):
        client = PrismClient(build_hospitals(server_factories={
            0: lambda i, p: InjectFakeServer(i, p, cells=(0,))}))
        with pytest.raises(VerificationError):
            client.execute(Q.psi("disease").verify())
        assert client.stats["queries"] == 0
        assert client.stats["traffic"]["messages"] > 0  # traffic still paid


class TestSystemLifetime:
    def test_closed_system_is_freed_without_a_collection(self):
        import gc
        import weakref

        enabled = gc.isenabled()
        gc.disable()
        try:
            system = build_hospitals()
            system.psi("disease")  # builds the executor
            system.close()
            ref = weakref.ref(system)
            del system
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_closed_local_system_rebuilds_its_executor(self):
        system = build_hospitals()
        first = system.psi("disease").values
        system.close()
        assert system.psi("disease").values == first
        system.close()


class TestPlanValidation:
    def test_unknown_set_op(self):
        with pytest.raises(QueryError):
            LogicalPlan(set_op="xor", attribute="A")

    def test_count_must_target_set_attribute(self):
        with pytest.raises(QueryError):
            LogicalPlan(set_op="psi", attribute="disease",
                        aggregates=(("COUNT", "cost"),))

    def test_count_normalised(self):
        plan = LogicalPlan(set_op="psi", attribute="disease",
                           aggregates=(("COUNT", "disease"),))
        assert plan.aggregates == (("COUNT", None),)
        assert plan == Q.psi("disease").count().plan()

    def test_duplicate_aggregates_fuse(self):
        plan = Q.psi("disease").sum("cost").sum("cost").plan()
        assert plan.aggregates == (("SUM", "cost"),)

    def test_bucketized_takes_no_aggregates(self):
        with pytest.raises(QueryError):
            Q.psi("disease").sum("cost").bucketized().plan()

    def test_plan_is_frozen(self):
        plan = Q.psi("disease").plan()
        with pytest.raises(Exception):
            plan.set_op = "psu"

    def test_units_fuse_sums_and_avgs(self):
        plan = Q.psi("disease").sum("cost", "age").avg("age").count().plan()
        kinds = [unit.kind for unit in plan.units()]
        assert kinds == ["psi_sum", "psi_average", "psi_count"]
        assert plan.units()[0].agg_attributes == ("cost", "age")

    def test_membership_identical_across_forms(self):
        a = run_sql(build_hospitals(), branches("disease", "psi"))
        b = build_hospitals().psi("disease")
        assert np.array_equal(a.membership, b.membership)
