"""Tests for the SQL dialect (Table 4 statement shapes)."""

import pytest

from repro import LogicalPlan, PrismClient, QueryError, parse_sql


def execute(system, sql):
    return PrismClient(system).execute(sql)


PSI_SQL = ("SELECT disease FROM h1 INTERSECT SELECT disease FROM h2 "
           "INTERSECT SELECT disease FROM h3")
PSU_SQL = ("SELECT disease FROM h1 UNION SELECT disease FROM h2 "
           "UNION SELECT disease FROM h3")


class TestParsing:
    def test_psi(self):
        plan = parse_sql(PSI_SQL)
        assert plan.set_op == "psi"
        assert plan.attribute == "disease"
        assert plan.aggregates == ()
        assert plan.tables == ("h1", "h2", "h3")

    def test_psu(self):
        plan = parse_sql(PSU_SQL)
        assert plan.set_op == "psu"
        assert plan.aggregates == ()

    def test_count(self):
        plan = parse_sql(
            "SELECT COUNT(disease) FROM a INTERSECT SELECT COUNT(disease) FROM b")
        assert plan.aggregates == (("COUNT", None),)

    @pytest.mark.parametrize("fn", ["SUM", "AVG", "MAX", "MIN", "MEDIAN"])
    def test_aggregates(self, fn):
        sql = (f"SELECT disease, {fn}(cost) FROM a INTERSECT "
               f"SELECT disease, {fn}(cost) FROM b")
        plan = parse_sql(sql)
        assert plan.attribute == "disease"
        assert plan.aggregates == ((fn, "cost"),)

    def test_case_insensitive_keywords(self):
        plan = parse_sql("select disease from a intersect "
                           "select disease from b")
        assert plan.set_op == "psi"
        assert plan.attribute == "disease"

    def test_verify_suffix(self):
        plan = parse_sql(PSI_SQL + " VERIFY")
        assert plan.verify

    def test_trailing_semicolon(self):
        assert parse_sql(PSI_SQL + ";").set_op == "psi"

    def test_describe(self):
        assert "PSI" in parse_sql(PSI_SQL).describe()
        sql = ("SELECT disease, SUM(cost) FROM a INTERSECT "
               "SELECT disease, SUM(cost) FROM b VERIFY")
        description = parse_sql(sql).describe()
        assert "Sum" in description and "verification" in description


class TestParseErrors:
    def test_no_set_operator(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT a FROM t")

    def test_mixed_operators(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT a FROM x INTERSECT SELECT a FROM y "
                        "UNION SELECT a FROM z")

    def test_inconsistent_projection(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT a FROM x INTERSECT SELECT b FROM y")

    def test_malformed_branch(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT a WHERE x INTERSECT SELECT a FROM y")

    def test_lone_non_count_aggregate(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT SUM(a) FROM x INTERSECT SELECT SUM(a) FROM y")

    def test_median_over_union_rejected_at_execute(self, hospital_system):
        sql = ("SELECT disease, MEDIAN(cost) FROM a UNION "
               "SELECT disease, MEDIAN(cost) FROM b")
        plan = parse_sql(sql)
        with pytest.raises(QueryError):
            hospital_system.executor.execute(plan)

    def test_three_projection_items(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT a, b, SUM(c) FROM x INTERSECT "
                        "SELECT a, b, SUM(c) FROM y")


class TestExecution:
    def test_psi_matches_api(self, hospital_system):
        assert execute(hospital_system, PSI_SQL).values == ["Cancer"]

    def test_psu(self, hospital_system):
        assert sorted(execute(hospital_system, PSU_SQL).values) == [
            "Cancer", "Fever", "Heart"]

    def test_count(self, hospital_system):
        sql = ("SELECT COUNT(disease) FROM h1 INTERSECT "
               "SELECT COUNT(disease) FROM h2")
        assert execute(hospital_system, sql).count == 1

    def test_sum(self, hospital_system):
        sql = ("SELECT disease, SUM(cost) FROM h1 INTERSECT "
               "SELECT disease, SUM(cost) FROM h2")
        assert execute(hospital_system, sql).per_value == {"Cancer": 1400}

    def test_avg_over_union(self, hospital_system):
        sql = ("SELECT disease, AVG(cost) FROM h1 UNION "
               "SELECT disease, AVG(cost) FROM h2")
        result = execute(hospital_system, sql)
        assert result.per_value["Fever"] == pytest.approx(60.0)

    def test_max(self, hospital_system):
        sql = ("SELECT disease, MAX(age) FROM h1 INTERSECT "
               "SELECT disease, MAX(age) FROM h2")
        assert execute(hospital_system, sql).per_value == {"Cancer": 8}

    def test_median(self, hospital_system):
        sql = ("SELECT disease, MEDIAN(cost) FROM h1 INTERSECT "
               "SELECT disease, MEDIAN(cost) FROM h2")
        assert execute(hospital_system, sql).per_value == {"Cancer": 300}

    def test_verified_psi(self, hospital_system):
        assert execute(hospital_system, PSI_SQL + " VERIFY").verified

    def test_plan_is_frozen(self):
        plan = parse_sql(PSI_SQL)
        with pytest.raises(Exception):
            plan.set_op = "psu"
        assert isinstance(plan, LogicalPlan)


class TestDialectExtensions:
    """Multi-aggregate projections (Table 12) and the EXPLAIN prefix."""

    MULTI_SQL = ("SELECT disease, SUM(cost), AVG(age) FROM h1 INTERSECT "
                 "SELECT disease, SUM(cost), AVG(age) FROM h2 INTERSECT "
                 "SELECT disease, SUM(cost), AVG(age) FROM h3")

    def test_multi_aggregate_executes(self, hospital_system):
        out = execute(hospital_system, self.MULTI_SQL)
        assert set(out) == {"SUM(cost)", "AVG(age)"}
        assert out["SUM(cost)"].per_value == {"Cancer": 1400}
        assert out["AVG(age)"].per_value == {"Cancer": pytest.approx(6.0)}

    def test_multi_aggregate_branch_consistency_still_enforced(self):
        with pytest.raises(QueryError):
            parse_sql("SELECT a, SUM(b), AVG(c) FROM x INTERSECT "
                        "SELECT a, SUM(b) FROM y")

    def test_explain_returns_description_without_executing(
            self, hospital_system):
        hospital_system.transport.reset()
        text = execute(hospital_system, "EXPLAIN " + PSI_SQL)
        assert isinstance(text, str) and "PSI" in text
        assert hospital_system.transport.stats.total_messages == 0

    def test_explain_is_case_insensitive(self, hospital_system):
        text = execute(hospital_system, "explain " + PSU_SQL)
        assert "PSU" in text

    def test_verify_carried_for_psu(self, hospital_system):
        # Regression: an earlier dispatch dropped VERIFY on UNION.
        assert execute(hospital_system, PSU_SQL + " VERIFY").verified

    def test_verify_carried_for_extrema(self):
        sql = ("SELECT disease, MAX(age) FROM h1 INTERSECT "
               "SELECT disease, MAX(age) FROM h2 VERIFY")
        assert parse_sql(sql).verify
