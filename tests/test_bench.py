import csv

import pytest

from matpub.bench import (
    BenchError,
    CSV_HEADER,
    SweepConfig,
    disclosure_ratio,
    emit_csv,
    emit_gnuplot,
    linear_fit,
    run_sweep,
)
from matpub.catalog import count_variations
from matpub.heuristics import (
    ClassificationPolicy,
    HeuristicPolicies,
    abstraction,
    full_materialization,
    selective_instance_materialization,
    classify_dimensions,
    specialization,
)

from conftest import eval_hotel_n


def sweep(n_values, heuristics, catalog=None, serve=False, repetitions=0,
          policies=None):
    catalog = catalog or eval_hotel_n(max(n_values))
    config = SweepConfig(n_values=n_values, heuristics=heuristics,
                         repetitions=repetitions, serve=serve)
    return run_sweep(catalog, config, policies or HeuristicPolicies())


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestDisclosureRatio:
    def test_full_discloses_everything(self, tshirt):
        assert disclosure_ratio(full_materialization(tshirt), tshirt) == 1.0

    def test_abstraction_discloses_nothing(self, eval_hotel):
        assert disclosure_ratio(abstraction(eval_hotel), eval_hotel) == 0.0

    def test_specialization_discloses_one(self, eval_hotel):
        ratio = disclosure_ratio(specialization(eval_hotel), eval_hotel)
        assert ratio == 1 / count_variations(eval_hotel)

    def test_selective_discloses_nothing_on_eval_hotel(self, eval_hotel):
        cls = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=5))
        items = selective_instance_materialization(eval_hotel, cls)
        assert disclosure_ratio(items, eval_hotel) == 0.0

    def test_duplicates_counted_once(self, tshirt):
        items = full_materialization(tshirt)
        assert disclosure_ratio(items + items, tshirt) == 1.0


class TestRunSweep:
    def test_counts_follow_closed_forms(self):
        # n stays above the short/long classification threshold so the
        # selective fixed set is the three short dimensions throughout.
        records, warnings = sweep([6, 9], ["full", "type-level", "abstraction",
                                           "selective", "specialization"])
        assert warnings == []
        by_key = {(r.heuristic, r.n): r for r in records}
        for n in (6, 9):
            assert by_key[("full", n)].annotation_count == 2 * 2 * 2 * n * 30
            assert by_key[("type-level", n)].annotation_count == 2 + 2 + 2 + n + 30
            assert by_key[("abstraction", n)].annotation_count == 1
            assert by_key[("selective", n)].annotation_count == 8
            assert by_key[("specialization", n)].annotation_count == 1

    def test_cap_yields_capped_record_not_crash(self):
        records, warnings = sweep([3], ["full"],
                                  policies=HeuristicPolicies(hard_cap=100))
        assert len(records) == 1
        record = records[0]
        assert record.capped is True
        assert record.annotation_count == 2 * 2 * 2 * 3 * 30
        assert record.payload_bytes is None
        assert any("full" in w for w in warnings)

    def test_deterministic_nontiming_columns(self):
        a, _ = sweep([2, 3], ["selective", "type-level"])
        b, _ = sweep([2, 3], ["selective", "type-level"])
        key = lambda r: (r.heuristic, r.n, r.annotation_count, r.payload_bytes,
                         r.page_bytes, r.conformity, r.disclosure_ratio)
        assert sorted(map(key, a)) == sorted(map(key, b))

    def test_conformity_true_within_cap(self):
        records, _ = sweep([2], ["selective", "abstraction", "full"])
        assert all(r.conformity is True for r in records)

    def test_timings_present_when_repeated(self):
        records, warnings = sweep([2], ["abstraction"], serve=True, repetitions=3)
        record = records[0]
        assert record.gen_time_ms is not None
        assert record.gen_time_min_ms <= record.gen_time_ms <= record.gen_time_max_ms
        assert record.serve_time_ms is not None
        assert warnings == []

    def test_server_that_cannot_bind_is_a_warning(self):
        """192.0.2.1 (TEST-NET-1) is no address of this host."""
        config = SweepConfig(n_values=[2], heuristics=["abstraction"], repetitions=3,
                             host="192.0.2.1")
        records, warnings = run_sweep(eval_hotel_n(2), config, HeuristicPolicies())
        assert [r.serve_time_ms for r in records] == [None]
        assert "embedded server failed to start" in warnings[0]

    def test_empty_n_values_rejected(self, eval_hotel):
        with pytest.raises(BenchError):
            run_sweep(eval_hotel, SweepConfig(n_values=[]))

    def test_payload_grows_linearly_in_n_for_full(self):
        records, _ = sweep([1, 2, 4, 8], ["full"])
        xs = [r.n for r in records]
        ys = [r.payload_bytes for r in records]
        _, _, r2 = linear_fit(xs, ys)
        assert r2 > 0.999

    def test_payload_flat_for_selective_and_abstraction(self):
        records, _ = sweep([10, 50, 100], ["selective", "abstraction"])
        for heuristic in ("selective", "abstraction"):
            sizes = [r.payload_bytes for r in records if r.heuristic == heuristic]
            assert max(sizes) - min(sizes) <= 0.02 * min(sizes)


class TestCsv:
    def test_header_rows_and_sorting(self, tmp_path):
        records, _ = sweep([3, 2], ["type-level", "abstraction"])
        path = tmp_path / "out.csv"
        emit_csv(records, str(path))
        rows = read_csv(path)
        assert rows[0] == CSV_HEADER
        assert len(rows) == 1 + 4
        body = rows[1:]
        assert body == sorted(body, key=lambda r: (r[0], int(r[1])))
        for row in body:
            assert len(row) == len(CSV_HEADER)
            int(row[2]); int(row[3]); int(row[4])  # count and byte columns
            assert row[7] == "true"
            float(row[8])

    def test_capped_row_literal(self, tmp_path):
        records, _ = sweep([3], ["full"], policies=HeuristicPolicies(hard_cap=100))
        path = tmp_path / "capped.csv"
        emit_csv(records, str(path))
        row = read_csv(path)[1]
        assert row[2] == str(2 * 2 * 2 * 3 * 30)
        assert row[3] == row[4] == row[5] == row[6] == "capped"

    def test_extended_csv_has_min_max_columns(self, tmp_path):
        records, _ = sweep([2], ["abstraction"], serve=True, repetitions=3)
        path = tmp_path / "ext.csv"
        emit_csv(records, str(path), extended=True)
        rows = read_csv(path)
        assert rows[0][-4:] == ["gen_time_min_ms", "gen_time_max_ms",
                                "serve_time_min_ms", "serve_time_max_ms"]
        assert all(float(v) >= 0 for v in rows[1][-4:])

    def test_crlf_line_endings(self, tmp_path):
        records, _ = sweep([2], ["abstraction"])
        path = tmp_path / "eol.csv"
        emit_csv(records, str(path))
        assert b"\r\n" in path.read_bytes()

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(BenchError):
            emit_csv([], str(tmp_path / "x.csv"))

    def test_gnuplot_script_references_csv(self, tmp_path):
        records, _ = sweep([2], ["abstraction"])
        csv_path = tmp_path / "bench.csv"
        gp_path = tmp_path / "bench.gp"
        emit_csv(records, str(csv_path))
        emit_gnuplot(str(csv_path), str(gp_path))
        script = gp_path.read_text()
        assert str(csv_path) in script
        assert "logscale" in script


class TestLinearFit:
    def test_exact_line(self):
        slope, intercept, r2 = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_poor_fit_scores_low(self):
        _, _, r2 = linear_fit([1, 2, 3, 4, 5], [1, 9, 2, 8, 1])
        assert r2 < 0.5
