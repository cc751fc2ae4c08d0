"""Acceptance suite: one test per acceptance criterion, each printing a single
pass/fail line to the real stdout so the verdicts survive pytest's capture.

The criteria pin the published reference numbers (variation counts, sweep
endpoints, size brackets), the behavioral properties that replace
hardware-bound timings (shape and ordering), and the systemic guarantees
(oracle equivalence, round-trip resolution, concurrency, conformity,
determinism)."""
import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from random import Random

import pytest
import requests

from matpub.annotate import ConformityScanner, elevate, render_page_stream, serialize
from matpub.bench import SweepConfig, disclosure_ratio, emit_csv, linear_fit, run_sweep
from matpub.catalog import (
    Inventory,
    canonical_id_for,
    count_variations,
    enumerate_variations,
    load_catalog,
)
from matpub.cli import main as cli_main
from matpub.consumer import hit_ratio_experiment
from matpub.heuristics import (
    HEURISTIC_NAMES,
    ClassificationPolicy,
    HeuristicPolicies,
    abstraction,
    classify_dimensions,
    full_materialization,
    publication_items,
    selective_instance_materialization,
    specialization,
    type_level_materialization,
)

from conftest import (
    ACCEPTANCE_LINES,
    EVAL_HOTEL_PATH,
    eval_hotel_n,
    live_server,
    make_catalog,
    oracle_price,
    oracle_variations,
    oracle_search,
)

SWEEP_N = (1, 183, 365, 730, 1825)
POLICIES = HeuristicPolicies(hard_cap=10 ** 6)


def report(number: int, slug: str, ok: bool, detail: str):
    line = f"[ACCEPTANCE {number}] {slug}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    ACCEPTANCE_LINES.append(line)  # re-emitted by the terminal-summary hook
    assert ok, line


@pytest.fixture(scope="module")
def sweep_records():
    """Count/byte sweep over the flexible dimension, all heuristics; no
    timing, no serving (those are measured separately at n = 365)."""
    catalog = load_catalog(EVAL_HOTEL_PATH)
    config = SweepConfig(n_values=SWEEP_N, heuristics=HEURISTIC_NAMES,
                         repetitions=0, serve=False, conformity_item_cap=0)
    records, warnings = run_sweep(catalog, config, POLICIES)
    assert warnings == []
    return {(r.heuristic, r.n): r for r in records}


def test_01_count_reproduction(eval_hotel, tshirt, small_hotel):
    start = time.perf_counter()
    counts = {
        "selective": len(selective_instance_materialization(
            eval_hotel, classify_dimensions(eval_hotel,
                                            ClassificationPolicy(length_threshold=5)))),
        "abstraction": len(abstraction(eval_hotel)),
        "specialization": len(specialization(eval_hotel)),
        "type-level": len(type_level_materialization(eval_hotel)),
        "small-hotel": count_variations(small_hotel),
        "tshirt-full": len(full_materialization(tshirt)),
        "tshirt-type-level": len(type_level_materialization(tshirt)),
    }
    fast = time.perf_counter() - start
    full_count = sum(1 for _ in enumerate_variations(eval_hotel))
    total = time.perf_counter() - start
    expected = {"selective": 8, "abstraction": 1, "specialization": 1,
                "type-level": 401, "small-hotel": 1000, "tshirt-full": 27,
                "tshirt-type-level": 9}
    ok = counts == expected and full_count == 87600 and fast < 1.0 and total < 60.0
    report(1, "count-reproduction", ok,
           f"full=87600? {full_count == 87600}; others {counts}; "
           f"{fast * 1000:.0f} ms excl. full, {total:.1f} s incl.")


def test_02_sweep_reproduction(sweep_records):
    got = {n: sweep_records[("full", n)].annotation_count for n in SWEEP_N}
    ok = all(got[n] == 240 * n for n in SWEEP_N) \
        and got[1] == 240 and got[1825] == 438_000
    report(2, "sweep-reproduction", ok,
           f"full counts {got} vs 240*n, endpoints 240 and 438000")


def test_03_size_model(sweep_records):
    record = sweep_records[("full", 365)]
    mean = record.payload_bytes / record.annotation_count
    linear = abs(record.payload_bytes - record.annotation_count * mean) \
        <= 0.01 * record.payload_bytes
    fifty_mb = record.payload_bytes > 50 * 10 ** 6
    ok = 300 <= mean <= 1000 and linear
    report(3, "size-model", ok,
           f"mean {mean:.1f} B in [300, 1000]; payload {record.payload_bytes} B "
           f"= count x mean +-1%; 50 MB figure bracketed: {fifty_mb}")


def test_04_shape_reproduction(sweep_records):
    full_r2 = linear_fit(SWEEP_N, [sweep_records[("full", n)].payload_bytes
                                   for n in SWEEP_N])[2]
    type_r2 = linear_fit(SWEEP_N, [sweep_records[("type-level", n)].payload_bytes
                                   for n in SWEEP_N])[2]
    flat_ok = {}
    for heuristic in ("abstraction", "specialization", "selective"):
        sizes = [sweep_records[(heuristic, n)].payload_bytes for n in SWEEP_N]
        flat_ok[heuristic] = (max(sizes) - min(sizes)) <= 0.02 * min(sizes)

    catalog = load_catalog(EVAL_HOTEL_PATH)
    config = SweepConfig(n_values=[365], heuristics=HEURISTIC_NAMES,
                         repetitions=3, serve=True, conformity_item_cap=0)
    timed, warnings = run_sweep(catalog, config, POLICIES)
    serve = {r.heuristic: r.serve_time_ms for r in timed}
    ratios = {h: serve["full"] / serve[h] for h in HEURISTIC_NAMES if h != "full"}
    ok = (full_r2 > 0.999 and type_r2 > 0.999 and all(flat_ok.values())
          and all(v >= 10 for v in ratios.values()) and not warnings)
    report(4, "shape-reproduction", ok,
           f"R2 full {full_r2:.6f}, type-level {type_r2:.6f}; flat<=2% {flat_ok}; "
           f"serve speedups vs full at n=365 "
           f"{ {h: round(v, 1) for h, v in ratios.items()} }")


def random_catalog(rng):
    n_dims = rng.randint(1, 6)
    dims = []
    product = 1
    for i in range(n_dims):
        length = rng.randint(1, 12)
        if product * length > 10_000:
            length = max(1, 10_000 // product)
        product *= length
        if rng.random() < 0.5:
            dims.append((f"d{i}", "categorical", [f"v{j}" for j in range(length)]))
        else:
            dims.append((f"d{i}", "ordinal", list(range(1, length + 1))))
    modifiers = {}
    for name, _, values in dims:
        if rng.random() < 0.5:
            modifiers[(name, rng.choice(values))] = f"{rng.randint(1, 60)}.00"
    return make_catalog(dims, modifiers=modifiers, seed=rng.randrange(2 ** 32),
                        rate=rng.choice([1.0, 0.8, 0.5]))


def paged_search(base, constraints):
    collected = []
    page = 1
    while True:
        params = dict(constraints, page=page, per_page=200)
        doc = requests.get(f"{base}/api/search", params=params, timeout=60).json()
        collected.extend(o["canonical_id"] for o in doc["offers"])
        if page * 200 >= doc["total_count"]:
            return collected, doc["total_count"]
        page += 1


def test_05_oracle_equivalence():
    start = time.perf_counter()
    rng = Random(2026)
    checked = 0
    for _ in range(50):
        catalog = random_catalog(rng)
        names = [d.name for d in catalog.dimensions]
        assignments = oracle_variations(catalog)
        prices = [(a, oracle_price(catalog, a)) for a in assignments]
        with live_server(catalog) as service:
            snapshot = service.snapshot()
            constraint_sets = [{}]
            for _ in range(2):
                picked = rng.sample(catalog.dimensions,
                                    rng.randint(1, len(catalog.dimensions)))
                constraint_sets.append({d.name: rng.choice(d.values) for d in picked})
            for constraints in constraint_sets:
                expected = oracle_search(catalog, snapshot, constraints)
                got, total = paged_search(
                    service.endpoint_base,
                    {k: str(v) for k, v in constraints.items()})
                assert got == expected and total == len(expected), \
                    f"search mismatch for {constraints}"

        def bounds(fixed):
            fit = [p for a, p in prices
                   if all(a[k] == v for k, v in fixed.items())]
            return min(fit), max(fit)

        cls = classify_dimensions(catalog, ClassificationPolicy(length_threshold=4))
        type_items = type_level_materialization(catalog)
        selective_items = selective_instance_materialization(catalog, cls)
        for item in (abstraction(catalog)
                     + rng.sample(type_items, min(8, len(type_items)))
                     + selective_items[:8]):
            if item.price_range is not None:
                assert item.price_range == bounds(item.fixed), \
                    f"price range mismatch on {item.fixed}"

        # completeness of cover, checked against independent projections
        all_ids = {canonical_id_for(names, a) for a in assignments}
        full_ids = {canonical_id_for(names, i.fixed)
                    for i in full_materialization(catalog)}
        assert full_ids == all_ids
        covered_pairs = {(d, v) for i in type_items for d, v in i.fixed.items()}
        assert covered_pairs == {(d.name, v) for d in catalog.dimensions
                                 for v in d.values}
        short = set(cls.short)
        projections = {tuple(sorted((k, v) for k, v in a.items() if k in short))
                       for a in assignments}
        assert {tuple(sorted(i.fixed.items()))
                for i in selective_items} == projections
        checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 50 and elapsed < 300
    report(5, "oracle-equivalence", ok,
           f"{checked}/50 randomized catalogs, {elapsed:.1f} s")


def test_06_round_trip_resolution():
    start = time.perf_counter()
    results = {}
    for heuristic in HEURISTIC_NAMES:
        catalog = eval_hotel_n(365)
        with live_server(catalog, POLICIES) as service:
            summary = hit_ratio_experiment(
                f"{service.endpoint_base}/page/{heuristic}", catalog,
                n_queries=200, seed=0, book=True)
        results[heuristic] = (summary["booked"], summary["dead_end_rate"])
    dead_rates = {}
    for heuristic in HEURISTIC_NAMES:
        catalog = eval_hotel_n(365)
        catalog.base_availability_rate = 0.8
        with live_server(catalog, POLICIES) as service:
            summary = hit_ratio_experiment(
                f"{service.endpoint_base}/page/{heuristic}", catalog,
                n_queries=200, seed=0)
        dead_rates[heuristic] = summary["dead_end_rate"]
    elapsed = time.perf_counter() - start
    # 99% binomial CI around p = 0.2 with n = 200: 0.2 +- 2.576*sqrt(0.16/200)
    ci = (0.2 - 2.576 * (0.2 * 0.8 / 200) ** 0.5,
          0.2 + 2.576 * (0.2 * 0.8 / 200) ** 0.5)
    ok = (all(results[h] == (200, 0.0) for h in HEURISTIC_NAMES)
          and all(ci[0] <= dead_rates[h] <= ci[1] for h in HEURISTIC_NAMES)
          and elapsed < 120)
    report(6, "round-trip-resolution", ok,
           f"rate 1.0: booked/dead {results}; rate 0.8 dead rates {dead_rates} "
           f"within CI [{ci[0]:.3f}, {ci[1]:.3f}]; {elapsed:.1f} s")


def test_07_concurrency():
    catalog = eval_hotel_n(365)
    with live_server(catalog) as service:
        base = service.endpoint_base
        cid = next(enumerate_variations(catalog)).canonical_id
        with ThreadPoolExecutor(max_workers=32) as pool:
            outcomes = list(pool.map(
                lambda _: requests.post(f"{base}/api/book",
                                        json={"canonical_id": cid},
                                        timeout=30).json()["status"],
                range(100)))
        confirmed = outcomes.count("confirmed")

        cids = [v.canonical_id for v in enumerate_variations(catalog, limit=600)]
        monotone = []

        def worker(tid):
            rng = Random(tid)
            observed = []
            for i in range(125):
                if i % 2:
                    r = requests.post(f"{base}/api/book",
                                      json={"canonical_id": rng.choice(cids)},
                                      timeout=30)
                else:
                    r = requests.get(f"{base}/api/search",
                                     params={"occupancy": "single", "per_page": 1},
                                     timeout=30)
                observed.append(int(r.headers["X-Inventory-Epoch"]))
            monotone.append(observed == sorted(observed))

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(8)))
        final_epoch = service.snapshot().epoch
        booked_total = len(service.snapshot().overrides)
    ok = confirmed == 1 and all(monotone) and len(monotone) == 8 \
        and final_epoch == booked_total
    report(7, "concurrency", ok,
           f"{confirmed}/100 concurrent bookings confirmed; epochs "
           f"non-decreasing in all 8 threads over 1000 requests; final epoch "
           f"{final_epoch} == bookings {booked_total}")


def test_08_conformity_and_disclosure(eval_hotel):
    base = "http://127.0.0.1:8321"
    snapshot = Inventory.initial(eval_hotel)
    conform = {}
    for heuristic in HEURISTIC_NAMES:
        scanner = ConformityScanner()

        def annotations():
            for item in publication_items(eval_hotel, heuristic, snapshot, POLICIES):
                service = (elevate(item, base, eval_hotel)
                           if item.requires_elevation else None)
                yield serialize(item, service, eval_hotel)

        render_page_stream(annotations(), eval_hotel,
                           lambda chunk: scanner.feed(chunk.decode("utf-8")))
        scanner.close()
        conform[heuristic] = scanner.report().conforms

    cls = classify_dimensions(eval_hotel, ClassificationPolicy(length_threshold=5))
    ratios = {
        "full": disclosure_ratio(full_materialization(eval_hotel, hard_cap=10 ** 6),
                                 eval_hotel),
        "specialization": disclosure_ratio(specialization(eval_hotel), eval_hotel),
        "abstraction": disclosure_ratio(abstraction(eval_hotel), eval_hotel),
        "type-level": disclosure_ratio(type_level_materialization(eval_hotel),
                                       eval_hotel),
        "selective": disclosure_ratio(
            selective_instance_materialization(eval_hotel, cls), eval_hotel),
    }
    expected = {"full": 1.0, "specialization": 1 / 87600, "abstraction": 0.0,
                "type-level": 0.0, "selective": 0.0}
    ok = all(conform.values()) and ratios == expected
    report(8, "conformity-and-disclosure", ok,
           f"conformity {conform}; disclosure {ratios} == {expected}")


def test_09_determinism(tmp_path):
    config_doc = {
        "catalog_path": str(EVAL_HOTEL_PATH),
        "server": {"host": "127.0.0.1", "port": 8321},
        "hard_cap": 1000000,
        "bench": {"n_values": [2, 3], "repetitions": 3,
                  "output_path": str(tmp_path / "bench.csv")},
    }
    catalog_doc = json.loads(EVAL_HOTEL_PATH.read_text())
    for dim in catalog_doc["dimensions"]:
        if dim["name"] == "arrival":
            dim["values"]["count"] = 10
    identical = True
    for seed in (42, 7):
        catalog_doc["inventory"]["seed"] = seed
        catalog_path = tmp_path / f"catalog-{seed}.json"
        catalog_path.write_text(json.dumps(catalog_doc))
        config_doc["catalog_path"] = str(catalog_path)
        config_path = tmp_path / f"config-{seed}.json"
        config_path.write_text(json.dumps(config_doc))
        for heuristic in HEURISTIC_NAMES:
            outs = []
            for run in ("a", "b"):
                out = tmp_path / f"{heuristic}-{seed}-{run}"
                code = cli_main(["generate", "--config", str(config_path),
                                 "--heuristic", heuristic, "--out-dir", str(out)])
                assert code == 0
                outs.append((out / "annotations.jsonl").read_bytes()
                            + (out / "page.html").read_bytes())
            identical &= outs[0] == outs[1]

    def stable_csv(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[5] = row[6] = "t"  # blank the timing columns
        return rows

    config_path = tmp_path / "config-42.json"
    csv_rows = []
    for run in ("a", "b"):
        out_csv = tmp_path / f"bench-{run}.csv"
        config_doc["catalog_path"] = str(tmp_path / "catalog-42.json")
        config_doc["bench"]["output_path"] = str(out_csv)
        rerun = tmp_path / f"bench-config-{run}.json"
        rerun.write_text(json.dumps(config_doc))
        assert cli_main(["bench", "--config", str(rerun)]) == 0
        csv_rows.append(stable_csv(out_csv))
    bench_identical = csv_rows[0] == csv_rows[1]
    ok = identical and bench_identical
    report(9, "determinism", ok,
           f"generate byte-identical across runs for all heuristics and two "
           f"seeds: {identical}; bench CSV identical modulo timing columns: "
           f"{bench_identical}")
