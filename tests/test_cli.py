import json
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest
import requests

from matpub.annotate import conformity_check
from matpub.cli import ConfigError, load_config, main

from conftest import live_server

REPO_ROOT = Path(__file__).resolve().parent.parent
CATALOG_SRC = REPO_ROOT / "data" / "eval_hotel.catalog.json"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    """Config + small catalog (arrival resized to 10) in a scratch directory."""
    monkeypatch.delenv("MATPUB_HOST", raising=False)
    monkeypatch.delenv("MATPUB_PORT", raising=False)
    catalog = json.loads(CATALOG_SRC.read_text())
    for dim in catalog["dimensions"]:
        if dim["name"] == "arrival":
            dim["values"]["count"] = 10
    (tmp_path / "catalog.json").write_text(json.dumps(catalog))
    config = {
        "catalog_path": "catalog.json",
        "server": {"host": "127.0.0.1", "port": 8321},
        "hard_cap": 1000000,
        "bench": {
            "n_values": [2, 3],
            "repetitions": 0,
            "output_path": str(tmp_path / "bench.csv"),
            "heuristics": ["abstraction", "type-level"],
        },
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def write_config(workdir, **overrides):
    doc = json.loads((workdir / "config.json").read_text())
    doc.update(overrides)
    path = workdir / "override.config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadConfig:
    def test_loads_and_resolves_relative_catalog(self, workdir):
        config = load_config(str(workdir / "config.json"))
        assert config.catalog_path == workdir / "catalog.json"
        assert config.endpoint_base == "http://127.0.0.1:8321"
        assert config.catalog().dimension("arrival").length == 10

    def test_hard_cap_is_read_from_the_top_level_only(self, workdir):
        path = write_config(workdir, hard_cap=100, policies={"hard_cap": 10 ** 6})
        assert load_config(path).policies.hard_cap == 100

    def test_env_overrides_address(self, workdir, monkeypatch):
        monkeypatch.setenv("MATPUB_HOST", "0.0.0.0")
        monkeypatch.setenv("MATPUB_PORT", "9001")
        config = load_config(str(workdir / "config.json"))
        assert (config.host, config.port) == ("0.0.0.0", 9001)

    def test_missing_catalog_rejected(self, workdir):
        path = write_config(workdir, catalog_path="nope.json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_heuristic_rejected(self, workdir):
        path = write_config(workdir, bench={"heuristics": ["teleport"]})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unreadable_config_is_exit_1(self, workdir):
        assert main(["serve", "--config", str(workdir / "absent.json")]) == 1

    @pytest.mark.parametrize("overrides, env", [
        ({"policies": {"classification": {"mode": "bogus"}}}, {}),
        ({"policies": {"classification": {"length_threshold": 0}}}, {}),
        ({"policies": {"classification": {"length_threshold": "x"}}}, {}),
        ({"policies": {"picker": {"mode": "bogus"}}}, {}),
        ({"policies": {"picker": {"seed": "x"}}}, {}),
        ({"policies": {"classification": {"mode": "budget", "byte_budget": 10}}}, {}),
        ({"hard_cap": "lots"}, {}),
        ({"server": {"port": "abc"}}, {}),
        ({}, {"MATPUB_PORT": "abc"}),
        ({"bench": {"n_values": ["x"]}}, {}),
        ({"bench": {"heuristics": 5}}, {}),
        ({"policies": []}, {}),
        ({"server": "x"}, {}),
        ({"policies": {"classification": [1]}}, {}),
        ({"server": {"port": True}}, {}),
        ({"server": {"port": 8321.9}}, {}),
        ({"hard_cap": True}, {}),
        ({"hard_cap": 1e6}, {}),
        ({"policies": {"picker": {"seed": 1.5}}}, {}),
        ({"bench": {"n_values": [False]}}, {}),
        ({}, {"MATPUB_PORT": " 8321"}),
        ({}, {"MATPUB_PORT": "+8321"}),
    ])
    def test_malformed_value_is_exit_1(self, workdir, monkeypatch, capsys, overrides, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        config = write_config(workdir, **overrides)
        assert main(["generate", "--config", config, "--heuristic", "abstraction",
                     "--out-dir", str(workdir / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err

    # Each command that reads the field, so a bad value never reaches
    # `socket.bind`, a file name or a catalog lookup.
    @pytest.mark.parametrize("command, overrides", [
        (["serve"], {"server": {"host": 5, "port": 0}}),
        (["bench"], {"bench": {"output_path": 5}}),
        (["bench"], {"bench": {"flexible_dimension": ["arrival"]}}),
    ], ids=["server.host", "bench.output_path", "bench.flexible_dimension"])
    def test_string_field_that_is_not_a_string_is_exit_1(self, workdir, capsys, command,
                                                         overrides):
        assert main([*command, "--config", write_config(workdir, **overrides)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert "not a string" in err[0]

    @pytest.mark.parametrize("overrides, env", [
        ({"server": {"host": "127.0.0.1", "port": 70000}}, {}),
        ({}, {"MATPUB_PORT": "-1"}),
    ])
    def test_port_outside_range_is_exit_1(self, workdir, monkeypatch, capsys, overrides, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(["serve", "--config", write_config(workdir, **overrides)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: "), err
        assert "0..65535" in err[0]

    def test_port_in_use_is_exit_1(self, workdir, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            config = write_config(workdir, server={"host": "127.0.0.1", "port": port})
            assert main(["serve", "--config", config]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"cannot bind 127.0.0.1:{port}: "), err


    def test_catalog_seed_that_is_not_an_integer_is_exit_1(self, workdir, capsys):
        """Refused when the config is loaded: the host is no local address,
        so a catalog that loaded would end in `cannot bind` instead."""
        catalog = json.loads((workdir / "catalog.json").read_text())
        catalog["inventory"]["seed"] = True
        (workdir / "catalog.json").write_text(json.dumps(catalog))
        config = write_config(workdir, server={"host": "192.0.2.1", "port": 0})
        assert main(["serve", "--config", config]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: invalid catalog"), err


class TestGenerate:
    def run(self, workdir, heuristic, config=None, out="out"):
        return main(["generate", "--config", config or str(workdir / "config.json"),
                     "--heuristic", heuristic, "--out-dir", str(workdir / out)])

    def test_selective_writes_eight_annotations(self, workdir, capsys):
        assert self.run(workdir, "selective") == 0
        lines = (workdir / "out" / "annotations.jsonl").read_bytes().splitlines()
        assert len(lines) == 8
        for line in lines:
            assert json.loads(line)["@type"] == "Product"
        summary = json.loads(capsys.readouterr().out)
        assert summary["count"] == 8
        assert summary["payload_bytes"] == sum(len(l) for l in lines)

    def test_page_conforms(self, workdir):
        assert self.run(workdir, "type-level") == 0
        page = (workdir / "out" / "page.html").read_bytes()
        assert conformity_check(page).conforms

    def test_abstraction_writes_one(self, workdir):
        assert self.run(workdir, "abstraction") == 0
        lines = (workdir / "out" / "annotations.jsonl").read_bytes().splitlines()
        assert len(lines) == 1

    def test_cap_exceeded_is_exit_2(self, workdir):
        config = write_config(workdir, hard_cap=100)
        assert self.run(workdir, "full", config=config) == 2

    def test_sold_out_specialization_is_exit_2(self, workdir, capsys):
        catalog = json.loads((workdir / "catalog.json").read_text())
        catalog["inventory"]["availability_rate"] = 0.0
        (workdir / "catalog.json").write_text(json.dumps(catalog))
        assert self.run(workdir, "specialization") == 2
        err = capsys.readouterr().err
        assert "no available variation" in err
        assert "Traceback" not in err

    def test_deterministic_output(self, workdir):
        self.run(workdir, "selective", out="a")
        self.run(workdir, "selective", out="b")
        assert (workdir / "a" / "annotations.jsonl").read_bytes() == \
            (workdir / "b" / "annotations.jsonl").read_bytes()
        assert (workdir / "a" / "page.html").read_bytes() == \
            (workdir / "b" / "page.html").read_bytes()


class TestCrawl:
    QUERY = ["type=normal", "catering=breakfast", "occupancy=single",
             "arrival=2026-01-02", "stay=3"]

    def test_single_trace(self, workdir, capsys):
        config = load_config(str(workdir / "config.json"))
        with live_server(config.catalog()) as service:
            code = main(["crawl", "--config", str(workdir / "config.json"),
                         "--page-url", f"{service.endpoint_base}/page/abstraction",
                         "--query"] + self.QUERY)
        assert code == 0
        trace = json.loads(capsys.readouterr().out)
        assert trace["outcome"] == "found_not_booked"
        assert trace["api_calls"] == 1

    def test_book_twice(self, workdir, capsys):
        config = load_config(str(workdir / "config.json"))
        with live_server(config.catalog()) as service:
            argv = ["crawl", "--config", str(workdir / "config.json"),
                    "--page-url", f"{service.endpoint_base}/page/selective",
                    "--book", "--query"] + self.QUERY
            assert main(argv) == 0
            first = json.loads(capsys.readouterr().out)
            assert main(argv) == 0
            second = json.loads(capsys.readouterr().out)
        assert first["outcome"] == "booked"
        assert second["outcome"] == "dead_end"

    @pytest.mark.parametrize("query", [
        ["type=normal"],
        ["bogus=1"] + QUERY,
        QUERY[:-1] + ["stay=x"],
        ["type=penthouse"] + QUERY[1:],
    ], ids=["incomplete", "unknown-dimension", "non-integer-ordinal", "unknown-value"])
    def test_incomplete_query_is_exit_1(self, workdir, capsys, query):
        config = load_config(str(workdir / "config.json"))
        with live_server(config.catalog()) as service:
            code = main(["crawl", "--config", str(workdir / "config.json"),
                         "--page-url", f"{service.endpoint_base}/page/full",
                         "--query"] + query)
        assert code == 1
        err = capsys.readouterr().err
        assert "config error:" in err
        assert "Traceback" not in err

    def test_experiment_summary(self, workdir, capsys):
        config = load_config(str(workdir / "config.json"))
        with live_server(config.catalog()) as service:
            code = main(["crawl", "--config", str(workdir / "config.json"),
                         "--page-url", f"{service.endpoint_base}/page/type-level",
                         "--experiment", "10", "--seed", "4"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_queries"] == 10
        assert summary["hit_ratio"] == 1.0

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_experiment_of_no_queries_is_exit_1(self, workdir, capsys, count):
        assert main(["crawl", "--config", str(workdir / "config.json"),
                     "--page-url", "http://127.0.0.1:1/page/full",
                     "--experiment", count]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err, err

    def test_unreachable_server_is_exit_3(self, workdir):
        code = main(["crawl", "--config", str(workdir / "config.json"),
                     "--page-url", "http://127.0.0.1:1/page/full",
                     "--query"] + self.QUERY)
        assert code == 3


class TestBench:
    def test_writes_csv_and_summary(self, workdir, capsys):
        assert main(["bench", "--config", str(workdir / "config.json")]) == 0
        rows = (workdir / "bench.csv").read_text().splitlines()
        assert rows[0].startswith("heuristic,n,annotation_count")
        assert len(rows) == 1 + 2 * 2  # two heuristics, two n values
        assert (workdir / "bench.extended.csv").exists()
        out = capsys.readouterr().out
        assert "abstraction" in out and "type-level" in out

    def test_gnuplot_flag(self, workdir):
        assert main(["bench", "--config", str(workdir / "config.json"),
                     "--gnuplot"]) == 0
        assert (workdir / "bench.gp").exists()

    # Refused when the config is loaded, before any sweep runs.
    @pytest.mark.parametrize("bench", [
        {"flexible_dimension": "nights"},
        {"n_values": [2, 0]},
        {"n_values": []},
        {"heuristics": []},
    ], ids=["unknown-flexible-dimension", "n-below-1", "no-n-values", "no-heuristics"])
    def test_bad_bench_value_is_exit_1(self, workdir, capsys, bench):
        defaults = json.loads((workdir / "config.json").read_text())["bench"]
        config = write_config(workdir, bench={**defaults, **bench})
        assert main(["bench", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "Traceback" not in err, err
        assert not (workdir / "bench.csv").exists()

    def test_output_directory_not_found_is_exit_1_before_the_sweep(self, workdir, capsys,
                                                                   monkeypatch):
        def sweep(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("matpub.bench.run_sweep", sweep)
        defaults = json.loads((workdir / "config.json").read_text())["bench"]
        missing = workdir / "missing"
        config = write_config(workdir, bench={**defaults,
                                              "output_path": str(missing / "bench.csv")})
        assert main(["bench", "--config", config]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: bench output_path directory not found: {str(missing)!r}\n"
        assert not missing.exists()

    # A write that fails after the sweep is one line on stderr.
    @pytest.mark.parametrize("blocked, message", [
        ("bench.csv", "cannot write CSV to "),
        ("bench.gp", "cannot write gnuplot script to "),
    ], ids=["csv", "gnuplot"])
    def test_failed_write_is_exit_1(self, workdir, capsys, blocked, message):
        (workdir / blocked).mkdir()  # a directory where the file should go
        assert main(["bench", "--config", str(workdir / "config.json"), "--gnuplot"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err
        assert "Traceback" not in err

    def test_capped_sweep_still_succeeds(self, workdir):
        config = write_config(
            workdir, hard_cap=100,
            bench={"n_values": [3], "repetitions": 0, "heuristics": ["full"],
                   "output_path": str(workdir / "capped.csv")})
        assert main(["bench", "--config", config]) == 0
        assert "capped" in (workdir / "capped.csv").read_text()


# A fresh interpreter with matpub on its path and the OS picking the port.
SUBPROCESS_ENV = {"MATPUB_PORT": "0", "PATH": "/usr/bin:/bin:/usr/local/bin",
                  "PYTHONPATH": str(REPO_ROOT / "src")}


class TestServeSubprocess:
    def test_serve_responds_and_shuts_down_cleanly(self, workdir):
        proc = subprocess.Popen(
            [sys.executable, "-m", "matpub.cli", "serve",
             "--config", str(workdir / "config.json")],
            stderr=subprocess.PIPE, text=True, env=SUBPROCESS_ENV)
        try:
            line = proc.stderr.readline()
            assert "serving on" in line
            base = line.split("serving on ")[1].split()[0]
            assert requests.get(f"{base}/page/abstraction", timeout=30).status_code == 200
            assert requests.get(f"{base}/page/bogus", timeout=30).status_code == 404
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=10)
        assert proc.returncode == 0


class TestServeImports:
    """Serving loads no HTTP client, and matpub loads no third-party one:
    `crawl` and `bench` speak HTTP through the standard library."""

    # Prints which of these modules the interpreter has loaded; the resolver
    # is listed to show that the check ran after matpub was imported.
    REPORT = ("import sys\n"
              "print(' '.join(m for m in ('requests', 'urllib3', 'matpub.consumer',"
              " 'matpub.bench', 'matpub.resolver') if m in sys.modules))\n")

    def test_importing_the_cli_loads_no_client(self):
        done = subprocess.run([sys.executable, "-c", "import matpub.cli\n" + self.REPORT],
                              capture_output=True, text=True, env=SUBPROCESS_ENV,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["matpub.resolver"]

    def test_importing_matpub_loads_no_html_parser(self):
        """`annotate.PageScanner` imports `html.parser` only for a page that
        holds markup its patterns do not read."""
        script = ("import sys\nimport matpub.cli, matpub.consumer, matpub.bench\n"
                  "print('html.parser' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=SUBPROCESS_ENV, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False"]

    def test_serving_loads_no_client(self, workdir):
        script = ("import sys\nfrom matpub.cli import main\n"
                  "code = main(['serve', '--config', sys.argv[1]])\n"
                  + self.REPORT + "sys.exit(code)\n")
        proc = subprocess.Popen([sys.executable, "-c", script, str(workdir / "config.json")],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=SUBPROCESS_ENV)
        try:
            line = proc.stderr.readline()
            assert "serving on" in line
            base = line.split("serving on ")[1].split()[0]
            assert requests.get(f"{base}/page/abstraction", timeout=30).status_code == 200
        finally:
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err
        assert out.split() == ["matpub.resolver"]

    def test_server_loads_no_stdlib_http_and_crawler_no_server(self, workdir):
        """Serving loads none of the standard library's HTTP modules, whose
        wire format `matpub.wire` owns, and the crawler loads no server."""
        script = ("import sys\nfrom matpub.cli import main\n"
                  "code = main(['serve', '--config', sys.argv[1]])\n"
                  "print(' '.join(m for m in ('http.server', 'socketserver', 'http.client',"
                  " 'email', 'matpub.resolver') if m in sys.modules))\n"
                  "sys.exit(code)\n")
        proc = subprocess.Popen([sys.executable, "-c", script, str(workdir / "config.json")],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=SUBPROCESS_ENV)
        try:
            line = proc.stderr.readline()
            assert "serving on" in line
            base = line.split("serving on ")[1].split()[0]
            assert requests.get(f"{base}/page/abstraction", timeout=30).status_code == 200
            assert requests.post(f"{base}/api/book", json={"canonical_id": "x"},
                                 timeout=30).status_code == 200
            assert requests.get(f"{base}/nope", timeout=30).status_code == 404
        finally:
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err
        assert out.split() == ["matpub.resolver"]
        done = subprocess.run([sys.executable, "-c", "import matpub.consumer\n" + self.REPORT],
                              capture_output=True, text=True, env=SUBPROCESS_ENV, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["matpub.consumer"]

    def test_crawler_and_bench_load_only_the_standard_library(self):
        script = ("import sys\nbefore = set(sys.modules)\n"
                  "import matpub.consumer, matpub.bench\n" + self.REPORT
                  + "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
                  " - set(sys.stdlib_module_names))))\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=SUBPROCESS_ENV, timeout=60)
        assert done.returncode == 0, done.stderr
        loaded, third_party = done.stdout.splitlines()
        assert loaded.split() == ["matpub.consumer", "matpub.bench", "matpub.resolver"]
        assert third_party.split() == ["matpub"]
