"""Tests for the command-line interface."""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.simulation import Scenario
from repro.topology import load_network


@pytest.fixture
def topology_file(tmp_path):
    path = tmp_path / "net.json"
    assert main(["topology", str(path), "--nodes", "20",
                 "--capacity", "15", "--seed", "4"]) == 0
    return path


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scen.json"
    assert main(["scenario", str(path), "--nodes", "20", "--rate", "0.05",
                 "--duration", "1200", "--seed", "4"]) == 0
    return path


class TestParser:
    def test_no_command_prints_help_and_exits_2(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "usage: repro" in err
        assert "campaign" in err  # full help, not just the usage line

    def test_version_reports_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert out.split()[1][0].isdigit()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "a", "b", "--scheme", "X"])


class TestTopologyCommand:
    def test_waxman_output_loadable(self, topology_file):
        net = load_network(topology_file)
        assert net.num_nodes == 20
        assert net.is_connected()
        assert all(l.capacity == 15 for l in net.links())

    def test_mesh_kind(self, tmp_path):
        path = tmp_path / "mesh.json"
        assert main(["topology", str(path), "--kind", "mesh",
                     "--rows", "3", "--cols", "3"]) == 0
        assert load_network(path).num_nodes == 9

    def test_ring_kind(self, tmp_path):
        path = tmp_path / "ring.json"
        assert main(["topology", str(path), "--kind", "ring",
                     "--nodes", "8"]) == 0
        net = load_network(path)
        assert all(net.degree(n) == 2 for n in net.nodes())

    def test_deterministic_by_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["topology", str(a), "--nodes", "15", "--seed", "9"])
        main(["topology", str(b), "--nodes", "15", "--seed", "9"])
        assert json.loads(a.read_text()) == json.loads(b.read_text())


class TestScenarioCommand:
    def test_output_loadable(self, scenario_file):
        scenario = Scenario.load(scenario_file)
        assert scenario.num_requests > 0
        assert scenario.metadata["pattern"] == "UT"

    def test_nt_pattern(self, tmp_path):
        path = tmp_path / "nt.json"
        main(["scenario", str(path), "--nodes", "30", "--rate", "0.05",
              "--duration", "600", "--pattern", "NT"])
        assert Scenario.load(path).metadata["pattern"] == "NT"


class TestReplayCommand:
    def test_replay_runs(self, topology_file, scenario_file, capsys):
        assert main(["replay", str(topology_file), str(scenario_file),
                     "--scheme", "D-LSR"]) == 0
        out = capsys.readouterr().out
        assert "fault tolerance P_act-bk" in out
        assert "acceptance ratio" in out

    def test_replay_no_backup(self, topology_file, scenario_file, capsys):
        assert main(["replay", str(topology_file), str(scenario_file),
                     "--scheme", "no-backup"]) == 0
        out = capsys.readouterr().out
        assert "no-backup" in out

    def test_replay_multi_backup(self, topology_file, scenario_file, capsys):
        assert main(["replay", str(topology_file), str(scenario_file),
                     "--scheme", "D-LSR", "--num-backups", "2"]) == 0
        assert "fault tolerance" in capsys.readouterr().out


class TestCampaignCommand:
    def test_run_then_status(self, tmp_path, capsys):
        campaign_dir = tmp_path / "camp"
        assert main(["campaign", "run", "--scale", "smoke",
                     "--degrees", "3", "--patterns", "UT",
                     "--lambdas", "0.4", "--dir", str(campaign_dir)]) == 0
        manifest = json.loads(
            (campaign_dir / "campaign_manifest.json").read_text()
        )
        assert manifest["status"] == "complete"
        assert manifest["cells_done"] == manifest["cells_total"] == 1
        capsys.readouterr()

        assert main(["campaign", "status", "--dir", str(campaign_dir),
                     "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["status"] == "complete"
        assert status["cells_done"] == 1

    def test_status_missing_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["campaign", "status", "--dir",
                     str(tmp_path / "nope")]) == 1
        assert "repro campaign:" in capsys.readouterr().err

    def test_resume_missing_dir_fails_cleanly(self, tmp_path, capsys):
        assert main(["campaign", "resume", "--dir",
                     str(tmp_path / "nope")]) == 1
        assert "repro campaign:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [[], ["--scale", "smoke"]])
    def test_campaign_requires_a_subcommand(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign"] + argv)
        assert excinfo.value.code == 2
        assert "run,resume,status" in capsys.readouterr().err


class TestAssessCommand:
    def test_link_sweep(self, topology_file, capsys):
        assert main(["assess", str(topology_file),
                     "--connections", "15"]) == 0
        out = capsys.readouterr().out
        assert "P_act-bk" in out

    def test_node_sweep(self, topology_file, capsys):
        """A connection is a recovery attempt once per transit switch of
        its primary: one fewer than the links of the link sweep.  A
        connection ending at a dead switch makes no attempt."""
        def attempts(*extra):
            assert main(["assess", str(topology_file),
                         "--connections", "15", *extra]) == 0
            out = capsys.readouterr().out
            assert "P_act-bk" in out
            established = int(re.search(r"(\d+) DR-connections", out)[1])
            return established, int(re.search(r"(\d+) recovery", out)[1])

        established, link_attempts = attempts()
        assert established == 15
        assert attempts("--nodes") == (15, link_attempts - established)


class TestArgumentValidation:
    """Non-positive rates/durations/windows must die in argparse with
    exit code 2 and a message naming the offending value, across every
    load-producing subcommand."""

    @pytest.mark.parametrize("argv", [
        ["scenario", "out.json", "--nodes", "20", "--rate", "0"],
        ["scenario", "out.json", "--nodes", "20", "--rate", "-1.5"],
        ["scenario", "out.json", "--nodes", "20", "--duration", "0"],
        ["scenario", "out.json", "--nodes", "20", "--hold-min", "-3"],
        ["scenario", "out.json", "--nodes", "20", "--bw", "0"],
        ["scenario", "out.json", "--nodes", "0"],
        ["scenario", "out.json", "--hot-fraction", "1.5"],
        ["loadtest", "sock", "--rate", "0"],
        ["loadtest", "sock", "--rate", "-2"],
        ["loadtest", "sock", "--duration", "0"],
        ["loadtest", "sock", "--hold-max", "0"],
        ["loadtest", "sock", "--max-inflight", "0"],
        ["soak", "--rate", "0"],
        ["soak", "--rate", "-1"],
        ["soak", "--admissions", "0"],
        ["soak", "--window", "-5"],
        ["soak", "--nodes", "-1"],
        ["soak", "--hold-min", "0"],
        ["soak", "--burst-factor", "0"],
        ["chaos", "net.json", "--rate", "0"],
        ["chaos", "net.json", "--duration", "-10"],
    ])
    def test_non_positive_load_args_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "positive" in err or "fraction" in err

    def test_valid_args_still_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["soak", "--rate", "2.5", "--admissions", "100",
             "--window", "10"]
        )
        assert args.rate == 2.5
        assert args.admissions == 100

    def test_soak_hot_count_must_leave_cold_nodes(self, capsys):
        assert main(["soak", "--nodes", "5", "--hot-count", "10",
                     "--admissions", "10"]) == 2
        assert "hot-count" in capsys.readouterr().err


class TestScenarioProductionWorkload:
    def test_production_scenario_round_trips(self, tmp_path):
        path = tmp_path / "prod.json"
        assert main(["scenario", str(path), "--nodes", "30",
                     "--workload", "production", "--rate", "0.5",
                     "--duration", "600", "--seed", "9",
                     "--hot-count", "4"]) == 0
        scenario = Scenario.load(path)
        assert scenario.metadata["workload"] == "production"
        assert scenario.metadata["hot_count"] == 4
        assert scenario.requests

    def test_production_scenario_rejects_hot_count_overflow(self, capsys):
        assert main(["scenario", "out.json", "--nodes", "5",
                     "--workload", "production",
                     "--hot-count", "10"]) == 2
        assert "hot-count" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The primary-only baseline admits without a backup in every command
# ----------------------------------------------------------------------
def _assess_accepts(tmp_path, capsys):
    net = tmp_path / "net.json"
    assert main(["topology", str(net), "--kind", "mesh"]) == 0
    assert main(["assess", str(net), "--scheme", "no-backup",
                 "--connections", "10"]) == 0
    out = capsys.readouterr().out
    return int(re.search(r"(\d+) DR-connections established", out)[1])


def _chaos_accepts(tmp_path, capsys):
    report = tmp_path / "chaos.json"
    assert main(["chaos", "--rows", "4", "--cols", "4", "--duration", "60",
                 "--scheme", "no-backup", "--log", "none",
                 "--report", str(report)]) == 0
    return json.loads(report.read_text())["accepted"]


def _serve_and_verify_accepts(tmp_path, capsys):
    """``repro serve`` under the baseline, driven by ``repro loadtest
    --verify``: the twin must decide like the server."""
    sock = tmp_path / "ctl.sock"
    manifest = tmp_path / "manifest.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", str(sock),
         "--rows", "4", "--cols", "4", "--scheme", "no-backup",
         "--manifest", str(manifest)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 20
        while not sock.exists():
            assert serve.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        assert main(["loadtest", "--socket", str(sock), "--rate", "20",
                     "--duration", "20", "--seed", "3", "--rows", "4",
                     "--cols", "4", "--scheme", "no-backup",
                     "--verify"]) == 0
        serve.send_signal(signal.SIGTERM)
        assert serve.wait(timeout=20) == 0
    finally:
        if serve.poll() is None:
            serve.kill()
            serve.wait()
    return json.loads(manifest.read_text())["service"]["accepted"]


@pytest.mark.parametrize(
    "accepts", [_assess_accepts, _serve_and_verify_accepts, _chaos_accepts],
    ids=["assess", "serve-loadtest-verify", "chaos"],
)
def test_no_backup_scheme_admits_without_a_backup(accepts, tmp_path, capsys):
    assert accepts(tmp_path, capsys) > 0


# ----------------------------------------------------------------------
# One builder: every service the commands run comes from build_service
# ----------------------------------------------------------------------
def _start_server(tmp_path, *serve_args):
    """``python -m repro.cli serve`` on a Unix socket; returns the
    process and the socket once it listens."""
    sock = tmp_path / "ctl.sock"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--socket", str(sock),
         *serve_args],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 20
    while not sock.exists():
        assert serve.poll() is None and time.monotonic() < deadline
        time.sleep(0.05)
    return serve, sock


class TestOneBuilder:
    """A harness rebinds ``repro.cli.DRTPService`` (as the end-to-end
    benchmark's traced server does) and sees every service a command
    builds, with the options that command asks for."""

    @pytest.fixture
    def built(self, monkeypatch):
        services = []

        class Recording(repro.cli.DRTPService):
            def __init__(self, *positional, **keyword):
                super().__init__(*positional, **keyword)
                services.append((self, keyword))

        monkeypatch.setattr(repro.cli, "DRTPService", Recording)
        return services

    def test_replay_trace_assess_soak(
        self, built, topology_file, scenario_file, tmp_path, capsys
    ):
        assert main(["replay", str(topology_file), str(scenario_file),
                     "--scheme", "BF", "--num-backups", "2"]) == 0
        assert main(["trace", str(topology_file), str(scenario_file),
                     "--scheme", "P-LSR", "--out",
                     str(tmp_path / "t.json")]) == 0
        assert main(["assess", str(topology_file),
                     "--connections", "5"]) == 0
        assert main(["soak", "--nodes", "20", "--admissions", "200",
                     "--window", "100", "--quiet"]) == 0
        capsys.readouterr()
        schemes = [service.scheme.name for service, _ in built]
        assert schemes == ["BF", "P-LSR", "D-LSR", "P-LSR"]
        assert built[0][0].scheme.num_backups == 2
        assert built[1][1]["trace"] is not None
        assert [service.network.num_nodes for service, _ in built] == [
            20, 20, 20, 20,
        ]

    def test_loadtest_verify_twin_takes_the_servers_database_mode(
        self, built, tmp_path, capsys
    ):
        serve, sock = _start_server(
            tmp_path, "--rows", "4", "--cols", "4", "--snapshot-db",
        )
        try:
            # A snapshot-routed server: the twin is built with
            # live_database=False, as the server's status reports.
            assert main(["loadtest", "--socket", str(sock), "--rate", "10",
                         "--duration", "5", "--seed", "3", "--rows", "4",
                         "--cols", "4", "--tolerance", "1",
                         "--verify"]) == 0
            serve.send_signal(signal.SIGTERM)
            assert serve.wait(timeout=20) == 0
        finally:
            if serve.poll() is None:
                serve.kill()
                serve.wait()
        capsys.readouterr()
        ((twin, keyword),) = built
        assert keyword["live_database"] is False
        assert twin.scheme.name == "P-LSR"
        assert twin.network.num_nodes == 16

    def test_one_construction_site(self):
        root = Path(repro.cli.__file__).parent
        calls = {
            path.name: path.read_text().count("DRTPService(")
            for path in root.glob("*.py")
        }
        assert sum(calls.values()) == 1 and calls["__init__.py"] == 1


def test_import_loads_no_process_pool():
    """``import repro.cli`` (the server's process) loads no
    multiprocessing; the campaign names still resolve on first use."""
    code = (
        "import sys, repro.cli\n"
        "repro.cli.build_parser()\n"
        "loaded = [m for m in ('multiprocessing', "
        "'concurrent.futures.process', 'repro.campaign') "
        "if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "from repro import run_campaign_jobs\n"
        "import repro\n"
        "assert repro.CampaignSpec.__module__ == 'repro.campaign.jobs'\n"
        "assert 'multiprocessing' in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_loadtest_checks_its_topology_before_connecting(tmp_path):
    """A topology usage error is reported before the server is
    dialled: no traceback from the missing socket."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "loadtest",
         "--socket", str(tmp_path / "missing.sock"), "--srlg", "file"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 1
    assert "--srlg file needs --topology" in done.stderr
    assert "Traceback" not in done.stderr
