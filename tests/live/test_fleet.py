"""The fleet health plane: ``/fleet`` aggregation over a federation
and the ``repro top --shards`` multi-shard view built on it.
"""

import json
import urllib.request

from repro.live.federation import LocalFederation
from repro.types import TaskSpec


def fetch(url: str, timeout: float = 5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.load(response)


def specs(n, seconds=0.0, prefix="fleet"):
    return [TaskSpec.sleep(seconds, task_id=f"{prefix}-{i:04d}")
            for i in range(n)]


class TestFleetEndpoint:
    def test_fleet_merges_every_shard_in_one_round_trip(self):
        with LocalFederation(shards=2, executors_per_shard=1,
                             monitor_interval=0.05, http_port=0) as fed:
            results = fed.run(specs(20), timeout=30)
            assert all(r.ok for r in results)
            base = fed.http.url("").rstrip("/")
            fleet = fetch(base + "/fleet")
        assert fleet["alive"] == 2
        assert fleet["total"] == 2
        assert fleet["degraded_shards"] == []
        assert set(fleet["shards"]) == {"s0", "s1"}
        for shard_id, status in fleet["shards"].items():
            assert status["alive"] is True
            assert status["shard_id"] == shard_id
            assert status["health"]["status"] == "ok"
            assert status["wire"] == "v4"
        # Home-shard attribution: the aggregate counts each task once.
        assert fleet["aggregate"]["completed"] == 20
        assert fleet["aggregate"]["shards"] == 2
        # The steal matrix covers the full mesh, even with no steals.
        assert set(fleet["steals"]) == {"s0", "s1"}
        assert set(fleet["steals"]["s0"]) == {"s1"}
        assert {"requested", "received", "connected"} <= set(
            fleet["steals"]["s0"]["s1"])

    def test_fleet_marks_a_killed_shard_down(self):
        with LocalFederation(shards=2, executors_per_shard=1,
                             monitor_interval=0.05, http_port=0) as fed:
            fed.kill_shard("s1")
            base = fed.http.url("").rstrip("/")
            fleet = fetch(base + "/fleet")
            assert fleet["alive"] == 1
            assert fleet["shards"]["s1"] == {"alive": False}
            assert fleet["shards"]["s0"]["alive"] is True


class TestTopShards:
    def test_top_shards_renders_the_fleet_view(self, capsys):
        from repro.cli import main

        with LocalFederation(shards=2, executors_per_shard=1,
                             monitor_interval=0.05, http_port=0) as fed:
            results = fed.run(specs(12, prefix="top"), timeout=30)
            assert all(r.ok for r in results)
            base = fed.http.url("").rstrip("/")
            assert main(["top", "--shards", base, "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2/2 shards alive" in out
        assert "s0" in out and "s1" in out
        assert "SHARD" in out  # the per-shard table rendered

    def test_top_shards_comma_list_polls_each_status(self, capsys):
        from repro.cli import main

        with LocalFederation(shards=2, executors_per_shard=1,
                             monitor_interval=0.05, http_port=0) as fed:
            fed.run(specs(6, prefix="poll"), timeout=30)
            base = fed.http.url("").rstrip("/")
            second = fed.dispatchers["s1"].serve_http(port=0)
            urls = f"{base},{second.url('').rstrip('/')}"
            assert main(["top", "--shards", urls, "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 2/2 shards alive" in out
        assert "s0" in out and "s1" in out

    def test_top_shards_comma_list_marks_unreachable_down(self, capsys):
        from repro.cli import main

        with LocalFederation(shards=1, executors_per_shard=1,
                             monitor_interval=0.05, http_port=0) as fed:
            base = fed.http.url("").rstrip("/")
            urls = f"{base},http://127.0.0.1:1"
            assert main(["top", "--shards", urls, "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 1/2 shards alive" in out
        assert "DOWN" in out
