"""The live metrics endpoint and the ``python -m repro.obs`` CLI."""

import urllib.request

import pytest

from repro import MetricsRegistry
from repro.obs import prometheus_text
from repro.obs.__main__ import main as obs_main
from repro.obs.remote import start_metrics_server


# ------------------------------------------------------------ endpoint
class TestMetricsServer:
    def test_serves_published_labeled_text(self):
        registry = MetricsRegistry()
        deferred = {"kind": "object"}
        registry.inc("service.admission_deferred", 4.0, labels=deferred)
        server, _ = start_metrics_server(registry, port=0)
        try:
            host, port = server.server_address[:2]
            body = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ).read().decode()
            assert 'repro_service_admission_deferred_total{kind="object"} 4' in body
            # The endpoint serves the published snapshot, not the live
            # registry: new counts appear only after the next publish().
            registry.inc("service.admission_deferred", labels=deferred)
            stale = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ).read().decode()
            assert stale == body
            server.publish()
            fresh = urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ).read().decode()
            assert 'deferred_total{kind="object"} 5' in fresh
            with pytest.raises(urllib.request.HTTPError):
                urllib.request.urlopen(
                    f"http://{host}:{port}/other", timeout=10
                )
        finally:
            server.shutdown()

    def test_publish_accepts_prerendered_text(self):
        registry = MetricsRegistry()
        server, _ = start_metrics_server(registry, port=0)
        try:
            server.publish("custom snapshot\n")
            assert server.render() == "custom snapshot\n"
            registry.inc("x")
            server.publish(prometheus_text(registry))
            assert "repro_x_total 1" in server.render()
        finally:
            server.shutdown()


# ------------------------------------------------------------ CLI
class TestObsCli:
    def test_validate_runs_the_cost_model_check(self, capsys):
        argv = ["--validate", "--cycles", "2", "--np", "300", "--nq", "8"]
        assert obs_main(argv) == 0
        assert "overhaul_calls/query" in capsys.readouterr().out

    def test_serve_runs_with_the_default_method(self, capsys):
        argv = ["serve", "--cycles", "2", "--port", "0", "--np", "300", "--nq", "8"]
        assert obs_main(argv) == 0
        assert "object_overhaul" in capsys.readouterr().out
