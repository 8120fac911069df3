"""Fleet telemetry's window percentiles, checked against exact values."""

from repro.service.requests import OUTCOME_REJECTED
from repro.service.soak import SoakConfig, run_soak
from repro.service.telemetry import FleetTelemetry

from tests.conftest import exact_percentile


def test_every_window_percentile_is_within_the_histogram_bound(monkeypatch):
    """A faulted soak's windows agree with their exact latencies.

    A wrapper around ``record``/``close_window`` keeps each window's
    latencies, so every closed window's histogram is held to
    ``percentile_error_bound`` against the exact interpolated
    percentile — the cross-check the service does not run itself.
    """
    record, close_window = FleetTelemetry.record, FleetTelemetry.close_window
    windows = []

    def recording(self, completion):
        record(self, completion)
        if completion.outcome != OUTCOME_REJECTED:
            vars(self).setdefault("exact", []).append(completion.latency_us)

    def closing(self, tick, *args, **kwargs):
        hist = self._window_hist
        exact = vars(self).pop("exact", [])
        point = close_window(self, tick, *args, **kwargs)
        assert hist.count == len(exact)
        for q, reported in ((50.0, point.p50_us), (95.0, point.p95_us),
                            (99.0, point.p99_us)):
            if exact:
                error = abs(hist.percentile(q) - exact_percentile(exact, q))
                assert error <= hist.percentile_error_bound(q) + 1e-5, \
                    (tick, q)
            assert reported == round(hist.percentile(q), 3)
        windows.append(len(exact))
        return point

    monkeypatch.setattr(FleetTelemetry, "record", recording)
    monkeypatch.setattr(FleetTelemetry, "close_window", closing)
    report = run_soak(SoakConfig(tenants=200, duration_s=20,
                                 fault_rate=0.1, seed=7))
    assert report["faults"]["injected"] > 0
    assert len(windows) >= 40 and sum(windows) > 1000, windows
