"""Integration tests for the dumbbell scenarios and the measurement layer."""

import math

import numpy as np
import pytest

from repro.api import LabScenario, Ns2Scenario
from repro.core.formulas import PftkStandardFormula
from repro.measurement import (
    aggregate_kind,
    normalized_covariance_from_flow,
    observations_from_result,
    scenario_summaries,
    summarize_flow,
)
from repro.simulator import DumbbellConfig, INTERNET_PATHS, run_dumbbell


@pytest.fixture(scope="module")
def small_red_result():
    """One shared ns-2-analogue run used by several read-only tests."""
    config = Ns2Scenario(num_connections=2, duration=80.0).build(seed=5)
    return run_dumbbell(config)


class TestDumbbellConfig:
    def test_bandwidth_delay_product(self):
        config = DumbbellConfig(capacity_mbps=8.0, rtt_seconds=0.1, packet_size=1000)
        assert config.bandwidth_delay_packets() == 100

    def test_duration_must_exceed_warmup(self):
        config = DumbbellConfig(duration=10.0, warmup=10.0)
        with pytest.raises(ValueError):
            run_dumbbell(config)

    def test_unknown_queue_type(self):
        config = DumbbellConfig(queue_type="codel", duration=30.0, warmup=1.0)
        with pytest.raises(ValueError):
            run_dumbbell(config)

    def test_table1_paths_present(self):
        assert set(INTERNET_PATHS) == {"INRIA", "UMASS", "KTH", "UMELB"}
        assert INTERNET_PATHS["UMELB"].rtt_seconds == pytest.approx(0.35)


class TestDumbbellRun(object):
    def test_flow_counts(self, small_red_result):
        result = small_red_result
        assert len(result.tfrc_flows) == 2
        assert len(result.tcp_flows) == 2
        assert result.measured_duration == pytest.approx(
            result.config.duration - result.config.warmup
        )

    def test_all_flows_make_progress_and_see_losses(self, small_red_result):
        for flow in small_red_result.all_flows():
            assert flow.packets_sent > 100
            assert flow.packets_acked > 0
            assert len(flow.loss_event_intervals) > 3
            assert flow.mean_rtt() > 0.0

    def test_link_not_overbooked(self, small_red_result):
        """Aggregate goodput cannot exceed the bottleneck capacity."""
        result = small_red_result
        capacity_pkts = result.config.capacity_mbps * 1e6 / (8 * 1000)
        total = sum(
            flow.throughput(result.measured_duration) for flow in result.all_flows()
        )
        assert total <= capacity_pkts * 1.05

    def test_link_reasonably_utilized(self, small_red_result):
        result = small_red_result
        capacity_pkts = result.config.capacity_mbps * 1e6 / (8 * 1000)
        total = sum(
            flow.throughput(result.measured_duration) for flow in result.all_flows()
        )
        assert total >= 0.5 * capacity_pkts

    def test_seed_reproducibility(self):
        config = Ns2Scenario(num_connections=1, duration=40.0).build(seed=11)
        first = run_dumbbell(config)
        second = run_dumbbell(config)
        assert [f.packets_sent for f in first.all_flows()] == [
            f.packets_sent for f in second.all_flows()
        ]

    def test_droptail_lab_scenario_runs(self):
        config = LabScenario(num_connections=1, queue_type="droptail",
                             buffer_packets=20, duration=60.0).build(seed=7)
        result = run_dumbbell(config)
        assert result.config.tfrc_comprehensive is False
        for flow in result.all_flows():
            assert flow.packets_sent > 100

    def test_every_flow_starts_at_its_flow_id(self, monkeypatch):
        # CBR probe i used to start at 0.01 * (num_tfrc + num_tcp + num_cbr + i).
        from repro.simulator import scenarios

        starts = {}

        def recording(sender_type):
            def build(*args, **kwargs):
                sender = sender_type(*args, **kwargs)
                starts[sender.flow_id] = (sender.stats.label, kwargs["start_time"])
                return sender
            return build

        for name in ("TfrcSender", "TcpSender", "PoissonSource", "CbrSource"):
            monkeypatch.setattr(scenarios, name, recording(getattr(scenarios, name)))
        config = DumbbellConfig(num_tfrc=1, num_tcp=1, num_poisson=2, num_cbr=1,
                                duration=2.0, warmup=1.0, seed=3)
        result = run_dumbbell(config)
        labels = ["tfrc", "tcp", "poisson", "poisson", "cbr"]
        assert starts == {i: (label, 0.01 * i) for i, label in enumerate(labels)}
        assert [flow.flow_id for flow in result.all_flows()] == list(range(5))

    def test_poisson_probe_included(self):
        config = DumbbellConfig(num_tfrc=1, num_tcp=1, num_poisson=1,
                                capacity_mbps=1.0, duration=60.0, warmup=10.0,
                                seed=9)
        result = run_dumbbell(config)
        assert len(result.poisson_flows) == 1
        assert result.poisson_flows[0].packets_sent > 50


class TestClaim4InScenario:
    def test_tcp_sees_larger_loss_event_rate(self, small_red_result):
        """Claim 4 / Figure 17: with few competing flows TCP's loss-event
        rate exceeds TFRC's."""
        result = small_red_result
        tcp_rate = result.mean_loss_event_rate(result.tcp_flows)
        tfrc_rate = result.mean_loss_event_rate(result.tfrc_flows)
        assert tcp_rate > tfrc_rate

    def test_loss_rate_ratio_below_closed_form_bound(self, small_red_result):
        """The paper notes the simulated deviation is less pronounced than
        the 16/9 of the idealised model."""
        from repro.analysis import loss_rate_ratio

        ratio = loss_rate_ratio(small_red_result)
        assert 1.0 < ratio < 16.0 / 9.0 * 1.5


class TestMeasurementLayer:
    def test_summaries_cover_all_flows(self, small_red_result):
        formula = PftkStandardFormula(rtt=small_red_result.config.rtt_seconds)
        summaries = scenario_summaries(small_red_result, formula=formula)
        assert len(summaries) == 4
        for summary in summaries:
            assert summary.loss_event_rate > 0.0
            assert summary.throughput > 0.0
            assert not math.isnan(summary.normalized_throughput)

    def test_tfrc_normalized_covariance_small(self, small_red_result):
        """Figure 10: the normalised covariance of TFRC flows is near zero."""
        values = [
            normalized_covariance_from_flow(flow)
            for flow in small_red_result.tfrc_flows
        ]
        values = [v for v in values if not math.isnan(v)]
        assert values, "need at least one flow with enough loss events"
        assert all(abs(v) < 0.5 for v in values)

    def test_flow_observation_conversion(self, small_red_result):
        observations = observations_from_result(small_red_result)
        assert len(observations) == 4
        for obs in observations:
            assert obs.throughput > 0.0
            assert 0.0 < obs.loss_event_rate <= 1.0
            assert obs.mean_rtt > 0.0

    def test_aggregate_kind(self, small_red_result):
        aggregate = aggregate_kind(
            small_red_result.tcp_flows, small_red_result.measured_duration, "tcp"
        )
        assert aggregate.num_flows == 2
        assert aggregate.mean_throughput > 0.0
        assert aggregate.mean_loss_event_rate > 0.0

    def test_aggregate_empty_kind(self):
        aggregate = aggregate_kind([], 10.0, "poisson")
        assert aggregate.num_flows == 0
        assert aggregate.mean_throughput == 0.0

    def test_summarize_flow_validation(self, small_red_result):
        with pytest.raises(ValueError):
            summarize_flow(small_red_result.tcp_flows[0], duration=0.0)


class TestBreakdownAnalysis:
    def test_pair_breakdowns(self, small_red_result):
        from repro.analysis import aggregate_breakdown, pair_breakdowns

        pairs = pair_breakdowns(small_red_result)
        assert len(pairs) == 2
        for pair in pairs:
            assert pair.breakdown.conservativeness_ratio > 0.0
            assert pair.breakdown.loss_rate_ratio > 0.0
        aggregate = aggregate_breakdown(small_red_result)
        assert aggregate.throughput_ratio > 0.0

    def test_tfrc_conservative_in_red_scenario(self, small_red_result):
        """Figure 5 / lab figures: TFRC is conservative (x_bar <= ~f(p, r))."""
        from repro.analysis import pair_breakdowns

        pairs = pair_breakdowns(small_red_result)
        for pair in pairs:
            assert pair.breakdown.conservativeness_ratio < 1.3
