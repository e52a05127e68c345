//! The metric catalogue: every name the benchmark reports, with its
//! unit, in `BENCHMARK.json` order.

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// End-to-end metrics (`--trace 0`): name, unit, polarity.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("speaker_x_realtime", "x", "higher"),
    ("tick_p50_ms", "ms", "lower"),
    ("tick_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("played_ratio", "ratio", "higher"),
];

/// Per-layer metrics (`--trace 1`): name, unit.
/// Per-layer metrics (`--trace 1`): name, unit, polarity.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("sim.events", "count", "lower"),
    ("sim.handler_s", "s", "lower"),
    ("sim.queue_s", "s", "lower"),
    ("sim.merge_scans", "count", "lower"),
    ("fleet.lanes", "count", "higher"),
    ("fleet.jobs", "count", "lower"),
    ("fleet.job_s", "s", "lower"),
    ("net.datagrams_sent", "count", "lower"),
    ("net.deliveries", "count", "lower"),
    ("net.lost", "count", "lower"),
    ("net.deliver_s", "s", "lower"),
    ("net.loss_dispersion", "ratio", "lower"),
    ("net.raw_seed_loss_dispersion", "ratio", "lower"),
    ("proto.parse_ns", "ns", "lower"),
    ("proto.parse_s", "s", "lower"),
    ("proto.seal_ns", "ns", "lower"),
    ("proto.verify_ns", "ns", "lower"),
    ("proto.verify_s", "s", "lower"),
    ("proto.rejected", "count", "lower"),
    ("codec.decode_ns", "ns", "lower"),
    ("codec.decode_s", "s", "lower"),
    ("codec.decode_calls", "count", "lower"),
    ("codec.distinct_payloads", "count", "higher"),
    ("codec.decode_useful_ratio", "ratio", "higher"),
    ("codec.encode_ns", "ns", "lower"),
    ("codec.encode_s", "s", "lower"),
    ("speaker.datagrams", "count", "lower"),
    ("speaker.dropped_late", "count", "lower"),
    ("speaker.dropped_duplicate", "count", "lower"),
    ("speaker.concealed", "count", "lower"),
    ("speaker.fec_recovered", "count", "higher"),
    ("speaker.dup_ratio", "ratio", "lower"),
    ("speaker.miss_ratio", "ratio", "lower"),
    ("heal.epochs", "count", "lower"),
    ("heal.retransmits_requested", "count", "lower"),
    ("heal.epoch_extra_ms", "ms", "lower"),
    ("rebroadcast.data_packets", "count", "lower"),
    ("rebroadcast.retransmits_sent", "count", "lower"),
    ("relay.data_relayed", "count", "lower"),
    ("relay.parity_stale", "count", "lower"),
    ("vad.tap_mb", "MB", "lower"),
    ("telemetry.keys", "count", "lower"),
    ("telemetry.snapshot_ms", "ms", "lower"),
    ("trace.attributed_ratio", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("tick.tail_percentile", "%", "higher"),
    ("tick.over_period_ratio", "ratio", "lower"),
    ("host.nproc", "count", "higher"),
    ("host.fleet_lanes", "count", "higher"),
    ("host.direct_mdct_windows_per_s", "1/s", "higher"),
    ("host.scalar_dsp_msamples_per_s", "Msamples/s", "higher"),
];

/// A per-layer metric by catalogue name; `None` for an unknown name.
pub fn layer(name: &str, value: f64) -> Option<Metric> {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(name, unit, _)| Metric { name, value, unit })
}

/// An end-to-end metric by catalogue name.
///
/// # Panics
///
/// Panics on a name outside [`END_TO_END`].
pub fn end_to_end(name: &str, value: f64) -> Metric {
    let &(name, unit, _) = END_TO_END
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not an end-to-end metric"));
    Metric { name, value, unit }
}

/// Sorts `metrics` into catalogue order (end-to-end, then per-layer).
pub fn sort(metrics: &mut [Metric]) {
    let rank = |m: &Metric| {
        END_TO_END
            .iter()
            .map(|e| e.0)
            .chain(PER_LAYER.iter().map(|l| l.0))
            .position(|n| n == m.name)
            .unwrap_or(usize::MAX)
    };
    metrics.sort_by_key(rank);
}
