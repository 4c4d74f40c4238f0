//! Conformance goldens for the Prometheus text exposition format, in
//! the spirit of `protocol_conformance.rs` on the wire side: each test
//! pins the exact rendered payload to a hand-written expectation, so an
//! accidental format change (header order, escaping, bucket math) fails
//! loudly instead of silently breaking scrapers.

use gesto_telemetry::{Counter, Gauge, Histogram, Registry};

#[test]
fn counter_family_golden() {
    let r = Registry::new();
    let c = r.instrument::<Counter>(
        "gesto_net_frames_received_total",
        "Skeleton frames decoded off the wire",
        &[],
    );
    c.add(1234);
    assert_eq!(
        r.render(),
        "# HELP gesto_net_frames_received_total Skeleton frames decoded off the wire\n\
         # TYPE gesto_net_frames_received_total counter\n\
         gesto_net_frames_received_total 1234\n"
    );
}

#[test]
fn labelled_series_golden() {
    let r = Registry::new();
    // Registered out of order: series must render sorted by labels,
    // under a single family header.
    r.instrument::<Counter>(
        "gesto_shard_frames_total",
        "Frames per shard",
        &[("shard", "1")],
    )
    .add(20);
    r.instrument::<Counter>(
        "gesto_shard_frames_total",
        "Frames per shard",
        &[("shard", "0")],
    )
    .add(10);
    assert_eq!(
        r.render(),
        "# HELP gesto_shard_frames_total Frames per shard\n\
         # TYPE gesto_shard_frames_total counter\n\
         gesto_shard_frames_total{shard=\"0\"} 10\n\
         gesto_shard_frames_total{shard=\"1\"} 20\n"
    );
}

#[test]
fn gauge_golden() {
    let r = Registry::new();
    let g = r.instrument::<Gauge>("gesto_nfa_runs_active", "Live NFA runs", &[]);
    g.set(-3);
    assert_eq!(
        r.render(),
        "# HELP gesto_nfa_runs_active Live NFA runs\n\
         # TYPE gesto_nfa_runs_active gauge\n\
         gesto_nfa_runs_active -3\n"
    );
}

#[test]
fn histogram_golden() {
    let r = Registry::new();
    let h = r.instrument::<Histogram>(
        "gesto_shard_push_latency_us",
        "Enqueue-to-detection latency",
        &[("shard", "0")],
    );
    h.record(1); // bucket 0: le=2
    h.record(3); // bucket 1: le=4
    h.record(3);
    h.record(100); // bucket 6: le=128
    assert_eq!(
        r.render(),
        "# HELP gesto_shard_push_latency_us Enqueue-to-detection latency\n\
         # TYPE gesto_shard_push_latency_us histogram\n\
         gesto_shard_push_latency_us_bucket{shard=\"0\",le=\"2\"} 1\n\
         gesto_shard_push_latency_us_bucket{shard=\"0\",le=\"4\"} 3\n\
         gesto_shard_push_latency_us_bucket{shard=\"0\",le=\"8\"} 3\n\
         gesto_shard_push_latency_us_bucket{shard=\"0\",le=\"16\"} 3\n\
         gesto_shard_push_latency_us_bucket{shard=\"0\",le=\"32\"} 3\n\
         gesto_shard_push_latency_us_bucket{shard=\"0\",le=\"64\"} 3\n\
         gesto_shard_push_latency_us_bucket{shard=\"0\",le=\"128\"} 4\n\
         gesto_shard_push_latency_us_bucket{shard=\"0\",le=\"+Inf\"} 4\n\
         gesto_shard_push_latency_us_sum{shard=\"0\"} 107\n\
         gesto_shard_push_latency_us_count{shard=\"0\"} 4\n"
    );
}

#[test]
fn escaping_golden() {
    let r = Registry::new();
    r.register_collector(|set| {
        set.counter(
            "gesto_esc_total",
            "Line one\nline \\two",
            &[("path", "a\\b\"c\nd")],
            1,
        );
    });
    assert_eq!(
        r.render(),
        "# HELP gesto_esc_total Line one\\nline \\\\two\n\
         # TYPE gesto_esc_total counter\n\
         gesto_esc_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"
    );
}

#[test]
fn mixed_registry_families_sort_by_name() {
    let r = Registry::new();
    r.instrument::<Counter>("gesto_z_total", "z", &[]).inc();
    r.instrument::<Gauge>("gesto_a_active", "a", &[]).set(2);
    assert_eq!(
        r.render(),
        "# HELP gesto_a_active a\n\
         # TYPE gesto_a_active gauge\n\
         gesto_a_active 2\n\
         # HELP gesto_z_total z\n\
         # TYPE gesto_z_total counter\n\
         gesto_z_total 1\n"
    );
}
