//! Prometheus text exposition format 0.0.4.
//!
//! One `# HELP` + `# TYPE` header per metric family, then one line per
//! series. Histograms expand into cumulative `_bucket{le="…"}` series
//! plus `_sum` and `_count`, with the trailing `le="+Inf"` bucket equal
//! to the count. Label values escape `\`, `"` and newline; help text
//! escapes `\` and newline. Pinned against hand-written goldens in
//! `tests/exposition_conformance.rs`.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::instruments::HistogramSnapshot;
use crate::registry::{Sample, SampleValue};

/// Encodes gathered samples as a Prometheus 0.0.4 text payload.
///
/// Families render sorted by name; series within a family sort by their
/// label pairs, so the output is deterministic for a given sample set.
pub fn encode_text(samples: &[Sample]) -> String {
    // Group by family name, keeping (help, type) from the first sample
    // seen for the family.
    let mut families: BTreeMap<&str, (&str, &str, Vec<&Sample>)> = BTreeMap::new();
    for s in samples {
        families
            .entry(&s.name)
            .or_insert_with(|| (&s.help, s.value.type_word(), Vec::new()))
            .2
            .push(s);
    }

    let mut out = String::new();
    for (name, (help, type_word, mut series)) in families {
        series.sort_by(|a, b| a.labels.cmp(&b.labels));
        let _ = writeln!(out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(out, "# TYPE {name} {type_word}");
        for s in series {
            match &s.value {
                SampleValue::Counter(v) => {
                    let _ = writeln!(out, "{name}{} {v}", labels(&s.labels));
                }
                SampleValue::Gauge(v) => {
                    let _ = writeln!(out, "{name}{} {}", labels(&s.labels), fmt_f64(*v));
                }
                SampleValue::Histogram(h) => write_histogram(&mut out, name, &s.labels, h),
            }
        }
    }
    out
}

/// Renders one histogram snapshot as cumulative buckets + sum + count.
/// Empty buckets past the last populated one collapse into `+Inf` to
/// keep scrape payloads small; a fully empty histogram still emits the
/// `+Inf` bucket so the series parses.
fn write_histogram(
    out: &mut String,
    name: &str,
    base_labels: &[(String, String)],
    h: &HistogramSnapshot,
) {
    let last = h
        .buckets
        .iter()
        .rposition(|&c| c != 0)
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut cum = 0u64;
    for (i, &c) in h.buckets.iter().take(last).enumerate() {
        cum += c;
        let le = (1u128 << (i + 1)).to_string();
        let _ = writeln!(
            out,
            "{name}_bucket{} {cum}",
            labels_with(base_labels, "le", &le)
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{} {}",
        labels_with(base_labels, "le", "+Inf"),
        h.count
    );
    let _ = writeln!(out, "{name}_sum{} {}", labels(base_labels), h.sum);
    let _ = writeln!(out, "{name}_count{} {}", labels(base_labels), h.count);
}

/// `{k1="v1",k2="v2"}`, or the empty string with no labels.
fn labels(pairs: &[(String, String)]) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let mut s = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{k}=\"{}\"", escape_label(v));
    }
    s.push('}');
    s
}

/// Base labels plus one extra pair (used for the histogram `le` label,
/// appended last per convention).
fn labels_with(pairs: &[(String, String)], key: &str, value: &str) -> String {
    let mut s = String::from("{");
    for (k, v) in pairs {
        let _ = write!(s, "{k}=\"{}\",", escape_label(v));
    }
    let _ = write!(s, "{key}=\"{}\"", escape_label(value));
    s.push('}');
    s
}

/// Label-value escaping: backslash, double-quote, newline.
fn escape_label(v: &str) -> String {
    let mut s = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => s.push_str("\\\\"),
            '"' => s.push_str("\\\""),
            '\n' => s.push_str("\\n"),
            c => s.push(c),
        }
    }
    s
}

/// Help-text escaping: backslash and newline (quotes are fine here).
fn escape_help(v: &str) -> String {
    let mut s = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            c => s.push(c),
        }
    }
    s
}

/// Gauges are f64; integral values render without a decimal point so
/// counters mirrored through gauges stay readable.
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.is_finite() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(name: &str, labels: &[(&str, &str)], value: SampleValue) -> Sample {
        Sample {
            name: name.into(),
            help: "h".into(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        }
    }

    #[test]
    fn families_sort_and_series_sort() {
        let text = encode_text(&[
            sample("zeta_total", &[], SampleValue::Counter(1)),
            sample("alpha_total", &[("shard", "1")], SampleValue::Counter(2)),
            sample("alpha_total", &[("shard", "0")], SampleValue::Counter(3)),
        ]);
        let alpha = text.find("alpha_total{shard=\"0\"} 3").unwrap();
        let alpha1 = text.find("alpha_total{shard=\"1\"} 2").unwrap();
        let zeta = text.find("zeta_total 1").unwrap();
        assert!(alpha < alpha1 && alpha1 < zeta);
        // One header per family, not per series.
        assert_eq!(text.matches("# TYPE alpha_total counter").count(), 1);
    }

    #[test]
    fn label_escaping() {
        let text = encode_text(&[sample(
            "esc_total",
            &[("path", "a\\b\"c\nd")],
            SampleValue::Counter(1),
        )]);
        assert!(text.contains(r#"esc_total{path="a\\b\"c\nd"} 1"#));
    }

    #[test]
    fn gauge_formatting() {
        let text = encode_text(&[
            sample("g1", &[], SampleValue::Gauge(42.0)),
            sample("g2", &[], SampleValue::Gauge(0.5)),
            sample("g3", &[], SampleValue::Gauge(-7.0)),
        ]);
        assert!(text.contains("g1 42\n"));
        assert!(text.contains("g2 0.5\n"));
        assert!(text.contains("g3 -7\n"));
    }

    #[test]
    fn histogram_cumulative_buckets() {
        let h = crate::Histogram::new();
        h.record(1); // bucket 0, le=2
        h.record(3); // bucket 1, le=4
        h.record(3);
        let text = encode_text(&[sample(
            "lat_us",
            &[("shard", "0")],
            SampleValue::Histogram(Box::new(h.snapshot())),
        )]);
        assert!(text.contains("# TYPE lat_us histogram"));
        assert!(text.contains("lat_us_bucket{shard=\"0\",le=\"2\"} 1"));
        assert!(text.contains("lat_us_bucket{shard=\"0\",le=\"4\"} 3"));
        assert!(text.contains("lat_us_bucket{shard=\"0\",le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_sum{shard=\"0\"} 7"));
        assert!(text.contains("lat_us_count{shard=\"0\"} 3"));
        // Buckets past the last populated one collapse into +Inf.
        assert!(!text.contains("le=\"8\""));
    }

    #[test]
    fn empty_histogram_still_parses() {
        let h = crate::Histogram::new();
        let text = encode_text(&[sample(
            "empty_us",
            &[],
            SampleValue::Histogram(Box::new(h.snapshot())),
        )]);
        assert!(text.contains("empty_us_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("empty_us_sum 0"));
        assert!(text.contains("empty_us_count 0"));
    }
}
