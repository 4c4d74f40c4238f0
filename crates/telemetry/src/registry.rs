//! The metric registry: named, labelled instrument families plus
//! scrape-time collectors, gathered into [`Sample`]s for the text
//! encoder.

use std::sync::{Arc, Mutex};

use crate::instruments::{
    Counter, Gauge, Histogram, HistogramSnapshot, ShardedCounter, ShardedGauge,
};

/// What kind of time series a sample belongs to (drives the `# TYPE`
/// line of the exposition format).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing.
    Counter,
    /// Goes up and down.
    Gauge,
    /// Power-of-two bucket histogram.
    Histogram,
}

/// The value carried by one [`Sample`].
#[derive(Debug, Clone)]
pub enum SampleValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(f64),
    /// A full histogram snapshot (rendered as cumulative
    /// `_bucket`/`_sum`/`_count` series). Boxed: a snapshot is ~35
    /// words, far larger than the scalar variants, and samples only
    /// exist transiently at scrape time.
    Histogram(Box<HistogramSnapshot>),
}

impl SampleValue {
    pub(crate) fn kind(&self) -> MetricKind {
        match self {
            SampleValue::Counter(_) => MetricKind::Counter,
            SampleValue::Gauge(_) => MetricKind::Gauge,
            SampleValue::Histogram(_) => MetricKind::Histogram,
        }
    }
}

/// One gathered time series: family name, help, labels, value.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Metric family name (e.g. `gesto_shard_frames_total`).
    pub name: String,
    /// Help text for the family's `# HELP` line.
    pub help: String,
    /// Label pairs in render order.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: SampleValue,
}

/// Accumulator handed to scrape-time collectors; push one entry per
/// time series the collector exports.
#[derive(Debug, Default)]
pub struct SampleSet {
    pub(crate) samples: Vec<Sample>,
}

impl SampleSet {
    /// Adds a counter series.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.push(name, help, labels, SampleValue::Counter(value));
    }

    /// Adds a gauge series.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push(name, help, labels, SampleValue::Gauge(value));
    }

    /// Adds a histogram series.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snapshot: HistogramSnapshot,
    ) {
        self.push(
            name,
            help,
            labels,
            SampleValue::Histogram(Box::new(snapshot)),
        );
    }

    fn push(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: SampleValue) {
        debug_assert!(valid_name(name), "invalid metric name {name:?}");
        self.samples.push(Sample {
            name: name.to_string(),
            help: help.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        });
    }
}

/// A registered instrument: either owned via `Arc` (created through the
/// registry) or a `'static` reference (process-global statics living in
/// hot-path crates like `gesto-cep`).
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
    CounterRef(&'static Counter),
    HistogramRef(&'static Histogram),
    ShardedCounterRef(&'static ShardedCounter),
    ShardedGaugeRef(&'static ShardedGauge),
}

impl Instrument {
    fn kind(&self) -> MetricKind {
        match self {
            Instrument::Counter(_)
            | Instrument::CounterRef(_)
            | Instrument::ShardedCounterRef(_) => MetricKind::Counter,
            Instrument::Gauge(_) | Instrument::ShardedGaugeRef(_) => MetricKind::Gauge,
            Instrument::Histogram(_) | Instrument::HistogramRef(_) => MetricKind::Histogram,
        }
    }

    fn read(&self) -> SampleValue {
        match self {
            Instrument::Counter(c) => SampleValue::Counter(c.get()),
            Instrument::CounterRef(c) => SampleValue::Counter(c.get()),
            Instrument::ShardedCounterRef(c) => SampleValue::Counter(c.get()),
            Instrument::Gauge(g) => SampleValue::Gauge(g.get() as f64),
            Instrument::ShardedGaugeRef(g) => SampleValue::Gauge(g.get() as f64),
            Instrument::Histogram(h) => SampleValue::Histogram(Box::new(h.snapshot())),
            Instrument::HistogramRef(h) => SampleValue::Histogram(Box::new(h.snapshot())),
        }
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    inst: Instrument,
}

type Collector = Box<dyn Fn(&mut SampleSet) + Send + Sync>;

#[derive(Default)]
struct Inner {
    entries: Vec<Entry>,
    collectors: Vec<Collector>,
}

/// The metric registry: the scrape surface of one server process.
///
/// Instruments are registered once (at server construction); updates
/// never touch the registry — they hit the instrument's atomics
/// directly. The mutex here guards only registration and
/// [`gather`](Registry::gather)/[`render`](Registry::render), both off
/// the hot path.
///
/// Three registration styles coexist:
/// * [`counter`](Registry::counter) / [`gauge`](Registry::gauge) /
///   [`histogram`](Registry::histogram) create an `Arc`-owned
///   instrument and hand it back for the caller to update.
/// * [`register_counter_ref`](Registry::register_counter_ref),
///   [`register_histogram_ref`](Registry::register_histogram_ref) and
///   the `register_sharded_*_ref` pair export a `'static` instrument
///   that lives in code with no registry handle (the cep/stream
///   process-global statics), so hot-path crates need no registry
///   dependency at update time.
/// * [`register_collector`](Registry::register_collector) runs a
///   closure at scrape time for values that are computed rather than
///   counted: sums, states and readings of live structures.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Creates (or retrieves) a counter with this exact name + label
    /// set.
    ///
    /// # Panics
    /// Panics on an invalid metric name, or if the name is already
    /// registered with a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = find(&inner.entries, name, labels) {
            match &e.inst {
                Instrument::Counter(c) => return c.clone(),
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let c = Arc::new(Counter::new());
        push(
            &mut inner.entries,
            name,
            help,
            labels,
            Instrument::Counter(c.clone()),
        );
        c
    }

    /// Creates (or retrieves) a gauge with this exact name + label set.
    ///
    /// # Panics
    /// Panics on an invalid metric name, or if the name is already
    /// registered with a different kind.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = find(&inner.entries, name, labels) {
            match &e.inst {
                Instrument::Gauge(g) => return g.clone(),
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let g = Arc::new(Gauge::new());
        push(
            &mut inner.entries,
            name,
            help,
            labels,
            Instrument::Gauge(g.clone()),
        );
        g
    }

    /// Creates (or retrieves) a histogram with this exact name + label
    /// set.
    ///
    /// # Panics
    /// Panics on an invalid metric name, or if the name is already
    /// registered with a different kind.
    pub fn histogram(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = find(&inner.entries, name, labels) {
            match &e.inst {
                Instrument::Histogram(h) => return h.clone(),
                _ => panic!("metric {name} already registered with a different kind"),
            }
        }
        let h = Arc::new(Histogram::new());
        push(
            &mut inner.entries,
            name,
            help,
            labels,
            Instrument::Histogram(h.clone()),
        );
        h
    }

    /// Exports a `'static` counter (a process-global living in another
    /// crate). Re-registering the same name + labels is a no-op, so two
    /// servers in one process can both export the shared statics.
    pub fn register_counter_ref(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        counter: &'static Counter,
    ) {
        let mut inner = self.inner.lock().unwrap();
        if find(&inner.entries, name, labels).is_some() {
            return;
        }
        push(
            &mut inner.entries,
            name,
            help,
            labels,
            Instrument::CounterRef(counter),
        );
    }

    /// Exports a `'static` histogram. Same idempotence as
    /// [`register_counter_ref`](Registry::register_counter_ref).
    pub fn register_histogram_ref(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        histogram: &'static Histogram,
    ) {
        let mut inner = self.inner.lock().unwrap();
        if find(&inner.entries, name, labels).is_some() {
            return;
        }
        push(
            &mut inner.entries,
            name,
            help,
            labels,
            Instrument::HistogramRef(histogram),
        );
    }

    /// Exports a `'static` [`ShardedCounter`] (summed over its slots at
    /// scrape time). Same idempotence as
    /// [`register_counter_ref`](Registry::register_counter_ref).
    pub fn register_sharded_counter_ref(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        counter: &'static ShardedCounter,
    ) {
        let mut inner = self.inner.lock().unwrap();
        if find(&inner.entries, name, labels).is_some() {
            return;
        }
        push(
            &mut inner.entries,
            name,
            help,
            labels,
            Instrument::ShardedCounterRef(counter),
        );
    }

    /// Exports a `'static` [`ShardedGauge`] (summed over its slots at
    /// scrape time). Same idempotence as
    /// [`register_counter_ref`](Registry::register_counter_ref).
    pub fn register_sharded_gauge_ref(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        gauge: &'static ShardedGauge,
    ) {
        let mut inner = self.inner.lock().unwrap();
        if find(&inner.entries, name, labels).is_some() {
            return;
        }
        push(
            &mut inner.entries,
            name,
            help,
            labels,
            Instrument::ShardedGaugeRef(gauge),
        );
    }

    /// Registers a scrape-time collector: the closure runs on every
    /// [`gather`](Registry::gather) and pushes samples for metrics that
    /// are derived from live structures rather than dedicated
    /// instruments.
    pub fn register_collector(&self, f: impl Fn(&mut SampleSet) + Send + Sync + 'static) {
        self.inner.lock().unwrap().collectors.push(Box::new(f));
    }

    /// Reads every registered instrument and runs every collector,
    /// returning the flat sample list (encoder input).
    pub fn gather(&self) -> Vec<Sample> {
        let inner = self.inner.lock().unwrap();
        let mut set = SampleSet::default();
        for e in &inner.entries {
            set.samples.push(Sample {
                name: e.name.clone(),
                help: e.help.clone(),
                labels: e.labels.clone(),
                value: e.inst.read(),
            });
        }
        for c in &inner.collectors {
            c(&mut set);
        }
        set.samples
    }

    /// Renders the full scrape payload in Prometheus text format 0.0.4.
    pub fn render(&self) -> String {
        crate::encode::encode_text(&self.gather())
    }
}

fn find<'a>(entries: &'a [Entry], name: &str, labels: &[(&str, &str)]) -> Option<&'a Entry> {
    entries.iter().find(|e| {
        e.name == name
            && e.labels.len() == labels.len()
            && e.labels
                .iter()
                .zip(labels)
                .all(|((k, v), (lk, lv))| k == lk && v == lv)
    })
}

fn push(
    entries: &mut Vec<Entry>,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    inst: Instrument,
) {
    assert!(
        valid_name(name),
        "invalid metric name {name:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
    );
    if let Some(prev) = entries.iter().find(|e| e.name == name) {
        assert!(
            prev.inst.kind() == inst.kind(),
            "metric {name} already registered with a different kind"
        );
    }
    entries.push(Entry {
        name: name.to_string(),
        help: help.to_string(),
        labels: labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        inst,
    });
}

/// Prometheus metric-name grammar: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub(crate) fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        let r = Registry::new();
        let c = r.counter("test_total", "help", &[]);
        c.add(7);
        let samples = r.gather();
        assert_eq!(samples.len(), 1);
        assert!(matches!(samples[0].value, SampleValue::Counter(7)));
    }

    #[test]
    fn get_or_create_returns_same_instrument() {
        let r = Registry::new();
        let a = r.counter("dup_total", "help", &[("shard", "0")]);
        let b = r.counter("dup_total", "help", &[("shard", "0")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // A different label set is a distinct series.
        let c = r.counter("dup_total", "help", &[("shard", "1")]);
        c.add(5);
        assert_eq!(r.gather().len(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.counter("conflict_metric", "help", &[]);
        r.gauge("conflict_metric", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        let r = Registry::new();
        r.counter("bad-name", "help", &[]);
    }

    #[test]
    fn static_refs_are_idempotent() {
        static C: Counter = Counter::new();
        let r = Registry::new();
        r.register_counter_ref("static_total", "help", &[], &C);
        r.register_counter_ref("static_total", "help", &[], &C);
        C.inc();
        let samples = r.gather();
        assert_eq!(samples.len(), 1);
        assert!(matches!(samples[0].value, SampleValue::Counter(1)));
    }

    #[test]
    fn collectors_run_at_gather_time() {
        let r = Registry::new();
        let shared = Arc::new(Counter::new());
        let captured = shared.clone();
        r.register_collector(move |set| {
            set.counter("collected_total", "help", &[("k", "v")], captured.get());
        });
        shared.add(3);
        let samples = r.gather();
        assert_eq!(samples.len(), 1);
        assert!(matches!(samples[0].value, SampleValue::Counter(3)));
        shared.add(1);
        assert!(matches!(r.gather()[0].value, SampleValue::Counter(4)));
    }

    #[test]
    fn name_grammar() {
        assert!(valid_name("gesto_net_frames_received_total"));
        assert!(valid_name("_private"));
        assert!(valid_name("ns:sub"));
        assert!(!valid_name(""));
        assert!(!valid_name("9starts_with_digit"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("has-dash"));
    }
}
