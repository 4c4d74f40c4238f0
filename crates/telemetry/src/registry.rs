//! The metric registry: named, labelled instruments plus scrape-time
//! collectors, gathered into [`Sample`]s for the text encoder.

use std::any::Any;
use std::ops::Deref;
use std::sync::{Arc, Mutex};

use crate::instruments::{
    Counter, Gauge, Histogram, HistogramSnapshot, ShardedCounter, ShardedGauge,
};

/// The value carried by one [`Sample`]; its variant is the family's
/// `# TYPE`.
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
    /// The exposition format's `# TYPE` word.
    pub(crate) fn type_word(&self) -> &'static str {
        match self {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "histogram",
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
            labels: owned(labels),
            value,
        });
    }
}

/// An instrument the registry can read at scrape time.
pub trait Instrument: Any + Send + Sync {
    /// The current reading.
    fn read(&self) -> SampleValue;
}

impl Instrument for Counter {
    fn read(&self) -> SampleValue {
        SampleValue::Counter(self.get())
    }
}

impl Instrument for ShardedCounter {
    fn read(&self) -> SampleValue {
        SampleValue::Counter(self.get())
    }
}

impl Instrument for Gauge {
    fn read(&self) -> SampleValue {
        SampleValue::Gauge(self.get() as f64)
    }
}

impl Instrument for ShardedGauge {
    fn read(&self) -> SampleValue {
        SampleValue::Gauge(self.get() as f64)
    }
}

impl Instrument for Histogram {
    fn read(&self) -> SampleValue {
        SampleValue::Histogram(Box::new(self.snapshot()))
    }
}

/// A `'static` instrument reads through its reference: this is how
/// [`Registry::export`] holds a [`Global`].
impl<I: Instrument> Instrument for &'static I {
    fn read(&self) -> SampleValue {
        (**self).read()
    }
}

/// A process-global instrument declared with its name, help and labels
/// where it is counted: `static FOO: Global<Counter> =
/// Global::new("foo_total", "…", &[], Counter::new());`. It derefs to
/// the instrument, so updates are `FOO.add(n)`, and any registry
/// publishes it with [`Registry::export`].
pub struct Global<I> {
    name: &'static str,
    help: &'static str,
    labels: &'static [(&'static str, &'static str)],
    inst: I,
}

impl<I> Global<I> {
    /// Declares `inst` under this name, help and label set.
    pub const fn new(
        name: &'static str,
        help: &'static str,
        labels: &'static [(&'static str, &'static str)],
        inst: I,
    ) -> Self {
        Global {
            name,
            help,
            labels,
            inst,
        }
    }
}

impl<I> Deref for Global<I> {
    type Target = I;

    fn deref(&self) -> &I {
        &self.inst
    }
}

struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    inst: Arc<dyn Instrument>,
}

type Collector = Box<dyn Fn(&mut SampleSet) + Send + Sync>;

const POISONED: &str = "a registration or a collector panicked holding the registry";

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
/// There is one way in per kind of metric:
/// * [`instrument`](Registry::instrument) gets or creates an owned
///   instrument under a name and label set, for code that holds the
///   registry.
/// * [`export`](Registry::export) publishes a [`Global`], a
///   process-global static that names itself where it is counted, in
///   code with no registry handle.
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

    /// Gets the instrument of this exact name and label set, or
    /// creates it.
    ///
    /// # Panics
    /// Panics on an invalid metric name, or if the name is already
    /// registered with a different kind.
    pub fn instrument<T: Instrument + Default>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
    ) -> Arc<T> {
        let mut inner = self.inner.lock().expect(POISONED);
        if let Some(e) = find(&inner.entries, name, labels) {
            let any: Arc<dyn Any + Send + Sync> = e.inst.clone();
            return any.downcast().unwrap_or_else(|_| {
                panic!("metric {name} already registered with a different kind")
            });
        }
        let inst = Arc::new(T::default());
        push(&mut inner.entries, name, help, labels, inst.clone());
        inst
    }

    /// Publishes a process-global instrument. Exporting one twice is a
    /// no-op, so two servers in one process can both export the shared
    /// statics.
    pub fn export<I: Instrument>(&self, global: &'static Global<I>) {
        let mut inner = self.inner.lock().expect(POISONED);
        if find(&inner.entries, global.name, global.labels).is_none() {
            let inst = Arc::new(&global.inst);
            push(
                &mut inner.entries,
                global.name,
                global.help,
                global.labels,
                inst,
            );
        }
    }

    /// Registers a scrape-time collector: the closure runs on every
    /// [`gather`](Registry::gather) and pushes samples for metrics that
    /// are derived from live structures rather than dedicated
    /// instruments.
    pub fn register_collector(&self, f: impl Fn(&mut SampleSet) + Send + Sync + 'static) {
        self.inner
            .lock()
            .expect(POISONED)
            .collectors
            .push(Box::new(f));
    }

    /// Reads every registered instrument and runs every collector,
    /// returning the flat sample list (encoder input).
    pub fn gather(&self) -> Vec<Sample> {
        let inner = self.inner.lock().expect(POISONED);
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
    inst: Arc<dyn Instrument>,
) {
    assert!(
        valid_name(name),
        "invalid metric name {name:?}: must match [a-zA-Z_:][a-zA-Z0-9_:]*"
    );
    if let Some(prev) = entries.iter().find(|e| e.name == name) {
        assert!(
            prev.inst.read().type_word() == inst.read().type_word(),
            "metric {name} already registered with a different kind"
        );
    }
    entries.push(Entry {
        name: name.to_string(),
        help: help.to_string(),
        labels: owned(labels),
        inst,
    });
}

fn owned(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
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
        let c: Arc<Counter> = r.instrument("test_total", "help", &[]);
        c.add(7);
        let samples = r.gather();
        assert_eq!(samples.len(), 1);
        assert!(matches!(samples[0].value, SampleValue::Counter(7)));
    }

    #[test]
    fn get_or_create_returns_same_instrument() {
        let r = Registry::new();
        let a: Arc<Counter> = r.instrument("dup_total", "help", &[("shard", "0")]);
        let b: Arc<Counter> = r.instrument("dup_total", "help", &[("shard", "0")]);
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        // A different label set is a distinct series.
        let c: Arc<Counter> = r.instrument("dup_total", "help", &[("shard", "1")]);
        c.add(5);
        assert_eq!(r.gather().len(), 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        r.instrument::<Counter>("conflict_metric", "help", &[]);
        r.instrument::<Gauge>("conflict_metric", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_across_label_sets_panics() {
        static H: Global<Histogram> = Global::new("mixed", "help", &[("a", "1")], Histogram::new());
        let r = Registry::new();
        r.export(&H);
        r.instrument::<Counter>("mixed", "help", &[("a", "2")]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        let r = Registry::new();
        r.instrument::<Counter>("bad-name", "help", &[]);
    }

    #[test]
    fn exports_are_idempotent() {
        static C: Global<Counter> = Global::new("static_total", "help", &[], Counter::new());
        let r = Registry::new();
        r.export(&C);
        r.export(&C);
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
