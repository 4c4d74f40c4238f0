//! End-to-end tests of the observability surface: a real engine, a
//! real TCP edge, and a plain `TcpStream` playing Prometheus.
//!
//! The GSW1 port doubles as the scrape endpoint — the server sniffs
//! the first bytes of each connection — so these tests drive traffic
//! through the normal wire client first, then scrape `GET /metrics`
//! off the very same listener and assert the exposition covers every
//! pipeline island (net, shard, NFA, kernel, stage timers).
//!
//! The cep/stream counters are process-global statics shared by every
//! test thread in this binary, so assertions on them are presence and
//! monotonicity, never exact values.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use gesto_kinect::{gestures, Performer, Persona, SkeletonFrame};
use gesto_serve::net::{NetClient, NetConfig, NetServer};
use gesto_serve::{Server, ServerConfig};
use gesto_telemetry::SampleValue;

fn swipe_frames(seed: u64) -> Vec<SkeletonFrame> {
    let mut p = Performer::new(Persona::reference().with_seed(seed), 0);
    p.render(&gestures::swipe_right())
}

fn teach_swipe(server: &Server) {
    let samples: Vec<_> = (0..3).map(swipe_frames).collect();
    server.teach("swipe_right", &samples).unwrap();
}

/// One raw HTTP exchange against the multiplexed port; returns
/// (status line + headers, body). The server always closes after one
/// response, so `read_to_end` terminates.
fn http(addr: SocketAddr, request: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(request.as_bytes()).unwrap();
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8(buf).expect("response is UTF-8");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a header/body separator");
    (head.to_owned(), body.to_owned())
}

/// The value of the first sample whose series starts with `prefix`.
fn sample_value(body: &str, prefix: &str) -> Option<f64> {
    body.lines()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.starts_with(prefix))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
}

#[test]
fn metrics_endpoint_covers_every_island() {
    let server = Server::start(ServerConfig::new().with_shards(2));
    teach_swipe(&server);
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();
    let addr = net.local_addr();

    // Real traffic first: two sessions over the wire, detections back.
    let mut client = NetClient::connect(addr).unwrap();
    for sid in [1u64, 2] {
        for chunk in swipe_frames(40 + sid).chunks(33) {
            client.send_batch(sid, chunk).unwrap();
        }
    }
    let detections = client.bye().unwrap();
    assert!(!detections.is_empty(), "traffic produced detections");

    let (head, body) = http(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
        "{head}"
    );
    let clen: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(clen, body.len(), "Content-Length matches the body");

    // Every line is either a comment or `series value`.
    for line in body.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect(line);
        value.parse::<f64>().expect(line);
    }

    // Net island: exact counts are this server's alone.
    let frames_sent = (2 * swipe_frames(41).len()) as f64;
    assert_eq!(
        sample_value(&body, "gesto_net_frames_received_total "),
        Some(frames_sent)
    );
    assert_eq!(
        sample_value(&body, "gesto_net_sessions_opened_total "),
        Some(2.0)
    );
    assert_eq!(
        sample_value(&body, "gesto_net_http_requests_total "),
        Some(1.0),
        "this very scrape is counted"
    );
    assert!(sample_value(&body, "gesto_net_e2e_latency_us_count ").unwrap() >= 1.0);

    // Shard island: per-shard labels, both shards present.
    for shard in ["0", "1"] {
        let p = format!("gesto_shard_frames_total{{shard=\"{shard}\"}}");
        assert!(sample_value(&body, &p).is_some(), "missing {p}");
    }
    let shard_frames: f64 = (0..2)
        .map(|s| {
            sample_value(&body, &format!("gesto_shard_frames_total{{shard=\"{s}\"}}")).unwrap()
        })
        .sum();
    assert_eq!(shard_frames, frames_sent, "edge and shards agree");
    assert!(sample_value(&body, "gesto_detections_total{gesture=\"swipe_right\"}").unwrap() >= 2.0);
    assert!(sample_value(&body, "gesto_shard_push_latency_us_count{shard=\"0\"}").is_some());

    // Engine islands (process-global): presence, not exact values.
    for family in [
        "gesto_nfa_runs_active ",
        "gesto_nfa_runs_seeded_total ",
        "gesto_nfa_matches_total ",
        "gesto_kernel_block_evals_total ",
        "gesto_kernel_scalar_fallback_total ",
        "gesto_blocks_built_total ",
    ] {
        assert!(sample_value(&body, family).is_some(), "missing {family}");
    }
    assert_eq!(
        sample_value(&body, "gesto_plans_compiled_total "),
        Some(1.0)
    );

    // Stage timers: sampled every batch here, so all five server-side
    // stages (and the wire decode) have counts.
    for stage in ["decode", "transform", "views", "nfa", "sink"] {
        let p = format!("gesto_stage_duration_ns_count{{stage=\"{stage}\"}}");
        assert!(
            sample_value(&body, &p).unwrap() >= 1.0,
            "stage {stage} never sampled"
        );
    }

    // HELP/TYPE headers come exactly once per family.
    let type_lines: Vec<&str> = body
        .lines()
        .filter(|l| l.starts_with("# TYPE gesto_stage_duration_ns "))
        .collect();
    assert_eq!(type_lines, ["# TYPE gesto_stage_duration_ns histogram"]);

    net.shutdown();
    server.shutdown();
}

#[test]
fn healthz_errors_and_split_writes() {
    let server = Server::start(ServerConfig::new().with_shards(1));
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();
    let addr = net.local_addr();

    let (head, body) = http(addr, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert_eq!(body, "healthy\n", "healthz reports the overload state");

    let (head, _) = http(addr, "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 404 Not Found\r\n"), "{head}");

    let (head, _) = http(addr, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(
        head.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
        "{head}"
    );

    // HEAD gets headers (with the true length) and no body.
    let (head, body) = http(addr, "HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{head}");
    assert!(head.contains("Content-Length: 8"), "{head}");
    assert!(body.is_empty());

    // A request arriving one byte at a time still parses: the sniffer
    // must not commit until it has seen enough.
    let mut s = TcpStream::connect(addr).unwrap();
    for b in "GET /healthz HTTP/1.1\r\n\r\n".as_bytes() {
        s.write_all(&[*b]).unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut buf = Vec::new();
    s.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.ends_with("healthy\n"));

    assert_eq!(net.metrics().http_requests(), 5);
    net.shutdown();
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_and_counted() {
    let server = Server::start(ServerConfig::new().with_shards(1));
    teach_swipe(&server);
    let net = NetServer::start(server.handle(), NetConfig::new().with_idle_timeout_ms(50)).unwrap();

    // A handshaken client that then falls silent.
    let client = NetClient::connect(net.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while net.metrics().idle_closed() == 0 {
        assert!(Instant::now() < deadline, "idle sweep never fired");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(net.metrics().idle_closed(), 1);
    assert_eq!(net.metrics().connections_active(), 0);
    drop(client);

    // The registry records it under the stable name.
    let body = server.handle().registry().render();
    assert!(
        body.contains("gesto_net_idle_closed_total 1"),
        "missing idle counter in:\n{body}"
    );

    net.shutdown();
    server.shutdown();
}

/// The `config` label of `server`'s `gesto_build_info`, after checking
/// the sample is 1 and carries this crate's version.
fn config_label(server: &Server) -> String {
    let body = server.handle().registry().render();
    let line = body
        .lines()
        .find(|l| l.starts_with("gesto_build_info{"))
        .expect("gesto_build_info is exported");
    assert!(line.ends_with(" 1"), "{line}");
    let version = format!("version=\"{}\"", env!("CARGO_PKG_VERSION"));
    assert!(line.contains(&version), "{line}");
    let (_, rest) = line.split_once("config=\"").expect("a config label");
    rest.split('"').next().unwrap().to_owned()
}

#[test]
fn build_info_tells_configs_apart() {
    let one = Server::start(ServerConfig::new().with_shards(1));
    let same = Server::start(ServerConfig::new().with_shards(1));
    let two = Server::start(ServerConfig::new().with_shards(2));
    assert_eq!(config_label(&one), config_label(&same));
    assert_ne!(config_label(&one), config_label(&two));
    for server in [one, same, two] {
        server.shutdown();
    }
}

/// The "Metric catalog" section of `docs/OBSERVABILITY.md`: from its
/// heading to the next second-level heading.
fn catalog(doc: &str) -> &str {
    let catalog = doc
        .split_once("\n## Metric catalog")
        .expect("the doc has a metric catalog")
        .1;
    catalog.split("\n## ").next().unwrap()
}

/// Every backticked `gesto_*` token in `text`, label selectors stripped
/// (`gesto_net_*`-style prefixes in section titles are not names).
fn families_in(text: &str) -> impl Iterator<Item = String> + '_ {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|code| code.starts_with("gesto_") && !code.ends_with('*'))
        .map(|code| code.split('{').next().unwrap().to_owned())
}

/// The catalog's Type column: each family named in a table row's first
/// cell, with the kind in the row's second (a family may have a row
/// per label value).
fn documented_kinds(doc: &str) -> std::collections::BTreeMap<String, String> {
    let mut kinds = std::collections::BTreeMap::new();
    for row in catalog(doc).lines().filter(|l| l.starts_with("| `gesto_")) {
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        for name in families_in(cells[1]) {
            let previous = kinds.insert(name.clone(), cells[2].to_owned());
            assert!(
                previous.is_none_or(|kind| kind == cells[2]),
                "{name}'s catalog rows disagree on its kind"
            );
        }
    }
    kinds
}

/// The catalog and the live registry name the same families, both
/// directions, and give each the same kind: a metric cannot ship
/// undocumented, the docs cannot keep one that is gone, and a family
/// rewired with the wrong instrument fails here. The server is durable,
/// has a plan deployed, has detected once and has reaped an idle
/// connection, so every conditional family is present. Its edge has
/// restarted and a second server runs beside it, so registration is
/// exercised twice over.
#[test]
fn observability_catalog_matches_the_live_registry() {
    let dir = std::env::temp_dir().join(format!("gesto-catalog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServerConfig::new().with_shards(1).with_durability(&dir));
    teach_swipe(&server);
    let net = NetServer::start(server.handle(), NetConfig::new().with_idle_timeout_ms(50)).unwrap();
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    client.send_batch(1, &swipe_frames(41)).unwrap();
    assert!(
        !client.bye().unwrap().is_empty(),
        "one batch, one detection"
    );
    let idle = NetClient::connect(net.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while net.metrics().idle_closed() == 0 {
        assert!(Instant::now() < deadline, "idle sweep never fired");
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(idle);

    // Restart the edge on the same handle, then start a second server
    // in the process. The edge's counters carry on across the restart,
    // and the first server still renders each series exactly once.
    let received = net.metrics().frames_received();
    net.shutdown();
    let net = NetServer::start(server.handle(), NetConfig::new()).unwrap();
    let frames = swipe_frames(42);
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    client.send_batch(1, &frames).unwrap();
    client.bye().unwrap();
    assert_eq!(
        net.metrics().frames_received(),
        received + frames.len() as u64
    );
    let other = Server::start(ServerConfig::new().with_shards(1));
    let (_, body) = http(net.local_addr(), "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
    let mut series = std::collections::BTreeMap::<&str, usize>::new();
    for line in body.lines().filter(|l| !l.starts_with('#')) {
        *series.entry(line.rsplit_once(' ').unwrap().0).or_default() += 1;
    }
    let repeated: Vec<_> = series.iter().filter(|&(_, &n)| n > 1).collect();
    assert!(repeated.is_empty(), "series rendered twice: {repeated:?}");
    other.shutdown();

    let live: std::collections::BTreeMap<String, &str> = server
        .handle()
        .registry()
        .gather()
        .into_iter()
        .map(|sample| {
            let kind = match sample.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            (sample.name, kind)
        })
        .collect();
    net.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    let doc = include_str!("../../../docs/OBSERVABILITY.md");
    let documented: std::collections::BTreeSet<String> = families_in(catalog(doc)).collect();
    let undocumented: Vec<_> = live.keys().filter(|n| !documented.contains(*n)).collect();
    let stale: Vec<_> = documented
        .iter()
        .filter(|n| !live.contains_key(*n))
        .collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "docs/OBSERVABILITY.md drifted from the registry:\n  \
         exported but not in the catalog: {undocumented:?}\n  \
         in the catalog but not exported: {stale:?}"
    );
    let kinds = documented_kinds(doc);
    for (name, kind) in &live {
        assert_eq!(
            kinds.get(name).map(String::as_str),
            Some(*kind),
            "{name}: the catalog's Type column disagrees with the registry"
        );
    }
}
