//! The repo's benchmark: four named workloads, end-to-end `fps` and
//! detection latency, and a per-layer ledger measured from outside the
//! program. See `README.md` beside this package for metrics, workloads,
//! bounds and the one command.

mod gen;
mod oracle;
mod shadow;
mod stats;
mod workloads;

use std::time::Instant;

use oracle::Oracle;
use stats::{median, quantile, quartiles};
use workloads::{
    run_closed, run_paced, Ledger, Outcome, SetupTimes, Spec, System, LATENCY_LIMIT_US,
    MEASURE_START, SPECS,
};

/// Share of a traced run's `--seconds` the server itself is driven for
/// (its counts and its `fps` anchor the ledger); the shadow pipeline's
/// passes take about as long again.
const TRACED_SERVER_SHARE: f64 = 0.4;
/// Idle round-trips timed for `net.ping_rtt_p50_us`.
const PINGS: usize = 200;
/// Frames per session the shadow pipeline replays on a closed loop.
const SHADOW_FRAMES: usize = gen::TRACE_FRAMES;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Regression bounds of the end-to-end metrics, as in `BENCHMARK.json`.
const BOUNDS: [(&str, f64); 3] = [("fps", 0.25), ("lat_p50_us", 0.25), ("setup_s", 0.25)];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None` when `--trace` was not given at all.
    trace: Option<bool>,
    repeat: usize,
    ladder: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: None,
        repeat: 1,
        ladder: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--seed" => args.seed = parse(&value("--seed"), "--seed"),
            "--seconds" => args.seconds = parse(&value("--seconds"), "--seconds"),
            "--repeat" => args.repeat = parse(&value("--repeat"), "--repeat"),
            "--ladder" => args.ladder = true,
            // `--trace`, `--trace 0` and `--trace 1` are all accepted.
            "--trace" => {
                args.trace = Some(match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                })
            }
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 || args.repeat == 0 {
        usage("--seconds and --repeat must be positive");
    }
    args
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| usage(&format!("{flag}: cannot parse '{s}'")))
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--repeat N] [--ladder]\n\
         workloads: {}",
        SPECS.map(|s| s.name).join(", ")
    );
    std::process::exit(2);
}

fn spec_named(name: &str) -> &'static Spec {
    SPECS
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| usage(&format!("unknown workload '{name}'")))
}

/// First line of a tool's output, or "unknown" (the checkout the driver
/// runs in is not a git repository, and git must not go looking for one
/// above it).
fn tool_line(cmd: &str, args: &[&str]) -> String {
    let above = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_owned))
        .unwrap_or_default();
    std::process::Command::new(cmd)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The one header every output carries.
fn print_header(args: &Args) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# gesto perfbench  commit={} host_cores={cores} rustc=\"{}\" seed={} seconds={}",
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["--version"]),
        args.seed,
        args.seconds
    );
    println!("# ServerConfig: {:?}", workloads::server_config());
    println!("# NetConfig: {:?}", workloads::net_config());
}

/// One value of one named metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    n: usize,
}

/// A finished run of one workload.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Open loop: detections past the latency limit plus messages left
    /// outstanding (beyond one per session) when the schedule ended.
    /// Host-dependent, so outside `failed`; the ladder judges by it.
    off_limit: u64,
    metrics: Vec<Metric>,
}

impl Report {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!(
                "{workload:<17} {:<32} {:>16.4} {:<8} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
    }

    /// The result object the driver reads from the last line of stdout.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `run` on a fresh generator thread placed for `spec`.
///
/// The shard is pinned to core 1 by the server configuration. In
/// process, the generator is pinned to core 0: left alone, the kernel
/// tends to wake the blocked producer on the shard's core, the two
/// time-share it, and `fps` drops by a sixth and wanders. Over the
/// wire the generator stays unpinned, because it shares core 0 with the
/// edge's I/O thread and the scheduler balances those two better than a
/// fixed placement does (pinned, `wire_saturate` loses a third).
fn on_generator_thread<T: Send>(spec: &Spec, run: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                if !spec.wire && !gesto_serve::affinity::pin_current_thread(0) {
                    eprintln!(
                        "perfbench: could not pin the generator thread; results will be noisier"
                    );
                }
                run()
            })
            .join()
            .expect("generator thread panicked")
    })
}

/// What the server did with one measured run, judged against the
/// reference and the conservation identity.
struct Served {
    out: Outcome,
    ledger: Ledger,
    expected: u64,
    missing: u64,
    extra: u64,
    failed: u64,
    /// Open loop: detections received later than `LATENCY_LIMIT_US`
    /// after their frame was due. Reported, not counted into `failed`.
    late: u64,
    backlog_excess: u64,
    correct: bool,
    lat_p50_us: f64,
    lat_p99_us: f64,
    lat_n: usize,
    /// Time the reference computation took (the benchmark's own work).
    oracle_s: f64,
}

/// Drives `sys` for `seconds`, stops it, and judges the run.
fn serve(spec: &Spec, mut sys: System<'_>, seconds: f64, oracle: &mut Oracle<'_>) -> Served {
    let mut out = if spec.paced {
        run_paced(&mut sys, seconds)
    } else {
        run_closed(&mut sys, seconds)
    };
    let ledger = sys.shutdown();
    let t = Instant::now();
    let (expected, missing, extra) = oracle.check(&mut out.observed, MEASURE_START, out.end);
    let oracle_s = t.elapsed().as_secs_f64();

    let late = if spec.paced {
        out.lat_us
            .iter()
            .flatten()
            .filter(|&&l| l > LATENCY_LIMIT_US)
            .count() as u64
    } else {
        0
    };
    // `failed` counts only what the same inputs reproduce: work the
    // system lost, refused or answered wrongly. Lateness and a backlog
    // at the schedule's end depend on how the host scheduled this run
    // (one 33 ms pause of a shared core makes a cluster of late
    // detections), so they are reported beside it, and show in the
    // gated `lat_p50_us`, which is timed from each message's due time.
    let failed = ledger.frames_lost() + ledger.notices() + missing + extra + out.unplaced;
    // More than one message per session outstanding at the schedule's
    // end marks the offered rate unsustainable.
    let backlog_excess = out.backlog_end.saturating_sub(spec.sessions as u64);
    let correct = missing == 0 && extra == 0 && out.unplaced == 0 && ledger.conserved(spec.batch());

    // Quantiles of each group that saw a detection at all (a short run
    // can leave one empty), then the median over groups.
    let (mut p50, mut p99): (Vec<f64>, Vec<f64>) = out
        .lat_us
        .iter_mut()
        .filter(|l| !l.is_empty())
        .map(|l| (quantile(l, 0.50), quantile(l, 0.99)))
        .unzip();
    Served {
        lat_p50_us: median(&mut p50),
        lat_p99_us: median(&mut p99),
        lat_n: out.lat_us.iter().map(Vec::len).sum(),
        out,
        ledger,
        expected,
        missing,
        extra,
        failed,
        late,
        backlog_excess,
        correct,
        oracle_s,
    }
}

/// The plain run of one workload, set-up included: end-to-end metrics.
fn run_plain(spec: &Spec, seed: u64, seconds: f64) -> Report {
    on_generator_thread(spec, || plain(spec, seed, seconds))
}

fn plain(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let t = Instant::now();
    let traces = gen::traces(seed);
    let catalog = gen::catalog(seed, spec.gestures);
    let gen_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut oracle = Oracle::new(&workloads::learn(&catalog), &traces);
    let ids = oracle.ids().clone();
    let oracle_new_s = t.elapsed().as_secs_f64();

    // Set up several times; the last system is the one measured.
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut system = None;
    for _ in 0..SETUPS {
        if let Some(old) = system.take() {
            System::shutdown(old);
        }
        let (sys, times) = System::setup(spec, &traces, &catalog, &ids);
        setups.push(times);
        system = Some(sys);
    }
    let mut run = serve(spec, system.expect("SETUPS > 0"), seconds, &mut oracle);
    let oracle_s = oracle_new_s + run.oracle_s;

    let last = setups[SETUPS - 1];
    println!(
        "{:<17} frames={} segments={} wall_s={:.3} detections_expected={} missing={} extra={} \
         conserved={} lost={} notices={} blocked_share={:.3} queue_depth_max={} gen_s={gen_s:.3} oracle_s={oracle_s:.3}",
        spec.name,
        run.out.frames,
        run.out.fps.len(),
        run.out.wall_s,
        run.expected,
        run.missing,
        run.extra,
        run.ledger.conserved(spec.batch()),
        run.ledger.frames_lost(),
        run.ledger.notices(),
        run.out.blocked_share,
        run.ledger.queue_depth_max,
    );
    println!(
        "{:<17} setup: start_s={:.4} learn_s={:.4} deploy_s={:.4} open_s={:.4} warmup_s={:.4}",
        spec.name, last.start_s, last.learn_s, last.deploy_s, last.open_s, last.warmup_s
    );
    if spec.paced {
        println!(
            "{:<17} open loop: offered_fps={:.0} gen_late_p99_us={:.1} backlog_end={} late_detections={} late_limit_us={LATENCY_LIMIT_US:.0}",
            spec.name,
            spec.sessions as f64 * workloads::SENSOR_HZ,
            quantile(&mut run.out.gen_late_us, 0.99),
            run.out.backlog_end,
            run.late
        );
    }
    // Not gated (see README): on the open loop it is set by a handful of
    // scheduling hiccups of this host. The traced run reports it too.
    println!(
        "{:<17} lat_p99_us={:.1} (ungated) latency_samples={}",
        spec.name, run.lat_p99_us, run.lat_n
    );
    let mut setup_total: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let m = |name, value, unit, n| Metric {
        name,
        value,
        unit,
        n,
    };
    Report {
        correct: run.correct,
        attempted: run.out.frames + run.expected,
        failed: run.failed,
        off_limit: run.late + run.backlog_excess,
        metrics: vec![
            m("fps", median(&mut run.out.fps), "1/s", run.out.fps.len()),
            m("lat_p50_us", run.lat_p50_us, "us", run.lat_n),
            m("setup_s", median(&mut setup_total), "s", SETUPS),
        ],
    }
}

/// The traced run of one workload: the server for a while (counts,
/// `serve.*`), then the shadow pipeline over the same inputs (spans),
/// then the layer-separation check. Reports the per-layer metrics.
fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Report {
    on_generator_thread(spec, || traced(spec, seed, seconds))
}

fn traced(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let traces = gen::traces(seed);
    let catalog = gen::catalog(seed, spec.gestures);
    let queries = workloads::learn(&catalog);
    let mut oracle = Oracle::new(&queries, &traces);
    let ids = oracle.ids().clone();

    // Break-down of set-up: learning and deploying are timed inside it;
    // compiling alone is timed here, on the same queries.
    let t = Instant::now();
    let plans = shadow::compile(&queries);
    let compile_us_per_plan = t.elapsed().as_secs_f64() * 1e6 / plans.len() as f64;
    drop(plans);

    let (mut sys, setup) = System::setup(spec, &traces, &catalog, &ids);
    let ping_rtt_p50_us = sys.ping_rtt_p50_us(PINGS);
    let mut run = serve(spec, sys, seconds * TRACED_SERVER_SHARE, &mut oracle);
    let server_fps = median(&mut run.out.fps);

    let shadow_end = if spec.paced {
        run.out.end
    } else {
        MEASURE_START + SHADOW_FRAMES
    };
    let layers = shadow::measure(spec, &traces, &queries, &ids, shadow_end, |observed| {
        let (_, missing, extra) = oracle.check(observed, MEASURE_START, shadow_end);
        missing == 0 && extra == 0
    });
    let layers = layers.unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", spec.name);
        std::process::exit(1);
    });

    // Layer separation: each workload must actually stress the layers
    // it was chosen for, and spans must account for their parent.
    let (share, what) = if spec.match_heavy() {
        (layers.match_share(), "cep.expr+cep.nfa")
    } else {
        (layers.front_share(), "kinect+transform+stream")
    };
    let separated = share >= 0.5 && layers.worst_child_gap <= 0.10;
    println!(
        "{:<17} layer check: {what} = {:.1} % of cep.engine.push_batch_ns (need >= 50), worst parent/children gap {:.2} % (need <= 10): {}",
        spec.name,
        share * 100.0,
        layers.worst_child_gap * 100.0,
        if separated { "ok" } else { "FAILED" }
    );
    println!(
        "{:<17} spans: {} kept, {} written to {}; distinct_step_predicates {} / {}; shadow detections equal the reference",
        spec.name,
        layers.spans_total,
        layers.spans_written,
        layers.span_file,
        layers.distinct_step_predicates,
        layers.total_step_predicates
    );

    // Nothing outside the engine is left over on an open loop that is
    // not saturated; the residual only means something on a closed one.
    let other_ns = if spec.paced {
        0.0
    } else {
        (1e9 / server_fps - layers.push_batch_ns()).max(0.0)
    };
    let frames = layers.frames as usize;
    let segments = run.out.fps.len();
    let ledger = &run.ledger;
    let m = |name, value, unit, n| Metric {
        name,
        value,
        unit,
        n,
    };
    Report {
        correct: run.correct && separated,
        attempted: run.out.frames + run.expected,
        failed: run.failed,
        off_limit: run.late + run.backlog_excess,
        metrics: vec![
            m("net.wire.encode_ns", layers.encode_ns(), "ns/frame", frames),
            m("net.wire.decode_ns", layers.decode_ns(), "ns/frame", frames),
            m(
                "net.bytes_per_frame",
                layers.wire_bytes as f64 / layers.frames as f64,
                "B/frame",
                frames,
            ),
            m(
                "net.credit_stalls",
                ledger.net_credit_stalls as f64,
                "count",
                1,
            ),
            m(
                "net.batches_parked",
                ledger.net_batches_parked as f64,
                "count",
                1,
            ),
            m(
                "net.sessions_rejected",
                ledger.net_sessions_rejected as f64,
                "count",
                1,
            ),
            m("net.ping_rtt_p50_us", ping_rtt_p50_us, "us", PINGS),
            m(
                "kinect.to_tuples_ns",
                layers.to_tuples_ns(),
                "ns/frame",
                frames,
            ),
            m(
                "kinect.write_block_ns",
                layers.write_block_ns(),
                "ns/frame",
                frames,
            ),
            m(
                "transform.kinect_t_ns",
                layers.kinect_t_ns(),
                "ns/frame",
                frames,
            ),
            m(
                "stream.views_ns",
                layers.views_self_ns(),
                "ns/frame",
                frames,
            ),
            m(
                "cep.expr.prepass_ns",
                layers.prepass_ns(),
                "ns/frame",
                frames,
            ),
            m(
                "cep.expr.scalar_fallback_share",
                layers.fallback_share(),
                "ratio",
                layers.block_rows as usize,
            ),
            m("cep.nfa.step_ns", layers.nfa_self_ns(), "ns/frame", frames),
            m("cep.nfa.runs_seeded", layers.runs_seeded as f64, "count", 1),
            m("cep.nfa.matches", layers.matches as f64, "count", 1),
            m("cep.nfa.runs_shed", layers.runs_shed as f64, "count", 1),
            m(
                "cep.engine.push_batch_ns",
                layers.push_batch_ns(),
                "ns/frame",
                frames,
            ),
            m(
                "cep.engine.baseline_fps",
                layers.baseline_fps,
                "1/s",
                frames,
            ),
            m("serve.fps", server_fps, "1/s", segments),
            m("serve.lat_p50_us", run.lat_p50_us, "us", run.lat_n),
            m("serve.lat_p99_us", run.lat_p99_us, "us", run.lat_n),
            m("serve.shard.other_ns", other_ns, "ns/frame", segments),
            m(
                "serve.push_blocked_share",
                run.out.blocked_share,
                "ratio",
                1,
            ),
            m(
                "serve.queue_depth_max",
                run.ledger.queue_depth_max as f64,
                "count",
                1,
            ),
            m(
                "serve.push_latency_p99_us",
                ledger.push_latency_p99_us as f64,
                "us",
                1,
            ),
            m("core.learn_s", setup.learn_s, "s", 1),
            m(
                "cep.plan.compile_us_per_plan",
                compile_us_per_plan,
                "us",
                spec.gestures,
            ),
            m(
                "serve.deploy_ms_per_plan",
                setup.deploy_s * 1e3 / spec.gestures as f64,
                "ms",
                spec.gestures,
            ),
            m(
                "gen.late_p99_us",
                quantile(&mut run.out.gen_late_us, 0.99),
                "us",
                run.out.gen_late_us.len(),
            ),
            m("gen.backlog_end", run.out.backlog_end as f64, "count", 1),
            m("serve.late_detections", run.late as f64, "count", run.lat_n),
            m(
                "trace.overhead_share",
                1.0 - layers.traced_fps / layers.baseline_fps,
                "ratio",
                frames,
            ),
        ],
    }
}

/// `--repeat N`: median and quartiles of every end-to-end metric over N
/// runs, flagging any whose spread exceeds its bound.
fn print_repeat(workload: &str, runs: &[Report]) {
    for (name, bound) in BOUNDS {
        let mut values: Vec<f64> = runs.iter().map(|r| r.value(name)).collect();
        let (q1, q3) = quartiles(&mut values);
        let med = median(&mut values);
        let spread = (q3 - q1) / med;
        println!(
            "{workload:<17} {name:<12} median={med:.4} q1={q1:.4} q3={q3:.4} spread={spread:.4} bound={bound} {}",
            if spread > bound { "SPREAD EXCEEDS BOUND" } else { "ok" }
        );
    }
}

/// `--ladder`: the open loop at 0.5x/1x/2x/4x the session count, 10 s
/// each; prints the highest offered rate that met the latency limit
/// with nothing failed and no backlog left. Not gated.
fn ladder(args: &Args) {
    let base = spec_named("wire_paced");
    let mut max_rate = 0.0f64;
    for factor in [0.5, 1.0, 2.0, 4.0] {
        let spec = base.with_sessions((base.sessions as f64 * factor) as usize);
        let offered = spec.sessions as f64 * workloads::SENSOR_HZ;
        let report = run_plain(&spec, args.seed, 10.0);
        let within = report.correct && report.failed == 0 && report.off_limit == 0;
        println!(
            "ladder            sessions={} offered_fps={offered:.0} delivered_fps={:.0} lat_p50_us={:.1} failed={} off_limit={} within_limit={within}",
            spec.sessions,
            report.value("fps"),
            report.value("lat_p50_us"),
            report.failed,
            report.off_limit
        );
        if within {
            max_rate = max_rate.max(offered);
        }
    }
    println!("ladder            max_rate_within_limit {max_rate:.0} 1/s");
}

fn main() {
    let args = parse_args();
    print_header(&args);
    if args.ladder {
        ladder(&args);
        return;
    }
    let specs: Vec<&'static Spec> = match &args.workload {
        Some(name) => vec![spec_named(name)],
        None => SPECS.iter().collect(),
    };
    // One workload: the run `--trace` selects. All workloads with no
    // `--trace`: both runs of each, so one command prints every metric.
    let modes: Vec<bool> = match (&args.workload, args.trace) {
        (None, None) => vec![false, true],
        (_, trace) => vec![trace.unwrap_or(false)],
    };
    let mut all_ok = true;
    let mut last = None;
    let mut plain_fps = Vec::new();
    for spec in specs {
        println!("# {}: {}", spec.name, spec.why);
        for &traced in &modes {
            let mut runs = Vec::new();
            for _ in 0..args.repeat {
                let report = if traced {
                    run_traced(spec, args.seed, args.seconds)
                } else {
                    run_plain(spec, args.seed, args.seconds)
                };
                report.print(spec.name);
                all_ok &= report.correct;
                runs.push(report);
            }
            if args.repeat > 1 && !traced {
                print_repeat(spec.name, &runs);
            }
            if !traced {
                plain_fps.push((spec.name, runs[runs.len() - 1].value("fps")));
            }
            last = runs.pop();
        }
    }
    // The edge's cost needs two workloads, so only a full run has it.
    let fps_of = |name: &str| plain_fps.iter().find(|(n, _)| *n == name).map(|(_, f)| *f);
    if let (Some(wire), Some(inproc)) = (fps_of("wire_saturate"), fps_of("inproc_512x4")) {
        println!(
            "all               net.edge_ns = 1e9/fps(wire_saturate) - 1e9/fps(inproc_512x4) = {:.1} ns/frame (ratio {:.3})",
            1e9 / wire - 1e9 / inproc,
            inproc / wire
        );
    }
    if let Some(report) = last {
        println!("{}", report.json());
    }
    if !all_ok {
        eprintln!("perfbench: a run's outputs differ from the reference or a check failed");
        std::process::exit(1);
    }
}
