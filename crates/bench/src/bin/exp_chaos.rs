//! Adversarial chaos harness: runs every hostile-client persona
//! against a live server through both drivers (in-process `push_batch`
//! and real TCP through the GSW1 edge), asserting the robustness
//! invariants — frame conservation, exactly-once detection under the
//! lossless policy, and bounded recovery from injected worker panics —
//! then measures the steady-state overhead of idle admission control
//! with an A/B leg.
//!
//! Usage:
//!
//!     exp_chaos [--smoke] [--frames N] [--trials N] [--json PATH]
//!
//! `--smoke` runs three representative scenarios on a small workload
//! and skips the overhead A/B — the CI chaos step. The full run writes
//! `BENCH_robustness.json`.

use gesto_bench::chaos::{
    drivers_for, overhead_ab, run_persona, ChaosDriver, ChaosOutcome, ChaosScale, PERSONAS,
};
use gesto_bench::{json_escape, Table};

struct Args {
    smoke: bool,
    frames: usize,
    trials: usize,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        frames: 0, // 0 = scale default
        trials: 5,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--frames" => args.frames = it.next().expect("--frames N").parse().expect("number"),
            "--trials" => args.trials = it.next().expect("--trials N").parse().expect("number"),
            "--json" => args.json = Some(it.next().expect("--json PATH")),
            other => panic!("unknown argument '{other}'"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut scale = if args.smoke {
        ChaosScale::smoke()
    } else {
        ChaosScale::full()
    };
    if args.frames > 0 {
        scale.frames = args.frames;
    }

    // Smoke keeps an overload persona in-process and the panic persona
    // through both drivers.
    let plan: Vec<(&str, ChaosDriver)> = if args.smoke {
        vec![
            ("bursty", ChaosDriver::InProcess),
            ("panic_injection", ChaosDriver::InProcess),
            ("panic_injection", ChaosDriver::Wire),
        ]
    } else {
        PERSONAS
            .iter()
            .flat_map(|p| drivers_for(p).iter().map(move |d| (*p, *d)))
            .collect()
    };

    println!(
        "chaos sweep: {} scenario(s), {} frames/session{}\n",
        plan.len(),
        scale.frames,
        if args.smoke { " (smoke)" } else { "" }
    );

    let mut table = Table::new(&[
        "persona",
        "driver",
        "sessions",
        "sent",
        "in",
        "shed",
        "stale",
        "quota",
        "quarantined",
        "detections",
        "expected",
        "recovery_ms",
    ]);
    let mut outcomes: Vec<ChaosOutcome> = Vec::new();
    for (persona, driver) in plan {
        // run_persona panics if any invariant breaks; returning is the
        // scenario's pass certificate.
        let o = run_persona(persona, driver, scale);
        table.row(&[
            o.persona.to_string(),
            o.driver.to_string(),
            o.sessions.to_string(),
            o.frames_sent.to_string(),
            o.frames_in.to_string(),
            o.shed_frames.to_string(),
            o.stale_frames.to_string(),
            o.quota_frames.to_string(),
            o.quarantined_frames.to_string(),
            o.detections.to_string(),
            o.expected_detections
                .map_or_else(|| "-".into(), |e| e.to_string()),
            o.recovery_ms
                .map_or_else(|| "-".into(), |r| format!("{r:.0}")),
        ]);
        outcomes.push(o);
    }
    table.print();
    println!("\nconservation + exactly-once + bounded-recovery held on every scenario ✓");

    let overhead = if args.smoke {
        None
    } else {
        let frames = if args.frames > 0 { args.frames } else { 40_000 };
        let report = overhead_ab(frames, args.trials);
        println!(
            "\nadmission overhead A/B ({} frames, best of {}): admission off {:.0} f/s, idle admission on {:.0} f/s → {:+.2}%",
            report.frames, report.trials, report.base_fps, report.hardened_fps, report.overhead_pct
        );
        assert!(
            report.overhead_pct < 1.0,
            "idle admission overhead {:.2}% breaches the <1% guardrail",
            report.overhead_pct
        );
        println!("steady-state admission overhead < 1% guardrail held ✓");
        Some(report)
    };

    if let Some(path) = &args.json {
        let mut rows = String::new();
        for (i, o) in outcomes.iter().enumerate() {
            if i > 0 {
                rows.push_str(",\n");
            }
            let expected = o
                .expected_detections
                .map_or_else(|| "null".into(), |e| e.to_string());
            let recovery = o
                .recovery_ms
                .map_or_else(|| "null".into(), |r| format!("{r:.1}"));
            rows.push_str(&format!(
                "    {{\"persona\": \"{}\", \"driver\": \"{}\", \"sessions\": {}, \"frames_sent\": {}, \"frames_in\": {}, \"shed_frames\": {}, \"stale_frames\": {}, \"quota_frames\": {}, \"quarantined_frames\": {}, \"detections\": {}, \"expected_detections\": {expected}, \"recovery_ms\": {recovery}, \"elapsed_ms\": {:.1}, \"conserved\": true}}",
                json_escape(o.persona),
                o.driver,
                o.sessions,
                o.frames_sent,
                o.frames_in,
                o.shed_frames,
                o.stale_frames,
                o.quota_frames,
                o.quarantined_frames,
                o.detections,
                o.elapsed_ms
            ));
        }
        let overhead_json = overhead.as_ref().map_or_else(
            || "null".to_string(),
            |r| {
                format!(
                    "{{\"frames\": {}, \"trials\": {}, \"base_fps\": {:.0}, \"hardened_fps\": {:.0}, \"overhead_pct\": {:.3}, \"guardrail_pct\": 1.0}}",
                    r.frames, r.trials, r.base_fps, r.hardened_fps, r.overhead_pct
                )
            },
        );
        let json = format!(
            "{{\n  \"experiment\": \"exp_chaos\",\n  \"smoke\": {},\n  \"frames_per_session\": {},\n  \"scenarios\": [\n{rows}\n  ],\n  \"overhead_ab\": {overhead_json}\n}}\n",
            args.smoke, scale.frames
        );
        std::fs::write(path, json).expect("write json");
        println!("\nwrote {path}");
    }
}
