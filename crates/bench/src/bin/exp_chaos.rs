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
//!     exp_chaos [--smoke] [--frames N] [--trials N]
//!
//! `--smoke` runs every scenario on a small workload and skips the
//! overhead A/B — the CI chaos step.

use gesto_bench::chaos::{
    drivers_for, overhead_ab, run_persona, ChaosDriver, ChaosScale, PERSONAS,
};
use gesto_bench::Table;

struct Args {
    smoke: bool,
    frames: usize,
    trials: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        frames: 0, // 0 = scale default
        trials: 5,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--frames" => args.frames = it.next().expect("--frames N").parse().expect("number"),
            "--trials" => args.trials = it.next().expect("--trials N").parse().expect("number"),
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

    let plan: Vec<(&str, ChaosDriver)> = PERSONAS
        .iter()
        .flat_map(|p| drivers_for(p).iter().map(move |d| (*p, *d)))
        .collect();

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
        "quarantined",
        "detections",
        "expected",
        "recovery_ms",
    ]);
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
            o.quarantined_frames.to_string(),
            o.detections.to_string(),
            o.expected_detections
                .map_or_else(|| "-".into(), |e| e.to_string()),
            o.recovery_ms
                .map_or_else(|| "-".into(), |r| format!("{r:.0}")),
        ]);
    }
    table.print();
    println!("\nconservation + exactly-once + bounded-recovery held on every scenario ✓");

    if !args.smoke {
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
    }
}
