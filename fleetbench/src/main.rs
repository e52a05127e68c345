//! `es-fleetbench --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]`
//!
//! (`--rep KIND` is the internal child mode: one repetition per process.)
//!
//! Runs one workload and prints a report whose last line is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones from a separate traced run.

use std::process::ExitCode;

use es_fleetbench::child::{self, Kind};
use es_fleetbench::workload::Workload;
use es_fleetbench::{calib, e2e, report, trace};

/// Host seconds each calibration oracle runs for.
const CALIBRATION_S: f64 = 0.1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    rep: Option<Kind>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: Workload::FanoutOvl,
        seed: 1,
        seconds: 20.0,
        trace: false,
        tiny: false,
        rep: None,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match (flag.as_str(), value.as_str()) {
            ("--workload", v) => workload = Some(Workload::parse(v).ok_or_else(bad)?),
            ("--seed", v) => args.seed = v.parse().map_err(|_| bad())?,
            ("--seconds", v) => args.seconds = v.parse().map_err(|_| bad())?,
            ("--trace", "0") | ("--size", "full") => {}
            ("--trace", "1") => args.trace = true,
            ("--size", "tiny") => args.tiny = true,
            ("--rep", v) => args.rep = Some(Kind::parse(v).ok_or_else(bad)?),
            ("--trace" | "--size", _) => return Err(bad()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("es-fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    if let Some(kind) = args.rep {
        child::serve(w, args.seed, args.tiny, kind);
        return ExitCode::SUCCESS;
    }
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("es-fleetbench: cannot locate own binary: {e}");
            return ExitCode::from(2);
        }
    };
    let size = w.size(args.tiny);
    let host = calib::host(CALIBRATION_S);
    println!(
        "# fleetbench {} seed={} speakers={} audio_ms={} trace={}",
        w.name(),
        args.seed,
        size.speakers,
        size.audio_ms,
        u8::from(args.trace)
    );
    for line in report::host_lines(&host) {
        println!("{line}");
    }
    let (attempted, failed, failures, metrics) = if args.trace {
        let t = trace::measure(&exe, w, args.seed, args.tiny, &host);
        (t.attempted, t.failed, t.failures, t.metrics)
    } else {
        let e = e2e::measure(&exe, w, args.seed, args.tiny, args.seconds);
        println!(
            "reps {} timed ({} attempted), {} ticks each, timed as their minimum over the reps; tick_tail_ms is p{}",
            e.timed_reps, e.attempted, e.ticks, e.tail_pct
        );
        (e.attempted, e.failed, e.failures, e.metrics)
    };
    for m in &metrics {
        println!("{}", report::metric_line(m));
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    println!(
        "{}",
        report::result_line(failures.is_empty(), attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
