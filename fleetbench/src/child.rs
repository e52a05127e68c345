//! Repetitions run in processes of their own.
//!
//! A built system is a web of shared handles that is never freed when
//! it is dropped, so two repetitions in one process would add up their
//! memory. Each repetition therefore runs in a child process of the
//! benchmark binary (`--rep KIND`), which prints a [`Summary`] as plain
//! lines on its standard output and exits; the parent waits for it.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::clock::{peak_rss_mb, timed};
use crate::metrics::{self, Metric};
use crate::run::{self, Stepping};
use crate::workload::{self, Workload};

/// What a child process runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One repetition advanced by a single `run_until`.
    Whole,
    /// One repetition stepped and timed per packet period.
    Tick,
    /// One stepped repetition with the per-layer tracing on.
    Traced,
    /// `SystemBuilder::build()` timed this many times, nothing run.
    Setup(usize),
}

impl Kind {
    fn arg(self) -> String {
        match self {
            Kind::Whole => "whole".into(),
            Kind::Tick => "tick".into(),
            Kind::Traced => "traced".into(),
            Kind::Setup(n) => format!("setup{n}"),
        }
    }

    /// Parses the `--rep` argument.
    pub fn parse(arg: &str) -> Option<Kind> {
        match arg {
            "whole" => Some(Kind::Whole),
            "tick" => Some(Kind::Tick),
            "traced" => Some(Kind::Traced),
            _ => arg.strip_prefix("setup")?.parse().ok().map(Kind::Setup),
        }
    }
}

/// What one child process measured.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// `SystemBuilder::build()` seconds, one per build.
    pub setup_s: Vec<f64>,
    /// Host seconds of each `run_until` call.
    pub ticks_s: Vec<f64>,
    /// Audio the fleet played, in speaker-seconds.
    pub speaker_seconds: f64,
    /// Share of the produced samples the fleet played.
    pub played_ratio: f64,
    /// Digest over every speaker's output digest.
    pub digest: u64,
    /// Peak resident memory of the child, MB.
    pub rss_mb: f64,
    /// Failed output checks.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced children only).
    pub layers: Vec<Metric>,
}

impl Summary {
    /// Host seconds spent inside `run_until`.
    pub fn run_s(&self) -> f64 {
        self.ticks_s.iter().sum()
    }

    fn to_lines(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .setup_s
            .iter()
            .map(|s| format!("setup_s {s:?}"))
            .collect();
        let ticks: Vec<String> = self.ticks_s.iter().map(|t| format!("{t:?}")).collect();
        out.push(format!("ticks {}", ticks.join(",")));
        out.push(format!(
            "played {:?} {:?} {}",
            self.speaker_seconds, self.played_ratio, self.digest
        ));
        out.push(format!("rss_mb {:?}", self.rss_mb));
        out.extend(self.failures.iter().map(|f| format!("fail {f}")));
        out.extend(
            self.layers
                .iter()
                .map(|m| format!("layer {} {:?}", m.name, m.value)),
        );
        out
    }

    fn from_lines(text: &str) -> Result<Summary, String> {
        let mut s = Summary::default();
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|e| format!("bad number {v:?}: {e}"))
        };
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "setup_s" => s.setup_s.push(num(rest)?),
                "ticks" => {
                    s.ticks_s = rest
                        .split(',')
                        .filter(|t| !t.is_empty())
                        .map(num)
                        .collect::<Result<_, _>>()?
                }
                "played" => {
                    let f: Vec<&str> = rest.split(' ').collect();
                    let [secs, ratio, digest] = f[..] else {
                        return Err(format!("bad played line {rest:?}"));
                    };
                    s.speaker_seconds = num(secs)?;
                    s.played_ratio = num(ratio)?;
                    s.digest = digest.parse().map_err(|e| format!("bad digest: {e}"))?;
                }
                "rss_mb" => s.rss_mb = num(rest)?,
                "fail" => s.failures.push(rest.to_string()),
                "layer" => {
                    let (name, value) = rest.split_once(' ').unwrap_or((rest, ""));
                    let m = metrics::layer(name, num(value)?)
                        .ok_or_else(|| format!("unknown layer metric {name:?}"))?;
                    s.layers.push(m);
                }
                _ => {}
            }
        }
        Ok(s)
    }
}

/// Runs one repetition of `kind` in a child process of `exe` and waits
/// for it. A child that fails or prints nonsense yields a summary with
/// one failure and no numbers.
pub fn spawn(exe: &Path, w: Workload, seed: u64, tiny: bool, kind: Kind) -> Summary {
    let output = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--size", if tiny { "tiny" } else { "full" }])
        .args(["--rep", &kind.arg()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let failed = |why: String| Summary {
        failures: vec![why],
        ..Summary::default()
    };
    match output {
        Ok(out) if out.status.success() => {
            Summary::from_lines(&String::from_utf8_lossy(&out.stdout))
                .unwrap_or_else(|e| failed(format!("{} repetition: {e}", kind.arg())))
        }
        Ok(out) => failed(format!(
            "{} repetition exited with {}",
            kind.arg(),
            out.status
        )),
        Err(e) => failed(format!("cannot start {}: {e}", exe.display())),
    }
}

/// The child side: runs one repetition in this process and prints its
/// summary.
pub fn serve(w: Workload, seed: u64, tiny: bool, kind: Kind) {
    let size = w.size(tiny);
    let summary = match kind {
        Kind::Setup(n) => Summary {
            setup_s: (0..n)
                .map(|_| {
                    let plan = workload::plan(w, seed, size);
                    timed(|| plan.builder.build()).1
                })
                .collect(),
            ..Summary::default()
        },
        Kind::Traced => crate::trace::traced(w, seed, size),
        Kind::Whole | Kind::Tick => {
            let stepping = if kind == Kind::Whole {
                Stepping::Whole
            } else {
                Stepping::PerTick
            };
            let rep = run::rep(w, seed, size, stepping);
            summarize(rep.setup_s, rep.ticks_s, &rep.played, rep.failures)
        }
    };
    for line in summary.to_lines() {
        println!("{line}");
    }
}

/// A summary of one finished repetition in this process.
pub fn summarize(
    setup_s: f64,
    ticks_s: Vec<f64>,
    played: &run::Played,
    failures: Vec<String>,
) -> Summary {
    Summary {
        setup_s: vec![setup_s],
        ticks_s,
        speaker_seconds: played.speaker_seconds(),
        played_ratio: 1.0 - played.miss_ratio(),
        digest: run::digest_u64(&played.digests),
        rss_mb: peak_rss_mb(),
        failures,
        layers: Vec::new(),
    }
}
