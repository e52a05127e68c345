//! The untraced measurement: what a user of the system would see.
//!
//! One run measures one workload. It first runs a reference repetition
//! advanced by a single uninterrupted `run_until`, then timed
//! repetitions stepped one packet period at a time for as long as the
//! next one still fits in the time budget (at least
//! [`MIN_TIMED_REPS`]), each in a process of its own. Every repetition
//! is checked against its own output rules and against the reference's
//! digest; a repetition that fails counts as a failed operation and
//! contributes no numbers.
//!
//! The repetitions of one run replay the same deterministic work tick
//! for tick, so the host time of tick `k` differs between them only by
//! what the host added: preemption, a busy sibling core, a cold cache.
//! The tick metrics are therefore taken over [`tick_costs`], each
//! tick's fastest time over the repetitions, and `speaker_x_realtime`
//! divides by their sum. A slower program is slower in every
//! repetition and moves every cost; host noise that comes and goes
//! within a run moves only some repetitions and so barely moves the
//! minimum. A host that is slower for the whole run still reads slower.

use std::path::Path;

use crate::child::{self, Kind, Summary};
use crate::clock::{median, percentile, tail_percentile, timed, Stopwatch};
use crate::metrics::{end_to_end, Metric};
use crate::workload::{Size, Workload};

/// Timed repetitions every run makes, whatever the time budget.
pub const MIN_TIMED_REPS: usize = 3;

/// `SystemBuilder::build()` samples every run takes at least.
pub const MIN_SETUPS: usize = 7;

/// Ticks the tail percentile must leave above it ...
pub const TAIL_BEYOND: usize = 10;

/// ... in the ticks of this many repetitions.
pub const TAIL_REPS: usize = 2;

/// The result of one untraced run.
#[derive(Debug, Clone)]
pub struct E2e {
    /// End-to-end metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Repetitions attempted (reference included).
    pub attempted: u64,
    /// Repetitions that failed an output check.
    pub failed: u64,
    /// Every failed check, as messages.
    pub failures: Vec<String>,
    /// The whole percentile `tick_tail_ms` reports.
    pub tail_pct: u32,
    /// Ticks in one repetition (each a minimum over the repetitions).
    pub ticks: usize,
    /// Timed repetitions that passed their checks.
    pub timed_reps: usize,
}

/// The tail percentile for `size`: the highest whole percentile that
/// leaves [`TAIL_BEYOND`] ticks above it in the ticks of [`TAIL_REPS`]
/// repetitions, so it is the same on every run. Taken over the tick
/// costs, it leaves half as many above it.
pub fn tail_pct(size: Size) -> u32 {
    tail_percentile(size.ticks() as usize * TAIL_REPS, TAIL_BEYOND)
}

/// The host cost of each tick: its fastest time over `reps`, which all
/// ran the same ticks. Empty without repetitions.
pub fn tick_costs(reps: &[Summary]) -> Vec<f64> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    (0..first.ticks_s.len())
        .map(|k| {
            reps.iter()
                .filter_map(|r| r.ticks_s.get(k).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Runs workload `w` for about `seconds` of host time, each repetition
/// a child process of `exe`. A repetition starts only if one as long as
/// the last still ends within `seconds`.
pub fn measure(exe: &Path, w: Workload, seed: u64, tiny: bool, seconds: f64) -> E2e {
    let budget = Stopwatch::start();
    let reference = child::spawn(exe, w, seed, tiny, Kind::Whole);
    let mut failures = reference.failures.clone();
    let mut failed = u64::from(!reference.failures.is_empty());
    let mut setups = reference.setup_s.clone();
    let mut good: Vec<Summary> = Vec::new();
    let mut attempted = 1u64;
    let mut last_rep_s = 0.0;
    while attempted <= MIN_TIMED_REPS as u64 || budget.seconds() + last_rep_s <= seconds {
        let (mut rep, rep_s) = timed(|| child::spawn(exe, w, seed, tiny, Kind::Tick));
        last_rep_s = rep_s;
        if rep.failures.is_empty() && rep.digest != reference.digest {
            rep.failures.push(
                "stepping run_until per tick played different audio than one uninterrupted call"
                    .into(),
            );
        }
        attempted += 1;
        setups.extend(&rep.setup_s);
        if rep.failures.is_empty() {
            good.push(rep);
        } else {
            failed += 1;
            failures.append(&mut rep.failures);
        }
    }
    if setups.len() < MIN_SETUPS {
        let extra = child::spawn(exe, w, seed, tiny, Kind::Setup(MIN_SETUPS - setups.len()));
        setups.extend(&extra.setup_s);
        failures.extend(extra.failures);
    }

    let ticks = tick_costs(&good);
    let run_s: f64 = ticks.iter().sum();
    let speaker_seconds = good.first().map_or(0.0, |r| r.speaker_seconds);
    let x_realtime = if run_s > 0.0 {
        speaker_seconds / run_s
    } else {
        0.0
    };
    let played: Vec<f64> = good.iter().map(|r| r.played_ratio).collect();
    let rss: Vec<f64> = good.iter().map(|r| r.rss_mb).collect();
    let tail = tail_pct(w.size(tiny));
    let metrics = vec![
        end_to_end("speaker_x_realtime", x_realtime),
        end_to_end("tick_p50_ms", median(&ticks) * 1e3),
        end_to_end("tick_tail_ms", percentile(&ticks, tail) * 1e3),
        end_to_end("setup_s", median(&setups)),
        end_to_end("peak_rss_mb", median(&rss)),
        end_to_end("played_ratio", median(&played)),
    ];
    E2e {
        metrics,
        attempted,
        failed,
        failures,
        tail_pct: tail,
        ticks: ticks.len(),
        timed_reps: good.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tick_costs_are_per_tick_minima() {
        let rep = |ticks_s: Vec<f64>| Summary {
            ticks_s,
            ..Summary::default()
        };
        let reps = [rep(vec![3.0, 1.0, 5.0]), rep(vec![2.0, 4.0, 6.0])];
        assert_eq!(tick_costs(&reps), vec![2.0, 1.0, 5.0]);
        assert!(tick_costs(&[]).is_empty());
    }
}
