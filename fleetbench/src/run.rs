//! End-to-end runs: build the system, step it one packet period at a
//! time, check what every speaker played.

use std::rc::Rc;

use es_core::EsSystem;
use es_net::McastGroup;
use es_proto::auth::StreamSigner;
use es_sim::SimTime;

use crate::clock::{timed, Stopwatch};
use crate::workload::{self, Size, Workload, PERIOD_MS, SAMPLES_PER_SEC};

/// How a repetition advances the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepping {
    /// One `run_until` call per packet period, each timed.
    PerTick,
    /// One uninterrupted `run_until` to the end (the reference run).
    Whole,
}

/// What the speakers of one finished run played.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Played {
    /// FNV-1a digest of each speaker's `OutputTap`, in speaker order.
    pub digests: Vec<u64>,
    /// `samples_played` of each speaker.
    pub samples: Vec<u64>,
    /// Interleaved samples each channel's producer sent, per speaker
    /// (what a lossless speaker must play).
    pub produced: Vec<u64>,
    /// Packets that passed a MAC check they should have failed, summed
    /// over speakers.
    pub forged: u64,
    /// Interleaved samples retained by every speaker's `OutputTap`.
    pub tap_samples: u64,
}

impl Played {
    /// Audio the fleet played, in speaker-seconds.
    pub fn speaker_seconds(&self) -> f64 {
        self.samples.iter().sum::<u64>() as f64 / SAMPLES_PER_SEC as f64
    }

    /// Share of the produced samples no speaker played.
    pub fn miss_ratio(&self) -> f64 {
        let want: u64 = self.produced.iter().sum();
        let got: u64 = self.samples.iter().sum();
        1.0 - got as f64 / want.max(1) as f64
    }
}

/// One built-run-checked repetition.
#[derive(Debug, Clone)]
pub struct Rep {
    /// `SystemBuilder::build()` wall seconds.
    pub setup_s: f64,
    /// Host seconds of each `run_until` call.
    pub ticks_s: Vec<f64>,
    /// What was played.
    pub played: Played,
    /// Output checks that failed, as messages.
    pub failures: Vec<String>,
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 64-bit FNV-1a over the little-endian bytes of `samples`.
pub fn digest(samples: &[i16]) -> u64 {
    fnv1a(samples.iter().flat_map(|s| s.to_le_bytes()))
}

/// 64-bit FNV-1a over a list of digests: one digest for a fleet.
pub fn digest_u64(values: &[u64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_le_bytes()))
}

/// Reads what every speaker of a finished run played.
pub fn played(sys: &EsSystem, w: Workload) -> Played {
    let n = sys.speaker_count();
    let mut out = Played {
        digests: Vec::with_capacity(n),
        samples: Vec::with_capacity(n),
        produced: Vec::with_capacity(n),
        forged: 0,
        tap_samples: 0,
    };
    for i in 0..n {
        let Some(spk) = sys.speaker(i) else { continue };
        let tap = spk.tap().borrow().samples();
        out.tap_samples += tap.len() as u64;
        out.digests.push(digest(&tap));
        out.samples.push(spk.stats().samples_played);
        out.forged += spk.auth_stats().map_or(0, |a| a.forged);
        // Studio speaker i listens to channel i; every other workload
        // has one channel.
        let ch = if w == Workload::Studio8ch { i } else { 0 };
        out.produced
            .push(sys.rebroadcaster(ch).stats().audio_bytes_in / 2);
    }
    out
}

/// The output checks of one run.
pub fn check(w: Workload, size: Size, p: &Played) -> Vec<String> {
    let mut fails = Vec::new();
    if p.samples.len() != size.speakers {
        fails.push(format!(
            "{} of {} speakers powered on",
            p.samples.len(),
            size.speakers
        ));
    }
    let clip = size.audio_ms * SAMPLES_PER_SEC / 1_000;
    if p.produced.iter().any(|&s| s != clip) {
        fails.push(format!(
            "producer sent {:?} samples, clip is {clip}",
            p.produced
        ));
    }
    if w.lossless() {
        for (i, (&got, &want)) in p.samples.iter().zip(&p.produced).enumerate() {
            if got != want {
                fails.push(format!("speaker {i} played {got} of {want} samples"));
                break;
            }
        }
        if p.digests.windows(2).any(|d| d[0] != d[1]) {
            fails.push("speakers of a lossless workload played different audio".into());
        }
    } else if p.samples.contains(&0) {
        fails.push("a speaker played nothing".into());
    }
    if p.forged != 0 {
        fails.push(format!("{} forged packets reached a MAC check", p.forged));
    }
    fails
}

/// A built system with its rogue node armed, before the first tick.
pub struct Launched {
    /// The system.
    pub sys: EsSystem,
    /// Every multicast group that carries audio.
    pub groups: Vec<McastGroup>,
    /// The signer of a signed channel.
    pub signer: Option<Rc<StreamSigner>>,
    /// `SystemBuilder::build()` wall seconds.
    pub setup_s: f64,
}

/// Builds workload `w` (timing only `SystemBuilder::build()`) and arms
/// its rogue node, if it has one.
pub fn launch(w: Workload, seed: u64, size: Size) -> Launched {
    let plan = workload::plan(w, seed, size);
    let (mut sys, setup_s) = timed(|| plan.builder.build());
    if plan.signer.is_some() {
        workload::start_rogue(&mut sys, plan.groups[0], seed);
    }
    Launched {
        sys,
        groups: plan.groups,
        signer: plan.signer,
        setup_s,
    }
}

/// Advances `sys` to the end of the run and returns the host seconds
/// of each `run_until` call.
pub fn advance(sys: &mut EsSystem, size: Size, stepping: Stepping) -> Vec<f64> {
    let ends: Vec<SimTime> = match stepping {
        Stepping::PerTick => (1..=size.ticks())
            .map(|k| SimTime::from_millis(k * PERIOD_MS))
            .collect(),
        Stepping::Whole => vec![size.end()],
    };
    ends.into_iter()
        .map(|end| {
            let watch = Stopwatch::start();
            sys.run_until(end);
            watch.seconds()
        })
        .collect()
}

/// Builds workload `w`, runs it to the end and checks the output.
pub fn rep(w: Workload, seed: u64, size: Size, stepping: Stepping) -> Rep {
    let mut run = launch(w, seed, size);
    let ticks_s = advance(&mut run.sys, size, stepping);
    let played = played(&run.sys, w);
    let failures = check(w, size, &played);
    Rep {
        setup_s: run.setup_s,
        ticks_s,
        played,
        failures,
    }
}
