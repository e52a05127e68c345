//! The four fleet topologies and how each is built from a seed.
//!
//! Every workload is a batch job on the virtual clock: the producer
//! emits one packet per [`PERIOD_MS`] of virtual time no matter how the
//! receivers fare (open loop in virtual time), and the host advances
//! the system as fast as it can. The topology of each workload is fixed
//! here; [`Size`] only sets the fan-out and the clip length, so the
//! smoke test can run the same code paths at a tiny size.

use std::rc::Rc;

use bytes::Bytes;
use es_codec::CodecId;
use es_core::{ChannelSpec, EsSystem, HealSpec, RelaySpec, SpeakerSpec, SystemBuilder};
use es_net::{Datagram, LanConfig, McastGroup};
use es_proto::auth::StreamSigner;
use es_proto::{AuthTrailer, DataPacket, TRAILER_LEN};
use es_rebroadcast::CompressionPolicy;
use es_sim::{RepeatingTimer, Shared, SimDuration, SimTime};

/// The producer's packet period: one VAD block, one data packet, and
/// one benchmark tick.
pub const PERIOD_MS: u64 = 50;

/// Virtual time run past the end of the clip so the last packets clear
/// the playout delay and reach the DAC.
pub const TAIL_MS: u64 = 1_000;

/// Relayed segments in `relay_pcm`.
pub const RELAYS: u32 = 4;

/// Channels (and speakers) in `studio_8ch`.
pub const STUDIO_CHANNELS: u16 = 8;

/// Key-chain length of the signed `lossy_heal` channel. Rogue trailers
/// always claim an interval past the chain's end.
const CHAIN_INTERVALS: u32 = 4_000;

/// Sample rate × channels of every workload's stream (CD stereo).
pub const SAMPLES_PER_SEC: u64 = 44_100 * 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One OVL q10 channel to many speakers on one flat LAN: per
    /// receiver parse and decode dominate.
    FanoutOvl,
    /// One raw PCM channel through four segment relays to a large
    /// fleet: the event engine, LAN fan-out and relay re-stamping
    /// dominate.
    RelayPcm,
    /// One signed ADPCM channel over a bursty lossy LAN with FEC, the
    /// heal plane, concealment and a rogue injector.
    LossyHeal,
    /// Eight OVL q10 channels, one speaker each: the producer side
    /// carries half the wall.
    Studio8ch,
}

/// Fan-out and clip length of one workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Speakers in the fleet.
    pub speakers: usize,
    /// Clip length in milliseconds (a multiple of [`PERIOD_MS`]).
    pub audio_ms: u64,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::FanoutOvl,
        Workload::RelayPcm,
        Workload::LossyHeal,
        Workload::Studio8ch,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FanoutOvl => "fanout_ovl",
            Workload::RelayPcm => "relay_pcm",
            Workload::LossyHeal => "lossy_heal",
            Workload::Studio8ch => "studio_8ch",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The size every measured run uses, or with `tiny` a size small
    /// enough for a smoke test, on the same code paths.
    pub fn size(self, tiny: bool) -> Size {
        let (speakers, audio_ms) = match (self, tiny) {
            (Workload::FanoutOvl, false) => (256, 3_000),
            (Workload::RelayPcm, false) => (1_000, 2_000),
            (Workload::LossyHeal, false) => (128, 5_000),
            (Workload::Studio8ch, false) => (STUDIO_CHANNELS as usize, 10_000),
            (Workload::FanoutOvl | Workload::LossyHeal, true) => (4, 1_500),
            (Workload::RelayPcm, true) => (8, 1_500),
            (Workload::Studio8ch, true) => (STUDIO_CHANNELS as usize, 1_500),
        };
        Size { speakers, audio_ms }
    }

    /// True when nothing is lost on the wire, so every speaker must
    /// play every sample the producer sent, bit for bit alike.
    pub fn lossless(self) -> bool {
        self != Workload::LossyHeal
    }
}

impl Size {
    /// Virtual end of a run: the clip plus the drain tail.
    pub fn end(&self) -> SimTime {
        SimTime::from_millis(self.audio_ms + TAIL_MS)
    }

    /// Ticks of [`PERIOD_MS`] from time zero to [`Size::end`].
    pub fn ticks(&self) -> u64 {
        (self.audio_ms + TAIL_MS) / PERIOD_MS
    }
}

/// Everything a run needs besides the built system.
pub struct Plan {
    /// The configured builder, ready for `build()`.
    pub builder: SystemBuilder,
    /// Every multicast group that carries audio.
    pub groups: Vec<McastGroup>,
    /// The stream signer of a signed channel.
    pub signer: Option<Rc<StreamSigner>>,
}

fn clip(audio_ms: u64) -> SimDuration {
    SimDuration::from_millis(audio_ms)
}

fn ovl() -> CompressionPolicy {
    CompressionPolicy::Always {
        codec: CodecId::Ovl,
        quality: es_codec::MAX_QUALITY,
    }
}

/// The simulator seed a benchmark seed maps to: one SplitMix64 step,
/// so every benchmark seed gives a full-entropy simulator seed.
///
/// es-net derives each receiver's loss stream from the simulator seed
/// XOR a multiple of the SplitMix64 increment. For a seed with few set
/// bits (1, 2, 3, …) the receivers' streams are then shifted copies of
/// one another and the whole fleet loses the same bursts, so the cost
/// of `lossy_heal` would swing with the seed's bit pattern rather than
/// with the loss model. The traced run reports that effect for the raw
/// seed as `net.raw_seed_loss_dispersion`.
pub fn sim_seed(seed: u64) -> u64 {
    SplitMix64::new(seed).next_u64()
}

/// Configures workload `w` at `size`. `seed` (through [`sim_seed`])
/// seeds the simulator, which draws the LAN loss pattern.
pub fn plan(w: Workload, seed: u64, size: Size) -> Plan {
    let builder = SystemBuilder::new(sim_seed(seed));
    match w {
        Workload::FanoutOvl => {
            let g = McastGroup(1);
            let mut b = builder.channel(
                ChannelSpec::new(1, g, "fanout")
                    .policy(ovl())
                    .duration(clip(size.audio_ms)),
            );
            for i in 0..size.speakers {
                b = b.speaker(SpeakerSpec::new(format!("es{i}"), g));
            }
            Plan {
                builder: b,
                groups: vec![g],
                signer: None,
            }
        }
        Workload::RelayPcm => {
            let up = McastGroup(1);
            let mut b = builder.channel(
                ChannelSpec::new(1, up, "relayed")
                    .policy(CompressionPolicy::Never)
                    .duration(clip(size.audio_ms)),
            );
            let mut groups = vec![up];
            for k in 1..=RELAYS {
                let down = McastGroup(100 + k as u16);
                b = b.relay(RelaySpec::new(up, down).segment(k));
                groups.push(down);
            }
            for i in 0..size.speakers {
                let seg = i as u32 % RELAYS + 1;
                b = b.speaker(
                    SpeakerSpec::new(format!("es{i}"), McastGroup(100 + seg as u16)).segment(seg),
                );
            }
            Plan {
                builder: b,
                groups,
                signer: None,
            }
        }
        Workload::LossyHeal => {
            let g = McastGroup(1);
            let signer = Rc::new(StreamSigner::new(b"fleetbench-key", CHAIN_INTERVALS, 2));
            let mut b = builder
                .lan(LanConfig::bursty(0.05, 3.0))
                .healing(HealSpec::new())
                .channel(
                    ChannelSpec::new(1, g, "lossy")
                        .policy(CompressionPolicy::Always {
                            codec: CodecId::Adpcm,
                            quality: 0,
                        })
                        .fec_group(4)
                        .signer(signer.clone())
                        .duration(clip(size.audio_ms)),
                );
            for i in 0..size.speakers {
                b = b.speaker(
                    SpeakerSpec::new(format!("es{i}"), g)
                        .auth_anchor(signer.anchor())
                        .loss_concealment(),
                );
            }
            Plan {
                builder: b,
                groups: vec![g],
                signer: Some(signer),
            }
        }
        Workload::Studio8ch => {
            let mut b = builder;
            let mut groups = Vec::new();
            for c in 1..=STUDIO_CHANNELS {
                let g = McastGroup(c);
                b = b
                    .channel(
                        ChannelSpec::new(c, g, format!("studio{c}"))
                            .policy(ovl())
                            .duration(clip(size.audio_ms)),
                    )
                    .speaker(SpeakerSpec::new(format!("es{c}"), g));
                groups.push(g);
            }
            Plan {
                builder: b,
                groups,
                signer: None,
            }
        }
    }
}

/// SplitMix64: the seed mixer and the rogue injector's byte source.
struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// One forged datagram: a CRC-valid data packet for stream 1 whose
/// trailing bytes parse as an auth trailer claiming an interval past
/// the end of the key chain, so no verifier can ever release it.
fn forged_packet(rng: &mut SplitMix64, now_us: u64) -> Bytes {
    loop {
        let len = 200 + (rng.next_u64() % 600) as usize;
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let wire = es_proto::encode_data(&DataPacket {
            stream_id: 1,
            seq: rng.next_u64() as u32,
            play_at_us: now_us + 100_000,
            codec: CodecId::Adpcm.to_wire(),
            payload: Bytes::from(payload),
        });
        let tail = &wire[wire.len() - TRAILER_LEN..];
        if AuthTrailer::decode(tail).is_some_and(|t| t.interval > CHAIN_INTERVALS) {
            return wire;
        }
    }
}

/// Starts the rogue node of `lossy_heal`: one forged data packet per
/// period on the channel's group, offset half a period from the
/// producer, its bytes drawn from `seed`. It runs to the end of the
/// simulation.
pub fn start_rogue(sys: &mut EsSystem, group: McastGroup, seed: u64) {
    let lan = sys.lan().clone();
    let node = lan.attach("rogue");
    lan.join(node, group);
    let mut rng = SplitMix64::new(seed ^ 0x526F_6775_654E_6F64);
    RepeatingTimer::start_with_phase(
        &mut sys.sim,
        SimDuration::from_millis(PERIOD_MS),
        SimDuration::from_millis(PERIOD_MS / 2),
        move |sim| {
            let wire = forged_packet(&mut rng, sim.now().as_micros());
            lan.multicast(sim, node, group, wire);
        },
    );
}

/// Joins a receive-only capture node to every group and records each
/// datagram it hears with its arrival time. Only the traced run
/// attaches one.
pub fn start_capture(sys: &EsSystem, groups: &[McastGroup]) -> Shared<Vec<(SimTime, Datagram)>> {
    let lan = sys.lan();
    let node = lan.attach("bench-capture");
    for &g in groups {
        lan.join(node, g);
    }
    let log: Shared<Vec<(SimTime, Datagram)>> = es_sim::shared(Vec::new());
    let sink = log.clone();
    lan.set_handler(node, move |sim, dg| sink.borrow_mut().push((sim.now(), dg)));
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forged_packets_parse_but_can_never_be_released() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..50 {
            let wire = forged_packet(&mut rng, 1_000_000);
            assert!(matches!(
                es_proto::decode(&wire),
                Ok(es_proto::Packet::Data(_))
            ));
            let trailer = AuthTrailer::decode(&wire[wire.len() - TRAILER_LEN..]).unwrap();
            assert!(trailer.interval > CHAIN_INTERVALS);
        }
    }

    #[test]
    fn seeds_map_to_distinct_full_entropy_simulator_seeds() {
        let seeds: Vec<u64> = (0..64).map(sim_seed).collect();
        for (i, s) in seeds.iter().enumerate() {
            assert!(s.count_ones() > 16, "seed {i} -> {s:#x}");
            assert!(!seeds[..i].contains(s));
        }
    }

    #[test]
    fn sizes_are_whole_ticks() {
        for w in Workload::ALL {
            for size in [w.size(false), w.size(true)] {
                assert_eq!(size.audio_ms % PERIOD_MS, 0, "{}", w.name());
                assert_eq!(size.end(), SimTime::from_millis(size.ticks() * PERIOD_MS));
            }
        }
    }
}
