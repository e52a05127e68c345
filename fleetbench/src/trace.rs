//! The traced run: where one run's host time went, layer by layer.
//!
//! Nothing here instruments the program. The traced process first runs
//! the workload untraced (the overhead baseline and the tick split),
//! then once more with the engine's own busy-time accounting
//! (`Sim::enable_shard_timing`), the fleet executor's job timing
//! (`fleet::record_timing`) and a receive-only capture node on every
//! audio group. Per-call costs of the protocol, codec and LAN layers
//! come from replaying the captured datagrams through each layer's
//! public functions; multiplied by the counts the run reports, they
//! give each layer's seconds.

use bytes::BytesMut;
use es_audio::gen::{render_interleaved, MultiTone};
use es_codec::{CodecId, Codecs};
use es_core::EsSystem;
use es_net::{Datagram, Lan, LanConfig, McastGroup};
use es_proto::{AuthTrailer, Packet, StreamVerifier, TRAILER_LEN};
use es_sim::{fleet, Shared, Sim, SimTime};
use std::hint::black_box;

use std::path::Path;

use crate::calib::Host;
use crate::child::{self, Kind, Summary};
use crate::clock::{median, ns_per_call, timed};
use crate::e2e::tail_pct;
use crate::metrics::{self, Metric};
use crate::run;
use crate::workload::{self, Size, Workload, PERIOD_MS};

/// Host seconds each per-call replay runs for.
const REPLAY_BUDGET_S: f64 = 0.1;

/// Frames in one producer block (one packet period of CD audio).
const BLOCK_FRAMES: usize = 44_100 * PERIOD_MS as usize / 1_000;

/// The traced run's per-layer metrics and the checks it failed.
pub struct Traced {
    /// Per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Repetitions attempted: the untraced baseline and the traced run.
    pub attempted: u64,
    /// Repetitions that failed an output check.
    pub failed: u64,
    /// Failed output checks, as messages.
    pub failures: Vec<String>,
}

/// What the untraced and traced runs counted.
#[derive(Default)]
struct Counts {
    speaker_datagrams: u64,
    dropped_late: u64,
    dropped_duplicate: u64,
    concealed: u64,
    fec_recovered: u64,
    bad_packets: u64,
    auth_rejected: u64,
    serial_decodes: u64,
    data_packets: u64,
    retransmits_sent: u64,
    data_relayed: u64,
    parity_stale: u64,
}

fn counts(sys: &EsSystem, w: Workload) -> Counts {
    let mut c = Counts::default();
    for i in 0..sys.speaker_count() {
        let Some(spk) = sys.speaker(i) else { continue };
        let st = spk.stats();
        c.speaker_datagrams += st.datagrams;
        c.dropped_late += st.dropped_late;
        c.dropped_duplicate += st.dropped_duplicate;
        c.concealed += st.concealed_packets;
        c.fec_recovered += st.fec_recovered;
        c.bad_packets += st.bad_packets;
        if let Some(a) = spk.auth_stats() {
            c.auth_rejected += a.rejected_early + a.bad_keys + a.forged;
            // A verifying speaker decodes serially, once per accepted
            // packet, whether it then plays, fails or misses its slot.
            c.serial_decodes += st.data_packets + st.decode_errors + st.dropped_late;
        }
    }
    let channels = if w == Workload::Studio8ch {
        workload::STUDIO_CHANNELS as usize
    } else {
        1
    };
    for ch in 0..channels {
        let st = sys.rebroadcaster(ch).stats();
        c.data_packets += st.data_packets;
        c.retransmits_sent += st.retransmits_sent;
    }
    for r in 0..sys.relay_count() {
        if let Some(relay) = sys.relay(r) {
            let st = relay.stats();
            c.data_relayed += st.data_relayed;
            c.parity_stale += st.parity_stale;
        }
    }
    c
}

/// Receivers of each group among the speakers and relays.
fn members(sys: &EsSystem, groups: &[McastGroup]) -> Vec<(McastGroup, usize)> {
    let lan = sys.lan();
    let mut nodes: Vec<_> = (0..sys.speaker_count())
        .filter_map(|i| sys.speaker(i).map(|s| s.node()))
        .collect();
    nodes.extend((0..sys.relay_count()).filter_map(|r| sys.relay(r).map(|x| x.node())));
    groups
        .iter()
        .map(|&g| (g, nodes.iter().filter(|&&n| lan.is_member(n, g)).count()))
        .collect()
}

/// Host ns per delivery: the captured datagrams multicast again, at
/// their capture instants, on a standalone LAN with the same config,
/// simulator seed and receivers per group, each with a no-op handler.
fn deliver_ns(
    sys: &EsSystem,
    sim_seed: u64,
    captured: &[(SimTime, Datagram)],
    members: &[(McastGroup, usize)],
) -> f64 {
    let config = sys.lan().config();
    let mut spent = 0.0;
    let mut delivered = 0u64;
    while spent < REPLAY_BUDGET_S * 3.0 {
        let mut sim = Sim::new(sim_seed);
        let lan = Lan::new(config);
        let sender = lan.attach("replay-sender");
        for &(g, n) in members {
            for _ in 0..n {
                let node = lan.attach("replay-receiver");
                lan.join(node, g);
                lan.set_handler(node, |_, _| {});
            }
        }
        for (at, dg) in captured {
            let (lan, dst, payload) = (lan.clone(), dg.dst, dg.payload.clone());
            sim.schedule_at(*at, move |sim| lan.send(sim, sender, dst, payload));
        }
        let ((), secs) = timed(|| {
            sim.run();
        });
        spent += secs;
        delivered += lan.stats().datagrams_delivered;
    }
    spent * 1e9 / delivered.max(1) as f64
}

/// How strongly receivers lose the same datagrams: the variance of the
/// per-datagram loss count over `receivers` receivers, divided by the
/// binomial variance independent receivers would give. 1 means
/// independent loss streams; a fleet whose receivers share one stream
/// approaches `receivers`. 0 on a lossless LAN. The probe LAN has the
/// workload's config and node layout (sender first), and each datagram
/// is one fragment.
fn loss_dispersion(config: LanConfig, seed: u64, receivers: usize) -> f64 {
    const DATAGRAMS: usize = 1_000;
    let group = McastGroup(1);
    let mut sim = Sim::new(seed);
    let lan = Lan::new(config);
    let sender = lan.attach("probe-sender");
    let heard: Shared<Vec<u32>> = es_sim::shared(vec![0; DATAGRAMS]);
    for _ in 0..receivers {
        let node = lan.attach("probe-receiver");
        lan.join(node, group);
        let heard = heard.clone();
        lan.set_handler(node, move |_, dg| {
            let i =
                u32::from_le_bytes([dg.payload[0], dg.payload[1], dg.payload[2], dg.payload[3]]);
            heard.borrow_mut()[i as usize] += 1;
        });
    }
    for i in 0..DATAGRAMS as u32 {
        let lan = lan.clone();
        sim.schedule_at(SimTime::from_millis(i as u64), move |sim| {
            lan.multicast(
                sim,
                sender,
                group,
                bytes::Bytes::from(i.to_le_bytes().to_vec()),
            );
        });
    }
    sim.run();
    let lost: Vec<f64> = heard
        .borrow()
        .iter()
        .map(|&h| (receivers as u32 - h) as f64)
        .collect();
    let mean = lost.iter().sum::<f64>() / DATAGRAMS as f64;
    let p = mean / receivers as f64;
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    let var = lost.iter().map(|l| (l - mean).powi(2)).sum::<f64>() / DATAGRAMS as f64;
    var / (receivers as f64 * p * (1.0 - p))
}

/// Splits a signed datagram into its body and trailer.
fn split_signed(raw: &[u8]) -> Option<(&[u8], AuthTrailer)> {
    let cut = raw.len().checked_sub(TRAILER_LEN)?;
    let (body, tail) = raw.split_at(cut);
    Some((body, AuthTrailer::decode(tail)?))
}

/// The traced repetition, run inside a child process: the workload
/// with the engine and fleet timing on and a capture node attached,
/// then the per-call replays. Returns the layers only the live system
/// can give; [`measure`] adds the rest.
pub fn traced(w: Workload, seed: u64, size: Size) -> Summary {
    let mut live = run::launch(w, seed, size);
    let log = workload::start_capture(&live.sys, &live.groups);
    live.sys.sim_mut().enable_shard_timing();
    fleet::take_timing();
    fleet::record_timing(true);
    // Stepped like `run::advance`, noting which ticks ran a heal epoch.
    let epochs = |sys: &EsSystem| sys.heal().map_or(0, |h| h.stats().epochs);
    let (mut ticks, mut epoch_ticks, mut other_ticks) = (Vec::new(), Vec::new(), Vec::new());
    for k in 1..=size.ticks() {
        let before = epochs(&live.sys);
        let ((), secs) = timed(|| live.sys.run_until(SimTime::from_millis(k * PERIOD_MS)));
        ticks.push(secs);
        if epochs(&live.sys) > before {
            epoch_ticks.push(secs);
        } else {
            other_ticks.push(secs);
        }
    }
    fleet::record_timing(false);
    let jobs = fleet::take_timing();
    let traced_wall: f64 = ticks.iter().sum();
    let engine = live.sys.sim_mut().take_shard_timing();
    let (snapshot, snapshot_s) = timed(|| live.sys.metrics());
    let sys = &live.sys;
    let played = run::played(sys, w);
    let failures = run::check(w, size, &played);

    let c = counts(sys, w);
    let lan_stats = sys.lan().stats();
    let captured = log.borrow().clone();
    let net_deliveries = lan_stats
        .datagrams_delivered
        .saturating_sub(captured.len() as u64);
    let heal = sys.heal().map(|h| h.stats()).unwrap_or_default();

    // es-proto: parse, seal and verify, per call.
    let signer = live.signer.clone();
    let genuine: Vec<&[u8]> = captured
        .iter()
        .filter_map(|(_, dg)| match &signer {
            Some(s) => split_signed(&dg.payload)
                .filter(|(_, t)| t.interval <= s.intervals())
                .map(|(body, _)| body),
            None => Some(&dg.payload[..]),
        })
        .collect();
    let parse_ns = ns_per_call(REPLAY_BUDGET_S, || {
        for body in &genuine {
            black_box(es_proto::decode(body).is_ok());
        }
        genuine.len() as u64
    });
    let data: Vec<es_proto::DataPacket> = genuine
        .iter()
        .filter_map(|b| match es_proto::decode(b) {
            Ok(Packet::Data(d)) => Some(d),
            _ => None,
        })
        .collect();
    let mut scratch = BytesMut::new();
    let seal_ns = ns_per_call(REPLAY_BUDGET_S, || {
        for d in &data {
            scratch.clear();
            es_proto::encode_data_into(d, &mut scratch);
            black_box(scratch.len());
        }
        data.len() as u64
    });
    let verify_ns = match &signer {
        Some(s) => {
            let offers: Vec<(&[u8], AuthTrailer)> = captured
                .iter()
                .filter_map(|(_, dg)| split_signed(&dg.payload))
                .collect();
            ns_per_call(REPLAY_BUDGET_S, || {
                let mut v = StreamVerifier::new(s.anchor());
                for (body, trailer) in &offers {
                    black_box(v.offer(body, trailer));
                }
                offers.len() as u64
            })
        }
        None => 0.0,
    };

    // es-codec: decode of each distinct payload, encode of the source.
    let mut distinct: Vec<&es_proto::DataPacket> = Vec::new();
    for d in &data {
        if !distinct
            .iter()
            .any(|e| e.codec == d.codec && e.payload[..] == d.payload[..])
        {
            distinct.push(d);
        }
    }
    let codecs = Codecs::new();
    let mut out = Vec::new();
    let decode_ns = ns_per_call(REPLAY_BUDGET_S, || {
        for d in &distinct {
            let codec = CodecId::from_wire(d.codec).unwrap_or(CodecId::Pcm);
            black_box(codecs.decode_into(codec, &d.payload, 2, &mut out).is_ok());
        }
        distinct.len() as u64
    });
    let decode_calls = snapshot.sum_counters("speaker", "lane_decodes") + c.serial_decodes;
    let (codec, quality) = match w {
        Workload::FanoutOvl | Workload::Studio8ch => (CodecId::Ovl, es_codec::MAX_QUALITY),
        Workload::RelayPcm => (CodecId::Pcm, 0),
        Workload::LossyHeal => (CodecId::Adpcm, 0),
    };
    let source = render_interleaved(&mut MultiTone::music(44_100), 2, BLOCK_FRAMES * 20);
    let blocks: Vec<&[i16]> = source.chunks_exact(BLOCK_FRAMES * 2).collect();
    let encode_ns = ns_per_call(REPLAY_BUDGET_S, || {
        for b in &blocks {
            black_box(codecs.encode(codec, b, 2, quality).bytes.len());
        }
        blocks.len() as u64
    });

    // es-net: one delivery, replayed on a standalone LAN, and how
    // independent the receivers' loss streams are.
    let deliver_ns = deliver_ns(
        sys,
        workload::sim_seed(seed),
        &captured,
        &members(sys, &live.groups),
    );
    let config = sys.lan().config();
    let dispersion = loss_dispersion(config, workload::sim_seed(seed), size.speakers);
    let raw_seed_dispersion = loss_dispersion(config, seed, size.speakers);

    let secs = |ns: f64, calls: u64| ns * calls as f64 / 1e9;
    let parse_s = secs(parse_ns, c.speaker_datagrams);
    let verify_s = secs(verify_ns, c.speaker_datagrams);
    let seal_s = secs(
        seal_ns,
        c.data_packets + c.retransmits_sent + c.data_relayed,
    );
    let decode_s = secs(decode_ns, decode_calls);
    let encode_s = secs(encode_ns, c.data_packets);
    let deliver_s = secs(deliver_ns, net_deliveries);
    let snapshots_s = snapshot_s * heal.epochs as f64;
    let attributed = deliver_s + parse_s + verify_s + seal_s + decode_s + encode_s + snapshots_s;
    let handler_s = engine.work_ns() as f64 / 1e9;
    let epoch_extra_ms = if epoch_ticks.is_empty() {
        0.0
    } else {
        (median(&epoch_ticks) - median(&other_ticks)) * 1e3
    };
    let job_count: usize = jobs.batches.iter().map(Vec::len).sum();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;

    let values = [
        ("sim.events", sys.sim.events_processed() as f64),
        ("sim.handler_s", handler_s),
        ("sim.queue_s", traced_wall - handler_s),
        ("sim.merge_scans", sys.sim.merge_scans() as f64),
        ("fleet.lanes", fleet::threads() as f64),
        ("fleet.jobs", job_count as f64),
        ("fleet.job_s", jobs.work_ns() as f64 / 1e9),
        ("net.datagrams_sent", lan_stats.datagrams_sent as f64),
        ("net.deliveries", net_deliveries as f64),
        ("net.lost", lan_stats.datagrams_lost as f64),
        ("net.deliver_s", deliver_s),
        ("net.loss_dispersion", dispersion),
        ("net.raw_seed_loss_dispersion", raw_seed_dispersion),
        ("proto.parse_ns", parse_ns),
        ("proto.parse_s", parse_s),
        ("proto.seal_ns", seal_ns),
        ("proto.verify_ns", verify_ns),
        ("proto.verify_s", verify_s),
        ("proto.rejected", (c.bad_packets + c.auth_rejected) as f64),
        ("codec.decode_ns", decode_ns),
        ("codec.decode_s", decode_s),
        ("codec.decode_calls", decode_calls as f64),
        ("codec.distinct_payloads", c.data_packets as f64),
        (
            "codec.decode_useful_ratio",
            ratio(c.data_packets, decode_calls),
        ),
        ("codec.encode_ns", encode_ns),
        ("codec.encode_s", encode_s),
        ("speaker.datagrams", c.speaker_datagrams as f64),
        ("speaker.dropped_late", c.dropped_late as f64),
        ("speaker.dropped_duplicate", c.dropped_duplicate as f64),
        ("speaker.concealed", c.concealed as f64),
        ("speaker.fec_recovered", c.fec_recovered as f64),
        (
            "speaker.dup_ratio",
            ratio(c.dropped_duplicate, c.speaker_datagrams),
        ),
        ("speaker.miss_ratio", played.miss_ratio()),
        ("heal.epochs", heal.epochs as f64),
        ("heal.epoch_extra_ms", epoch_extra_ms),
        (
            "heal.retransmits_requested",
            heal.retransmits_requested as f64,
        ),
        ("rebroadcast.data_packets", c.data_packets as f64),
        ("rebroadcast.retransmits_sent", c.retransmits_sent as f64),
        ("relay.data_relayed", c.data_relayed as f64),
        ("relay.parity_stale", c.parity_stale as f64),
        ("vad.tap_mb", played.tap_samples as f64 * 2.0 / 1e6),
        ("telemetry.keys", snapshot.len() as f64),
        ("telemetry.snapshot_ms", snapshot_s * 1e3),
        ("trace.attributed_ratio", attributed / traced_wall),
    ];
    let layers = values
        .into_iter()
        .map(|(name, value)| metrics::layer(name, value).expect("a catalogued per-layer name"))
        .collect();
    Summary {
        layers,
        ..child::summarize(live.setup_s, ticks, &played, failures)
    }
}

/// The traced run of workload `w`: an untraced baseline repetition and
/// the traced repetition, each a child process of `exe`, plus the
/// layers derived from both and the host block.
pub fn measure(exe: &Path, w: Workload, seed: u64, tiny: bool, host: &Host) -> Traced {
    let size = w.size(tiny);
    let base = child::spawn(exe, w, seed, tiny, Kind::Tick);
    let traced = child::spawn(exe, w, seed, tiny, Kind::Traced);
    let mut failures = base.failures.clone();
    let mut traced_failures = traced.failures.clone();
    if traced_failures.is_empty() && traced.digest != base.digest {
        traced_failures.push("the traced run played different audio than the untraced run".into());
    }
    let failed = u64::from(!failures.is_empty()) + u64::from(!traced_failures.is_empty());
    failures.append(&mut traced_failures);

    let over_period = base
        .ticks_s
        .iter()
        .filter(|&&t| t * 1e3 > PERIOD_MS as f64)
        .count() as f64
        / base.ticks_s.len().max(1) as f64;

    let derived = [
        ("trace.overhead_ratio", traced.run_s() / base.run_s()),
        ("tick.tail_percentile", f64::from(tail_pct(size))),
        ("tick.over_period_ratio", over_period),
        ("host.nproc", host.nproc as f64),
        ("host.fleet_lanes", host.fleet_lanes as f64),
        (
            "host.direct_mdct_windows_per_s",
            host.direct_mdct_windows_per_s,
        ),
        (
            "host.scalar_dsp_msamples_per_s",
            host.scalar_dsp_msamples_per_s,
        ),
    ];
    let mut metrics = traced.layers;
    metrics.extend(
        derived
            .into_iter()
            .map(|(name, value)| metrics::layer(name, value).expect("a catalogued per-layer name")),
    );
    metrics::sort(&mut metrics);
    Traced {
        metrics,
        attempted: 2,
        failed,
        failures,
    }
}
