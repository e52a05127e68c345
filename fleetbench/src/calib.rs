//! Host calibration: the rates of two frozen in-tree oracles that are
//! never optimized, so numbers from different hosts compare as ratios.

use es_codec::dsp::scalar;
use es_codec::reference::DirectMdct;

use crate::clock::ns_per_call;

/// Window length of the direct-MDCT oracle (the codec's block size).
const MDCT_N: usize = 512;

/// The host block printed with every report. Recorded, never gated.
#[derive(Debug, Clone, Copy)]
pub struct Host {
    /// Hardware threads the process may use.
    pub nproc: usize,
    /// Fleet executor lanes in use (the program default).
    pub fleet_lanes: usize,
    /// `es_codec::reference::DirectMdct` forward windows per second.
    pub direct_mdct_windows_per_s: f64,
    /// `es_codec::dsp::scalar` deinterleave + quantize, Msamples/s.
    pub scalar_dsp_msamples_per_s: f64,
}

/// Measures the host block, spending about `budget_s` per oracle.
pub fn host(budget_s: f64) -> Host {
    let mdct = DirectMdct::new(MDCT_N);
    let time: Vec<f32> = (0..2 * MDCT_N)
        .map(|t| ((t * 37) % 255) as f32 - 127.0)
        .collect();
    let mut coeffs = vec![0.0f32; MDCT_N];
    let mdct_ns = ns_per_call(budget_s, || {
        mdct.forward(&time, &mut coeffs);
        std::hint::black_box(&coeffs);
        1
    });

    let frames = 44_100;
    let samples: Vec<i16> = (0..2 * frames)
        .map(|i| ((i * 7919) % 65_536) as i16)
        .collect();
    let mut plane = vec![0.0f32; frames];
    let mut quantized = vec![0i32; frames];
    let frame_ns = ns_per_call(budget_s, || {
        scalar::deinterleave_normalize(&samples, 2, 0, &mut plane);
        scalar::quantize_band(&plane, 1.0, 1_023, &mut quantized);
        std::hint::black_box(&quantized);
        frames as u64
    });

    Host {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        fleet_lanes: es_sim::fleet::threads(),
        direct_mdct_windows_per_s: 1e9 / mdct_ns,
        scalar_dsp_msamples_per_s: 1e3 / frame_ns,
    }
}
