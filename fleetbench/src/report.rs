//! The report: one human-readable block, then the result line.

use crate::calib::Host;
use crate::metrics::Metric;

/// Formats a number as measured, with all its digits, as JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The host calibration block.
pub fn host_lines(host: &Host) -> Vec<String> {
    vec![
        format!("host.nproc                      {}", host.nproc),
        format!("host.fleet_lanes                {}", host.fleet_lanes),
        format!(
            "host.direct_mdct_windows_per_s  {:.1}  (es_codec::reference::DirectMdct, N=512)",
            host.direct_mdct_windows_per_s
        ),
        format!(
            "host.scalar_dsp_msamples_per_s  {:.2}  (es_codec::dsp::scalar deinterleave+quantize)",
            host.scalar_dsp_msamples_per_s
        ),
    ]
}

/// One metric as a report line.
pub fn metric_line(m: &Metric) -> String {
    format!("{:<30}  {:>14.6} {}", m.name, m.value, m.unit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
