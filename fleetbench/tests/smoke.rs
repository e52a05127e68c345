//! Tiny-size smoke of every workload, untraced and traced, through the
//! same child-process path the measured runs take, plus a check that
//! `BENCHMARK.json` names exactly the workloads and metrics the binary
//! reports.
//!
//! Run with `cargo test --release --manifest-path fleetbench/Cargo.toml`.

use std::path::Path;

use es_fleetbench::calib;
use es_fleetbench::metrics::{END_TO_END, PER_LAYER};
use es_fleetbench::workload::Workload;
use es_fleetbench::{e2e, trace};

fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_es-fleetbench"))
}

#[test]
fn every_workload_passes_its_checks_untraced() {
    for w in Workload::ALL {
        let run = e2e::measure(exe(), w, 7, true, 0.0);
        assert!(run.failures.is_empty(), "{}: {:?}", w.name(), run.failures);
        assert_eq!(run.failed, 0);
        assert_eq!(run.attempted, 1 + e2e::MIN_TIMED_REPS as u64);
        let names: Vec<&str> = run.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|e| e.0).collect();
        assert_eq!(names, want, "{}", w.name());
        for m in &run.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {} = {}",
                w.name(),
                m.name,
                m.value
            );
        }
        let played = run
            .metrics
            .iter()
            .find(|m| m.name == "played_ratio")
            .unwrap();
        if w.lossless() {
            assert_eq!(played.value, 1.0, "{}", w.name());
        }
    }
}

#[test]
fn every_workload_reports_every_layer_traced() {
    let host = calib::host(0.01);
    for w in Workload::ALL {
        let t = trace::measure(exe(), w, 7, true, &host);
        assert!(t.failures.is_empty(), "{}: {:?}", w.name(), t.failures);
        let names: Vec<&str> = t.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|l| l.0).collect();
        assert_eq!(names, want, "{}", w.name());
        let get = |name: &str| t.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert!(get("sim.events") > 0.0);
        assert!(get("net.deliveries") > 0.0);
        assert!(get("proto.parse_ns") > 0.0);
        assert!(get("codec.decode_calls") > 0.0);
        assert!(get("trace.attributed_ratio") > 0.0);
        if w == Workload::LossyHeal {
            assert!(get("heal.epochs") > 0.0);
            assert!(get("proto.verify_ns") > 0.0);
            assert!(
                get("proto.rejected") > 0.0,
                "the rogue's packets are refused"
            );
        }
        if w == Workload::RelayPcm {
            assert!(get("relay.data_relayed") > 0.0);
        }
    }
}

/// The `"name"` values inside the JSON array that follows `key`.
fn names_in(doc: &str, key: &str) -> Vec<String> {
    let start = doc.find(&format!("\"{key}\"")).expect(key);
    let open = start + doc[start..].find('[').unwrap();
    let close = open + doc[open..].find(']').unwrap();
    doc[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).unwrap().to_string())
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_in(&doc, "workloads"), workloads);
    let e2e: Vec<&str> = END_TO_END.iter().map(|e| e.0).collect();
    assert_eq!(names_in(&doc, "end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|l| l.0).collect();
    assert_eq!(names_in(&doc, "per_layer"), layers);
    for (name, unit, better) in END_TO_END {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for (name, unit, better) in PER_LAYER {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
        assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
