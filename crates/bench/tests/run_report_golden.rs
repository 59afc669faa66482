//! Golden run report: the `run_report` binary's counter section must
//! reproduce a recorded hash at every thread count.
//!
//! Runs the real binary (capture, both materializing campaigns,
//! filtering, analysis, one encode) at `EYEORG_THREADS` 1, 2 and 4, each
//! writing its report into a directory of this run's own, and pins the
//! FNV-1a hash of the report's deterministic sections (counters, labeled
//! counters, histograms — exactly `RunReport::counter_fingerprint`).
//! The explicit pin makes 2 and 4 spawn real pools even on a 1-core box.
//! If an intended change of the science moves the hash, the failure
//! message prints the new value.

use serde_json::Value;

/// FNV-1a of the report's counter fingerprint.
const GOLDEN: &str = "67188b8e44a7fb40";

fn fnv1a(s: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Rebuild `RunReport::counter_fingerprint` from the report's JSON.
fn counter_fingerprint(report: &str) -> String {
    let report: Value = serde_json::from_str(report).expect("run report parses");
    let det = Value::Object(
        ["counters", "labeled", "histograms"]
            .iter()
            .map(|&k| (k.to_owned(), report.get(k).expect("deterministic section").clone()))
            .collect(),
    );
    serde_json::to_string(&det).expect("JSON values serialise")
}

#[test]
fn run_report_counters() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("run_report_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create report directory");
    for threads in [1usize, 2, 4] {
        let out = dir.join(format!("RUN_report_{threads}.json"));
        let status = std::process::Command::new(env!("CARGO_BIN_EXE_run_report"))
            .arg("--out")
            .arg(&out)
            .env("EYEORG_THREADS", threads.to_string())
            .stdout(std::process::Stdio::null())
            .status()
            .expect("run run_report");
        assert!(status.success(), "run_report failed at threads={threads}");
        let report = std::fs::read_to_string(&out).expect("run_report wrote its report");
        let hash = fnv1a(&counter_fingerprint(&report));
        assert_eq!(hash, GOLDEN, "run report counters moved at threads={threads}; new hash {hash}");
    }
    std::fs::remove_dir_all(&dir).expect("remove report directory");
}
