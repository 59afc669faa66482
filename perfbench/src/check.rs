//! Output checks against recorded fingerprints.
//!
//! Every checked operation (a cold set-up, a timed repetition, a traced
//! pass) yields named fingerprints: FNV-1a hashes of canonical renderings
//! of what the workspace produced. They are compared with the values in
//! `fingerprints.txt`, recorded with `--record` from this benchmark. The
//! workspace's outputs do not depend on the thread count, so one
//! recorded value serves every pool size. A mismatch, a missing record
//! or an error returned by the workspace fails that one operation; the
//! run goes on.

use std::collections::BTreeMap;

/// One named fingerprint of an operation's output.
pub type Fp = (&'static str, String);

/// The recorded fingerprints, one per line: `key variant kind hash`.
pub const RECORDED: &str = include_str!("../fingerprints.txt");

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
pub fn hash(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Fingerprint of a value's `Debug` rendering.
pub fn debug_hash(value: &impl std::fmt::Debug) -> String {
    hash(format!("{value:?}").as_bytes())
}

/// Counts checked operations and compares their fingerprints.
pub struct Checker {
    expected: BTreeMap<(String, u64, String), String>,
    key: String,
    variant: u64,
    recording: bool,
    recorded: BTreeMap<String, String>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose outputs did not match or that returned an error.
    pub failed: u64,
}

impl Checker {
    /// A checker of workload `key`, input variant `variant`, against
    /// the fingerprints in `table` (the format of [`RECORDED`]).
    pub fn new(table: &str, key: &str, variant: u64) -> Checker {
        let mut expected = BTreeMap::new();
        for line in table.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [k, v, kind, h] = f[..] {
                if let Ok(v) = v.parse() {
                    expected.insert((k.to_string(), v, kind.to_string()), h.to_string());
                }
            }
        }
        Checker {
            expected,
            key: key.to_string(),
            variant,
            recording: false,
            recorded: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// A checker that keeps the first value of every fingerprint as the
    /// record instead of comparing, and still fails an operation whose
    /// fingerprints differ from an earlier one of the same run.
    pub fn recording(key: &str, variant: u64) -> Checker {
        Checker {
            recording: true,
            ..Checker::new("", key, variant)
        }
    }

    /// Replace one expected fingerprint (used to prove that a wrong
    /// record is reported as a failed operation).
    pub fn expect(&mut self, kind: &str, hash: &str) {
        self.expected.insert(
            (self.key.clone(), self.variant, kind.to_string()),
            hash.to_string(),
        );
    }

    /// Check one operation; `false` when it failed.
    pub fn verify(&mut self, what: &str, outcome: Result<Vec<Fp>, String>) -> bool {
        self.attempted += 1;
        let fps = match outcome {
            Ok(fps) => fps,
            Err(e) => {
                eprintln!("FAILED {what}: {e}");
                self.failed += 1;
                return false;
            }
        };
        let mut ok = true;
        for (kind, actual) in fps {
            let key = (self.key.clone(), self.variant, kind.to_string());
            if self.recording && !self.expected.contains_key(&key) {
                self.recorded.insert(kind.to_string(), actual.clone());
                self.expected.insert(key, actual);
                continue;
            }
            match self.expected.get(&key) {
                Some(want) if *want == actual => {}
                Some(want) => {
                    eprintln!(
                        "FAILED {what}: {} variant {} {kind} is {actual}, recorded {want}",
                        self.key, self.variant
                    );
                    ok = false;
                }
                None => {
                    eprintln!(
                        "FAILED {what}: no recorded {kind} fingerprint for {} variant {}",
                        self.key, self.variant
                    );
                    ok = false;
                }
            }
        }
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// The recorded fingerprints as lines of `fingerprints.txt`.
    pub fn record_lines(&self) -> String {
        self.recorded
            .iter()
            .map(|(kind, h)| format!("{} {} {kind} {h}\n", self.key, self.variant))
            .collect()
    }
}
