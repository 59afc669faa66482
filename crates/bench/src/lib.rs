//! # eyeorg-bench
//!
//! The reproduction harness: one module (and one binary) per table and
//! figure of the paper's evaluation, plus the `run_report` binary and
//! the `ablation_quality` binary for DESIGN.md's ablation candidates.
//!
//! Each `figN_*` module exposes a function that builds whatever campaigns
//! it needs at the requested [`Scale`], computes the paper's quantity,
//! prints the same rows/series the paper reports, and returns the report
//! text (binaries print it; tests assert on it).
//!
//! ## Scale
//!
//! The paper's final campaigns use 100 sites × 1,000 participants.
//! [`Scale::paper`] reproduces that; [`Scale::small`] (the default for
//! `cargo run`) is a 20 × 150 miniature that preserves every shape at a
//! fraction of the runtime. Environment overrides:
//! `EYEORG_SCALE=paper|small`, `EYEORG_SITES=n`, `EYEORG_PARTICIPANTS=n`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaigns;
pub mod fig1_viz;
pub mod fig4_behavior;
pub mod fig5_focus;
pub mod fig6_wisdom;
pub mod fig7_timeline;
pub mod fig8_ab;
pub mod fig9_modes;
pub mod table1;

use eyeorg_stats::Seed;
use eyeorg_video::CaptureConfig;

/// Campaign sizing for a harness run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Sites per campaign (paper: 100; validation: 20).
    pub sites: usize,
    /// Paid participants per final campaign (paper: 1,000).
    pub participants: usize,
    /// Participants per validation pool (paper: 100).
    pub validation_participants: usize,
    /// webpeg loads per configuration (paper: 5, keep median).
    pub repeats: usize,
    /// Root seed for the whole run.
    pub seed: Seed,
}

impl Scale {
    /// The paper's full campaign sizes.
    pub fn paper() -> Scale {
        Scale {
            sites: 100,
            participants: 1000,
            validation_participants: 100,
            repeats: 5,
            seed: Seed(2016),
        }
    }

    /// A fast miniature preserving all shapes.
    pub fn small() -> Scale {
        Scale {
            sites: 20,
            participants: 150,
            validation_participants: 60,
            repeats: 3,
            seed: Seed(2016),
        }
    }

    /// Resolve the scale from the environment (see crate docs).
    pub fn from_env() -> Scale {
        let mut s = match std::env::var("EYEORG_SCALE").as_deref() {
            Ok("paper") | Ok("full") => Scale::paper(),
            _ => Scale::small(),
        };
        if let Ok(v) = std::env::var("EYEORG_SITES") {
            if let Ok(n) = v.parse() {
                s.sites = n;
            }
        }
        if let Ok(v) = std::env::var("EYEORG_PARTICIPANTS") {
            if let Ok(n) = v.parse() {
                s.participants = n;
            }
        }
        s
    }

    /// Capture settings at this scale.
    pub fn capture(&self) -> CaptureConfig {
        CaptureConfig { repeats: self.repeats, ..CaptureConfig::default() }
    }
}

/// Format a `(x, y)` series as CSV with a header.
pub fn series_csv(header: &str, points: &[(f64, f64)]) -> String {
    let mut out = String::from(header);
    out.push('\n');
    for (x, y) in points {
        out.push_str(&format!("{x:.6},{y:.6}\n"));
    }
    out
}

/// Write a report file under `results/` (created on demand), returning
/// the path. Harness binaries call this so every figure leaves a
/// machine-readable artefact next to its printed output.
pub fn write_result(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write result file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let p = Scale::paper();
        let s = Scale::small();
        assert!(p.sites > s.sites);
        assert!(p.participants > s.participants);
        assert_eq!(p.seed, s.seed, "same seed, different size");
    }

    #[test]
    fn series_csv_formats() {
        let csv = series_csv("x,y", &[(1.0, 2.0), (3.5, 4.25)]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,y");
        assert!(lines[1].starts_with("1.000000,2.000000"));
        assert_eq!(lines.len(), 3);
    }
}
