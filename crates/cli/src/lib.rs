//! Figure regeneration for the Drum paper evaluation.
//!
//! [`figures::FIGURES`] regenerates every figure of the paper, each
//! printing the same series the paper plots; `drum-lab figures --only
//! figNN` runs one. Three scales are supported:
//!
//! * **smoke** (`--quick`): the smallest runs that still exercise every
//!   figure end to end; `tests/figure_goldens.rs` holds each deterministic
//!   figure at this scale to a checked-in golden;
//! * **quick** (default): reduced group sizes / trial counts so a full
//!   `drum-lab figures` pass completes in minutes;
//! * **full** (`--full`): the paper's parameters (n = 1000 simulations,
//!   1000 trials per point, 50-process clusters).
//!
//! The *shape* of every result (who wins, linear vs. flat degradation,
//! crossovers) is already visible at the quick scale; `EXPERIMENTS.md`
//! records a full comparison against the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use std::sync::atomic::{AtomicU8, Ordering};

use drum_core::ProtocolVariant;
use drum_metrics::table::Table;
use drum_sim::experiments::SweepRow;

/// Sizing of a figure run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// CI smoke sizing (`drum-lab figures --quick`): the smallest runs
    /// that still exercise every figure's code path end to end.
    Smoke,
    /// Default: reduced group sizes / trial counts; every qualitative
    /// shape of the paper is already visible.
    Quick,
    /// The paper's parameters (`--full`).
    Full,
}

/// Process-wide scale; [`Scale::Quick`] until [`set_scale`] says otherwise.
static SCALE: AtomicU8 = AtomicU8::new(1);

/// Overrides the scale for this process (used by `drum-lab figures`).
pub fn set_scale(scale: Scale) {
    let v = match scale {
        Scale::Smoke => 0,
        Scale::Quick => 1,
        Scale::Full => 2,
    };
    SCALE.store(v, Ordering::Relaxed);
}

/// The active scale.
pub fn scale() -> Scale {
    match SCALE.load(Ordering::Relaxed) {
        0 => Scale::Smoke,
        2 => Scale::Full,
        _ => Scale::Quick,
    }
}

/// Picks between the quick and full value of a parameter. Smoke runs use
/// the quick value; parameters that must shrink further for CI take all
/// three via [`scaled3`].
pub fn scaled<T>(quick: T, full: T) -> T {
    match scale() {
        Scale::Full => full,
        Scale::Smoke | Scale::Quick => quick,
    }
}

/// Picks a parameter by scale, with an explicit smoke value.
pub fn scaled3<T>(smoke: T, quick: T, full: T) -> T {
    match scale() {
        Scale::Smoke => smoke,
        Scale::Quick => quick,
        Scale::Full => full,
    }
}

/// Simulation trial count: 1000 in the paper, 150 quick, 12 smoke.
pub fn trials() -> usize {
    scaled3(12, 150, 1000)
}

/// The standard experiment seed (fixed for reproducibility).
pub const SEED: u64 = 20040628; // DSN 2004 conference date

/// Writes the standard figure banner.
pub fn banner_to(w: &mut dyn std::io::Write, fig: &str, what: &str) -> std::io::Result<()> {
    writeln!(w, "=== {fig}: {what} ===")?;
    writeln!(
        w,
        "scale: {} (run with --full for the paper's parameters)\n",
        match scale() {
            Scale::Smoke => "smoke (CI)",
            Scale::Quick => "quick",
            Scale::Full => "FULL (paper)",
        }
    )
}

/// Formats a sweep (x column + mean rounds per protocol) as a table.
pub fn sweep_table(x_label: &str, rows: &[SweepRow], columns: &[&str]) -> Table {
    let mut header = vec![x_label.to_string()];
    header.extend(columns.iter().map(|c| c.to_string()));
    let mut table = Table::new(header);
    for row in rows {
        let mut cells = vec![format!("{}", trim_float(row.x))];
        for r in &row.results {
            if r.failures > 0 {
                cells.push(format!("{:.1} ({}f)", r.mean_rounds(), r.failures));
            } else {
                cells.push(format!("{:.1}", r.mean_rounds()));
            }
        }
        table.row(cells);
    }
    table
}

/// Same but showing the standard deviation instead of the mean (Figure 4).
pub fn sweep_table_std(x_label: &str, rows: &[SweepRow], columns: &[&str]) -> Table {
    let mut header = vec![x_label.to_string()];
    header.extend(columns.iter().map(|c| c.to_string()));
    let mut table = Table::new(header);
    for row in rows {
        let mut cells = vec![format!("{}", trim_float(row.x))];
        for r in &row.results {
            cells.push(format!("{:.1}", r.std_rounds()));
        }
        table.row(cells);
    }
    table
}

/// Formats a float without a trailing `.0` for integer values.
pub fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

/// Prints a per-round CDF comparison, one column per labeled curve.
pub fn cdf_table(labels: &[&str], curves: &[Vec<f64>], max_rounds: usize) -> Table {
    let mut header = vec!["round".to_string()];
    header.extend(labels.iter().map(|l| l.to_string()));
    let mut table = Table::new(header);
    for r in 0..max_rounds {
        let mut cells = vec![format!("{}", r + 1)];
        for curve in curves {
            let v = curve.get(r).copied().unwrap_or(f64::NAN);
            cells.push(format!("{:.3}", v));
        }
        table.row(cells);
    }
    table
}

/// The three protocols, in the display order used everywhere.
pub const PROTOCOL_NAMES: [&str; 3] = ["Drum", "Push", "Pull"];

/// The three protocol variants matching [`PROTOCOL_NAMES`].
pub const PROTOCOLS: [ProtocolVariant; 3] = [
    ProtocolVariant::Drum,
    ProtocolVariant::Push,
    ProtocolVariant::Pull,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trim_float_formats() {
        assert_eq!(trim_float(3.0), "3");
        assert_eq!(trim_float(0.25), "0.25");
        assert_eq!(trim_float(128.0), "128");
    }

    #[test]
    fn scaled_picks_quick_by_default() {
        assert_eq!(scaled(1, 2), 1);
        assert_eq!(trials(), 150);
    }

    #[test]
    fn cdf_table_handles_short_curves() {
        let t = cdf_table(&["a"], &[vec![0.5, 1.0]], 3);
        let out = t.render();
        assert!(out.contains("0.500"));
        assert!(out.contains("NaN"));
    }
}
