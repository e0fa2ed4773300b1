//! Headline-number extraction: the paper's abstract claims, recomputed
//! from our runs.
//!
//! *"…a 48% maximum decrease in system energy consumption (average
//! 12%), and a 1.88x maximum increase in application performance
//! (average 1.16x)."* This module derives the same four numbers from a
//! [`crate::HeadlineResults`] sweep, taking for each workload the best
//! RDA policy (the paper's usage model: pick the right policy per
//! workload class).

use crate::headline::HeadlineResults;

/// The abstract's four headline numbers.
#[derive(Debug, Clone)]
pub struct Headline {
    /// Maximum relative decrease in system energy (0.48 = 48 %).
    pub max_energy_decrease: f64,
    /// Mean relative decrease in system energy across workloads.
    pub avg_energy_decrease: f64,
    /// Maximum speedup (GFLOPS ratio) over the default policy.
    pub max_speedup: f64,
    /// Geometric-mean speedup across workloads.
    pub avg_speedup: f64,
}

/// Compute headline numbers, choosing the better RDA policy per
/// workload.
pub fn headline(results: &HeadlineResults) -> Headline {
    let fig7 = results.fig7();
    let fig9 = results.fig9();
    let categories = fig7.categories();
    let mut energy_decreases = Vec::new();
    let mut speedups = Vec::new();
    for cat in &categories {
        let base_j = fig7.get("Linux Default", cat).expect("baseline energy");
        let base_g = fig9.get("Linux Default", cat).expect("baseline gflops");
        let mut best_j = f64::INFINITY;
        let mut best_g: f64 = 0.0;
        for series in ["RDA: Strict", "RDA: Compromise (x2)"] {
            if let Some(j) = fig7.get(series, cat) {
                best_j = best_j.min(j);
            }
            if let Some(g) = fig9.get(series, cat) {
                best_g = best_g.max(g);
            }
        }
        energy_decreases.push(1.0 - best_j / base_j);
        speedups.push(best_g / base_g);
    }
    Headline {
        max_energy_decrease: energy_decreases.iter().cloned().fold(f64::MIN, f64::max),
        avg_energy_decrease: energy_decreases.iter().sum::<f64>() / energy_decreases.len() as f64,
        max_speedup: speedups.iter().cloned().fold(f64::MIN, f64::max),
        avg_speedup: rda_metrics::geomean(&speedups).unwrap_or(0.0),
    }
}

impl Headline {
    /// Encode as JSON for the results bundle.
    pub fn to_json(&self) -> rda_metrics::Json {
        use rda_metrics::Json;
        Json::obj([
            ("max_energy_decrease", Json::Num(self.max_energy_decrease)),
            ("avg_energy_decrease", Json::Num(self.avg_energy_decrease)),
            ("max_speedup", Json::Num(self.max_speedup)),
            ("avg_speedup", Json::Num(self.avg_speedup)),
        ])
    }
}

impl std::fmt::Display for Headline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "max system-energy decrease : {:5.1} %   (paper: 48 %)",
            self.max_energy_decrease * 100.0
        )?;
        writeln!(
            f,
            "avg system-energy decrease : {:5.1} %   (paper: 12 %)",
            self.avg_energy_decrease * 100.0
        )?;
        writeln!(
            f,
            "max speedup                : {:5.2} x   (paper: 1.88 x)",
            self.max_speedup
        )?;
        write!(
            f,
            "avg speedup (geomean)      : {:5.2} x   (paper: 1.16 x)",
            self.avg_speedup
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headline_runs;

    #[test]
    fn headline_numbers_land_in_the_papers_regime() {
        let results = headline_runs();
        let h = headline(&results);
        // The substrate is a model, not the authors' testbed; require
        // the right regime, not the exact numbers.
        assert!(
            h.max_energy_decrease > 0.30 && h.max_energy_decrease < 0.80,
            "max energy decrease {}",
            h.max_energy_decrease
        );
        assert!(
            h.avg_energy_decrease > 0.05,
            "avg energy decrease {}",
            h.avg_energy_decrease
        );
        assert!(
            h.max_speedup > 1.5 && h.max_speedup < 3.0,
            "max speedup {}",
            h.max_speedup
        );
        assert!(h.avg_speedup > 1.05, "avg speedup {}", h.avg_speedup);
        let display = h.to_string();
        assert!(display.contains("paper: 48"));
    }
}
