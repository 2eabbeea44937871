//! Support library for the Stellar experiment harness.
//!
//! The actual experiments live in `src/bin/e*.rs` — one binary per table
//! or figure of the paper (see `DESIGN.md` for the index); speed is
//! measured by the standalone `benchmark/` crate. This library holds the
//! shared report-formatting helpers and the [`report`] pipeline that
//! emits machine-readable per-experiment JSON for `run_all` to
//! consolidate.

pub mod cache;
pub mod chaos;
pub mod durable;
pub mod harness;
pub mod profile;
pub mod report;

pub use report::{Report, ReportOptions};

/// Prints a section header for an experiment report.
pub fn header(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}

/// Formats a ratio as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Renders a simple aligned table: a header row then data rows.
pub fn table(columns: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for row in rows {
        for (n, cell) in row.iter().enumerate() {
            if n < widths.len() {
                widths[n] = widths[n].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (n, cell) in cells.iter().enumerate() {
            out.push_str(&format!(
                "{:<width$}  ",
                cell,
                width = widths.get(n).copied().unwrap_or(8)
            ));
        }
        println!("{}", out.trim_end());
    };
    line(&columns.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.9), "90.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn table_does_not_panic() {
        table(
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
