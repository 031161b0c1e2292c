//! Shared helpers for the paper-figure bench targets in `benches/`.
//!
//! Every bench target (`harness = false`) regenerates one table or figure
//! of the paper's evaluation, printing the same rows/series the paper
//! reports. Row counts scale with the `CC_BENCH_SCALE` environment
//! variable (default 1; use 0 for a smoke run, larger for closer-to-paper
//! sizes) — the algorithms are O(n) in rows, so the *shape* of every result
//! is scale-invariant.
//!
//! Serving and ingest throughput are not measured here: the repo
//! benchmark (`bash ccbench/run.sh`) drives the real daemon for those.

use cc_frame::DataFrame;

/// Scale factor for dataset sizes, from `CC_BENCH_SCALE` (default 1).
pub fn scale() -> usize {
    std::env::var("CC_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s >= 1)
        .unwrap_or(1)
}

/// Prints a boxed experiment banner.
pub fn banner(id: &str, title: &str) {
    let line = "=".repeat(74);
    println!("\n{line}");
    println!("{id}: {title}");
    println!("{line}");
}

/// Formats a normalized series as a compact sparkline-ish row.
pub fn series_row(label: &str, series: &[f64]) -> String {
    const GLYPHS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let cells: String =
        series.iter().map(|&v| GLYPHS[((v.clamp(0.0, 1.0)) * 8.0).round() as usize]).collect();
    let nums: Vec<String> = series.iter().map(|v| format!("{v:.2}")).collect();
    format!("{label:<10} |{cells}|  [{}]", nums.join(", "))
}

/// Numeric-row view over all numeric attributes.
pub fn all_numeric_rows(df: &DataFrame) -> Vec<Vec<f64>> {
    let names: Vec<&str> = df.numeric_names();
    df.numeric_rows(&names).expect("numeric columns exist")
}

/// Keeps only the rows of `df` whose `column` value is in `wanted`.
pub fn filter_categorical(df: &DataFrame, column: &str, wanted: &[&str]) -> DataFrame {
    let (codes, dict) = df.categorical(column).expect("categorical column");
    let keep: Vec<u32> = dict
        .iter()
        .enumerate()
        .filter(|(_, d)| wanted.contains(&d.as_str()))
        .map(|(i, _)| i as u32)
        .collect();
    let idx: Vec<usize> = (0..df.n_rows()).filter(|&i| keep.contains(&codes[i])).collect();
    df.take(&idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        // (Cannot portably set env vars in parallel tests; just check the
        // default path.)
        assert!(scale() >= 1);
    }

    #[test]
    fn series_row_renders() {
        let s = series_row("test", &[0.0, 0.5, 1.0]);
        assert!(s.contains("test"));
        assert!(s.contains("1.00"));
    }

    #[test]
    fn filter_categorical_works() {
        let mut df = DataFrame::new();
        df.push_numeric("x", vec![1.0, 2.0, 3.0]).unwrap();
        df.push_categorical("g", &["a", "b", "a"]).unwrap();
        let f = filter_categorical(&df, "g", &["a"]);
        assert_eq!(f.n_rows(), 2);
    }
}
