//! Runs the paper's figure table at paper size and gates every check:
//!
//! ```sh
//! cargo bench -p cc_bench              # every figure
//! cargo bench -p cc_bench -- fig8 fig6 # figures whose id contains a filter
//! ```
//!
//! Prints each figure's report and checks, then exits non-zero when a check
//! fails or a filter matches no figure.

use cc_bench::{Size, FIGURES};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    // Cargo appends `--bench` to the arguments after `--`.
    let filters: Vec<String> = std::env::args().skip(1).filter(|a| a != "--bench").collect();
    let chosen: Vec<_> = FIGURES
        .iter()
        .filter(|f| filters.is_empty() || filters.iter().any(|p| f.id.contains(p.as_str())))
        .collect();
    if chosen.is_empty() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        eprintln!("no figure matches {filters:?}; figures: {ids:?}");
        return ExitCode::from(2);
    }

    let line = "=".repeat(74);
    let mut failed = Vec::new();
    for fig in chosen {
        println!("\n{line}\n{}: {}\n{line}", fig.id, fig.title);
        let t0 = Instant::now();
        let outcome = (fig.run)(Size::Paper);
        print!("{outcome}");
        println!("({:.1} s)", t0.elapsed().as_secs_f64());
        if !outcome.passed() {
            failed.push(fig.id);
        }
    }
    if failed.is_empty() {
        println!("\nevery check holds");
        ExitCode::SUCCESS
    } else {
        println!("\nfailed checks in: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
