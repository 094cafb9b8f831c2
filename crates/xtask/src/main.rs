//! Workspace automation ("xtask" pattern): plain-Rust tooling invoked as
//! `cargo xtask <command>` via the alias in `.cargo/config.toml`.
//!
//! Two commands: `lint`, the source-level gate for repo-specific
//! invariants `rustc`/`clippy` cannot express (see [`lint`]), and
//! `analyze`, the rda-analyze concurrency static-analysis framework
//! (lock ordering and the atomic-ordering audit — see [`analyze`]). Both
//! read one source model ([`source`]): each workspace file loaded and
//! lexed once, every token marked as test code or not by one rule.
//! Neither has dependencies beyond `std`, so both build and run
//! everywhere the workspace does.

mod analyze;
mod lint;
mod source;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let update_baseline = args.iter().any(|a| a == "--update-baseline");
            match lint::run(update_baseline) {
                Ok(()) => ExitCode::SUCCESS,
                Err(failures) => {
                    eprintln!("{failures}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("analyze") => {
            let json_path = args
                .iter()
                .position(|a| a == "--json")
                .and_then(|i| args.get(i + 1))
                .map(String::as_str);
            match analyze::run(json_path) {
                Ok(()) => ExitCode::SUCCESS,
                Err(failures) => {
                    eprintln!("{failures}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  lint                     run the workspace lint gate
  lint --update-baseline   rewrite the unwrap/expect ratchet baseline
                           (only lowers counts unless a rule failed)
  analyze                  run the rda-analyze concurrency passes
                           (lock-order, atomics)
  analyze --json PATH      also write the machine-readable findings";
