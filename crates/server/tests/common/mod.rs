//! Shared scaffolding for the server integration tests: deterministic
//! frames, profile files on disk, and a running ephemeral-port server.
//!
//! Compiled once per test binary; not every binary uses every helper.
#![allow(dead_code)]

use cc_frame::DataFrame;
use cc_server::{ProfileRegistry, Server, ServerConfig, ServerHandle};
use conformance::{synthesize, ConformanceProfile, SynthOptions};
use std::path::PathBuf;

/// A deterministic frame with a global invariant (`z = x + regime·y`)
/// and a categorical regime column; `bias` shifts the invariant so
/// different biases synthesize genuinely different profiles.
pub fn regime_frame(n: usize, bias: f64) -> DataFrame {
    const REGIMES: [&str; 3] = ["a", "b", "c"];
    let mut x = Vec::new();
    let mut y = Vec::new();
    let mut z = Vec::new();
    let mut regime = Vec::new();
    for i in 0..n {
        let r = i % 3;
        let xv = (i as f64 * 0.37).sin() * 20.0;
        let yv = ((i * 13) % 41) as f64 - 20.0;
        x.push(xv);
        y.push(yv);
        z.push(xv + (r as f64 + 1.0) * yv + bias);
        regime.push(REGIMES[r]);
    }
    let mut df = DataFrame::new();
    df.push_numeric("x", x).unwrap();
    df.push_numeric("y", y).unwrap();
    df.push_numeric("z", z).unwrap();
    df.push_categorical("regime", &regime).unwrap();
    df
}

/// Synthesizes a profile from [`regime_frame`] data.
pub fn regime_profile(n: usize, bias: f64) -> ConformanceProfile {
    synthesize(&regime_frame(n, bias), &SynthOptions::default()).unwrap()
}

/// A fresh per-test temp dir (name-scoped so parallel tests don't
/// collide).
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cc_server_it_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a profile into `dir` under `<name>.json`.
pub fn write_profile(dir: &std::path::Path, name: &str, profile: &ConformanceProfile) {
    let json = serde_json::to_string_pretty(profile).unwrap();
    std::fs::write(dir.join(format!("{name}.json")), json).unwrap();
}

/// Starts a server over `dir` on an ephemeral port.
pub fn start_server(dir: &std::path::Path, workers: usize) -> ServerHandle {
    let registry = ProfileRegistry::from_dir(dir).unwrap();
    let config =
        ServerConfig { addr: "127.0.0.1:0".to_owned(), workers, ..ServerConfig::default() };
    Server::start(config, registry).unwrap()
}

/// The frame serialized as the wire's columnar `{"columns": …}` body —
/// the server's own builder, so tests exercise the same encoding.
#[allow(unused_imports)] // not every test binary builds request bodies
pub use cc_server::json::columns_body;
