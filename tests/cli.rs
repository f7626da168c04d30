//! The `apcm` binary refuses flags its subcommand does not read, and still
//! starts on the command lines the benchmark harness builds.

use std::process::{Command, Output, Stdio};

/// Runs `apcm` with stdin closed, so `serve`/`route` shut down right
/// after printing their banner.
fn apcm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apcm"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("running apcm")
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("apcm-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn misspelled_persist_dir_is_rejected() {
    let dir = scratch_dir("misspelled");
    let out = apcm(&[
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--persist-dri",
        dir.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: unknown flag --persist-dri"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
    assert!(!dir.exists());
}

#[test]
fn removed_io_model_flag_is_rejected() {
    let out = apcm(&["serve", "--addr", "127.0.0.1:0", "--io-model", "threads"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("error: unknown flag --io-model"),
        "{stderr}"
    );
}

#[test]
fn durable_serve_starts_and_persists() {
    let dir = scratch_dir("durable");
    let out = apcm(&[
        "serve",
        "--dims",
        "4",
        "--cardinality",
        "100",
        "--persist-dir",
        dir.to_str().unwrap(),
        "--addr",
        "127.0.0.1:0",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let banner = stdout.lines().find(|l| l.starts_with("listening on "));
    assert!(
        banner.is_some_and(|l| l.contains("event-loop io")),
        "{stdout}"
    );
    assert!(dir.is_dir());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn route_with_queue_starts() {
    let backend = apcm::server::Server::start(
        apcm::prelude::Schema::uniform(4, 100),
        apcm::server::ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let backends = backend.local_addr().to_string();
    let out = apcm(&[
        "route",
        "--dims",
        "4",
        "--cardinality",
        "100",
        "--backends",
        &backends,
        "--queue",
        "8192",
        "--addr",
        "127.0.0.1:0",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("routing on "), "{stdout}");
    backend.shutdown();
}
