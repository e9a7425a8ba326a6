//! The bench binaries read their knobs the way the CLI does: a
//! malformed `CFA_*` value exits 2 with one line naming it, before any
//! work, instead of panicking.

use std::process::Command;

/// Runs bench binary `exe` with `var=value` set and asserts the
/// one-line exit-2 diagnostic `name: var="value": …`.
fn assert_rejects(exe: &str, name: &str, var: &str, value: &str) {
    let out = Command::new(exe)
        .env(var, value)
        .current_dir(std::env::temp_dir())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{name} {var}={value}: {out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err.lines().count(), 1, "{name} {var}={value}: {err}");
    assert!(
        err.starts_with(&format!("{name}: {var}={value:?}: ")),
        "{name} {var}={value}: {err}"
    );
    assert!(out.stdout.is_empty(), "{name} {var}={value}: ran anyway");
}

#[test]
fn corpus_diff_rejects_malformed_knobs_with_one_line() {
    let exe = env!("CARGO_BIN_EXE_corpus_diff");
    for (var, value) in [
        ("CFA_MAX_ITERS", "abc"),
        ("CFA_POOL_THREADS", "two"),
        ("CFA_CORPUS_SIZE", "many"),
    ] {
        assert_rejects(exe, "corpus_diff", var, value);
    }
}

#[test]
fn throughput_bench_rejects_malformed_knobs_with_one_line() {
    let exe = env!("CARGO_BIN_EXE_throughput_bench");
    for (var, value) in [
        ("CFA_POOL_THREADS", "two"),
        ("CFA_POOL_QUEUE_DEPTH", "-1"),
        ("CFA_THROUGHPUT_REPEATS", "x"),
    ] {
        assert_rejects(exe, "throughput_bench", var, value);
    }
}
