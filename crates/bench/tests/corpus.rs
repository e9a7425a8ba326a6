//! End-to-end tests of the `corpus_diff` runner: a clean bounded sweep
//! reports zero divergences, and an injected fault is reported as "not
//! comparable" (exit 3), never as a spurious diff.

use std::process::Command;

fn corpus_diff() -> Command {
    Command::new(env!("CARGO_BIN_EXE_corpus_diff"))
}

#[test]
fn bounded_corpus_has_zero_divergences() {
    let out = corpus_diff()
        .env("CFA_CORPUS_ONLY", "eta")
        .env("CFA_CORPUS_SIZE", "0")
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ok eta (21 engine configurations)"), "{text}");
    assert!(text.contains("0 divergences"), "{text}");
    assert!(text.contains("0 not comparable"), "{text}");
    assert!(text.contains("0 park timeouts"), "{text}");
}

#[test]
fn generated_band_is_reproducible_from_its_seed() {
    // Two runs over the same seeded band must report identical totals —
    // the corpus is a pure function of (CFA_CORPUS_SEED, CFA_CORPUS_SIZE).
    let run = || {
        let out = corpus_diff()
            .env("CFA_CORPUS_ONLY", "gen-")
            .env("CFA_CORPUS_SIZE", "2")
            .env("CFA_CORPUS_SEED", "7")
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let first = run();
    assert!(first.contains("gen-seq seed=7"), "{first}");
    assert!(first.contains("gen-conc seed=8"), "{first}");
    assert_eq!(first, run());
}

#[test]
fn injected_fault_reports_not_comparable_not_a_diff() {
    let out = corpus_diff()
        .env("CFA_CORPUS_ONLY", "eta")
        .env("CFA_CORPUS_SIZE", "0")
        .env("CFA_FAULT_PLAN", "panic_eval=3")
        .output()
        .unwrap();
    // Exit 3: honestly not comparable — neither 0 (a lie) nor 1 (a
    // spurious divergence).
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("not comparable"), "{err}");
    assert!(err.contains("aborted"), "{err}");
    assert!(
        !err.contains("DIVERGENCE"),
        "a truncated run must not be diffed: {err}"
    );
}
