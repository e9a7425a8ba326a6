//! Property tests for the canonical normal form (`cfa_core::canon`).
//!
//! For random programs — sequential and concurrent — normalization is
//! *engine-invariant*: all five engine configurations (sequential and
//! sharded-parallel × both eval modes, plus the reference oracle) must
//! serialize to one byte-identical normal form.
//! And the form itself must round-trip: serialize → parse →
//! re-serialize is the identity on the JSON text, so a snapshot file
//! can be shipped, re-read, and diffed without loss.

use cfa::analysis::CanonSnapshot;
use cfa::Analysis;
use cfa_testsupport::{
    canon_snapshot_matrix, random_concurrent_scheme_program, random_scheme_program,
};
use proptest::prelude::*;

/// Asserts serialize → parse → re-serialize is the identity.
fn assert_roundtrips(label: &str, snapshot: &CanonSnapshot) {
    let json = snapshot.to_json();
    let parsed = CanonSnapshot::parse(&json)
        .unwrap_or_else(|e| panic!("{label}: normal form does not re-parse: {e}"));
    assert_eq!(
        parsed.to_json(),
        json,
        "{label}: normal form does not round-trip"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random sequential program × random context depth, across every
    /// CPS machine family: one normal form from five engines, and it
    /// round-trips.
    #[test]
    fn random_scheme_normal_forms_are_engine_invariant(
        seed in 0u64..10_000,
        depth in 0usize..2,
    ) {
        let src = random_scheme_program(seed, 30);
        let p = cfa::compile(&src).expect("generated program compiles");
        for analysis in [
            Analysis::KCfa { k: depth },
            Analysis::MCfa { m: depth },
            Analysis::PolyKCfa { k: depth },
        ] {
            let label = format!("canon seed={seed} [{analysis}]");
            let snapshot = canon_snapshot_matrix(&p, &label, analysis);
            assert_roundtrips(&label, &snapshot);
        }
    }

    /// Random spawn/join/atom program: the concurrent machine family
    /// (abstract tids, atoms, thread return values) normalizes
    /// engine-invariantly too, and round-trips.
    #[test]
    fn random_concurrent_normal_forms_are_engine_invariant(
        seed in 0u64..10_000,
    ) {
        let src = random_concurrent_scheme_program(seed, 25);
        let p = cfa::compile(&src).expect("generated program compiles");
        for analysis in [Analysis::KCfa { k: 1 }, Analysis::MCfa { m: 1 }] {
            let label = format!("canon concurrent seed={seed} [{analysis}]");
            let snapshot = canon_snapshot_matrix(&p, &label, analysis);
            assert_roundtrips(&label, &snapshot);
        }
    }
}
