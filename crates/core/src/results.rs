//! Analysis-independent result summaries.
//!
//! Every analyzer in this crate (and the Featherweight Java analyzer in
//! `cfa-fj`) produces a [`Metrics`] summary so that the experiment harness
//! can tabulate analyses with different abstract domains side by side —
//! the paper's §6 tables compare k-CFA, m-CFA, polynomial k-CFA, and
//! 0CFA on exactly these axes (running time, precision via inlinings).

use crate::engine::Status;
use cfa_syntax::cps::{CallId, LamId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Duration;

/// The sets a CPS machine accumulates while it runs, from which its
/// [`Metrics`] are built, in a form two runs can be compared by: every
/// engine path must produce the same sets for one program and analysis.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MetricSets<E: Ord, V: Ord> {
    /// Per call site: the λs applied there, and whether a non-closure
    /// value reached the operator.
    pub call_targets: BTreeMap<CallId, (BTreeSet<LamId>, bool)>,
    /// The distinct `(λ, entry environment)` pairs.
    pub entry_envs: BTreeSet<(LamId, E)>,
    /// The values reaching `%halt`.
    pub halt_values: BTreeSet<V>,
}

impl<E: Ord + Clone, V: Ord + Clone> MetricSets<E, V> {
    /// Collects the sets from a machine's accumulators.
    pub(crate) fn collect(
        operator_flows: &crate::fxhash::FxHashMap<CallId, (BTreeSet<LamId>, bool)>,
        lam_entry_envs: &[(LamId, E)],
        halt_values: &BTreeSet<V>,
    ) -> Self {
        MetricSets {
            call_targets: operator_flows
                .iter()
                .map(|(&site, flows)| (site, flows.clone()))
                .collect(),
            entry_envs: lam_entry_envs.iter().cloned().collect(),
            halt_values: halt_values.clone(),
        }
    }
}

/// A cross-analysis summary of one run.
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Human-readable analysis name, e.g. `k-CFA(k=1)`.
    pub analysis: String,
    /// Completion status.
    pub status: Status,
    /// Wall-clock duration of the fixpoint computation.
    pub elapsed: Duration,
    /// Configuration evaluations (including re-evaluations).
    pub iterations: u64,
    /// Distinct configurations reached.
    pub config_count: usize,
    /// Bound abstract addresses in the final store.
    pub store_entries: usize,
    /// Total `(address, value)` facts in the final store.
    pub store_facts: usize,
    /// Reachable user (procedure) call sites.
    pub reachable_user_calls: usize,
    /// User call sites whose operator flow set is a single procedure —
    /// the "inlinings supported" precision metric of §6.2.
    pub singleton_user_calls: usize,
    /// Call targets per call site (the on-the-fly call graph).
    pub call_targets: BTreeMap<CallId, BTreeSet<LamId>>,
    /// Distinct abstract environments each λ-term was *entered* with —
    /// "in how many environments does `baz` get analyzed" (Figures 1/2).
    pub lam_env_counts: BTreeMap<LamId, usize>,
    /// Size of the union of all entry environments across λ-terms — the
    /// program-wide abstract-environment count the Figure 1/2 experiment
    /// compares between paradigms (`O(N+M)` vs `O(N·M)`).
    pub distinct_envs: usize,
    /// Rendered abstract values reaching `%halt`.
    pub halt_values: BTreeSet<String>,
}

impl Metrics {
    /// Sum of per-λ environment counts — the total abstract environment
    /// count the Figure 1/2 experiment reports.
    pub fn total_env_count(&self) -> usize {
        self.lam_env_counts.values().sum()
    }

    /// The largest per-λ environment count.
    pub fn max_env_count(&self) -> usize {
        self.lam_env_counts.values().copied().max().unwrap_or(0)
    }

    /// Environment count for one λ-term.
    pub fn env_count(&self, lam: LamId) -> usize {
        self.lam_env_counts.get(&lam).copied().unwrap_or(0)
    }

    /// The inlining metric as a fraction of reachable user calls.
    pub fn inlining_ratio(&self) -> f64 {
        if self.reachable_user_calls == 0 {
            return 0.0;
        }
        self.singleton_user_calls as f64 / self.reachable_user_calls as f64
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: status={:?} time={:.3?} iters={} configs={} store={}({} facts) inline={}/{}",
            self.analysis,
            self.status,
            self.elapsed,
            self.iterations,
            self.config_count,
            self.store_entries,
            self.store_facts,
            self.singleton_user_calls,
            self.reachable_user_calls,
        )
    }
}

/// Deduplicates a `(key, item)` log into per-key distinct-item counts.
///
/// The machines record entry environments as append-only logs (a hot
/// path must not pay a set insert per application); this is the shared
/// off-line fold that turns a log into the paper's distinct-environment
/// counts.
pub fn distinct_counts<K, E>(log: &[(K, E)]) -> std::collections::BTreeMap<K, usize>
where
    K: Ord + Copy,
    E: Eq + std::hash::Hash,
{
    let mut per: std::collections::BTreeMap<K, crate::fxhash::FxHashSet<&E>> =
        std::collections::BTreeMap::new();
    for (key, item) in log {
        per.entry(*key).or_default().insert(item);
    }
    per.into_iter()
        .map(|(key, items)| (key, items.len()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy() -> Metrics {
        Metrics {
            analysis: "test".into(),
            status: Status::Completed,
            elapsed: Duration::from_millis(1),
            iterations: 10,
            config_count: 5,
            store_entries: 3,
            store_facts: 4,
            reachable_user_calls: 4,
            singleton_user_calls: 3,
            call_targets: BTreeMap::new(),
            lam_env_counts: [(LamId(0), 2), (LamId(1), 5)].into_iter().collect(),
            distinct_envs: 6,
            halt_values: BTreeSet::new(),
        }
    }

    #[test]
    fn env_count_helpers() {
        let m = dummy();
        assert_eq!(m.total_env_count(), 7);
        assert_eq!(m.max_env_count(), 5);
        assert_eq!(m.env_count(LamId(0)), 2);
        assert_eq!(m.env_count(LamId(9)), 0);
    }

    #[test]
    fn inlining_ratio() {
        let m = dummy();
        assert!((m.inlining_ratio() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!dummy().to_string().is_empty());
    }
}
