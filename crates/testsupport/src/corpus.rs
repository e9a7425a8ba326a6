//! The corpus the `corpus_diff` runner sweeps, and the selection that
//! re-creates any one of its generated programs.
//!
//! A [`CorpusSelection`] is what the runner's environment knobs pick:
//! the curated programs plus a band of seeded generated programs,
//! filtered by name. Every generated [`CorpusProgram`] carries the
//! selection that yields exactly that program again, so a divergence
//! report can print a replay command that rebuilds the program that
//! diverged — the band alternates two generators by index, so a seed
//! alone does not name a program.

use std::fmt;

/// Which programs the differential corpus holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusSelection {
    /// `CFA_CORPUS_SIZE`: how many seeded generated programs follow the
    /// curated ones (default 16).
    pub size: u64,
    /// `CFA_CORPUS_SEED`: the seed of the first generated program
    /// (default 0); program `i` of the band uses seed `seed_base + i`.
    pub seed_base: u64,
    /// `CFA_CORPUS_ONLY`: keep only programs whose name contains this.
    pub only: Option<String>,
}

/// One corpus entry.
#[derive(Clone, Debug)]
pub struct CorpusProgram {
    /// Display name, e.g. `regex` or `gen-conc seed=5`.
    pub name: String,
    /// Mini-Scheme source.
    pub source: String,
    /// For a generated program, the selection that yields exactly this
    /// program and nothing else.
    pub replay: Option<CorpusSelection>,
}

fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v.parse().unwrap_or_else(|e| panic!("{name}={v:?}: {e}")),
        Err(_) => default,
    }
}

impl CorpusSelection {
    /// The selection the environment asks for: `CFA_CORPUS_SIZE`,
    /// `CFA_CORPUS_SEED` and `CFA_CORPUS_ONLY`.
    ///
    /// # Panics
    ///
    /// On a non-numeric size or seed.
    pub fn from_env() -> Self {
        CorpusSelection {
            size: env_u64("CFA_CORPUS_SIZE", 16),
            seed_base: env_u64("CFA_CORPUS_SEED", 0),
            only: std::env::var("CFA_CORPUS_ONLY").ok(),
        }
    }

    /// The selected programs: every workloads-suite program, the
    /// paper's worst-case family, the golden concurrent programs, and
    /// `size` seeded generated programs alternating between the
    /// sequential and the spawn/join/atom generators — filtered by
    /// `only`.
    pub fn programs(&self) -> Vec<CorpusProgram> {
        let curated = |name: String, source: String| CorpusProgram {
            name,
            source,
            replay: None,
        };
        let mut out: Vec<CorpusProgram> = cfa_workloads::suite()
            .iter()
            .map(|p| curated(p.name.to_owned(), p.source.to_owned()))
            .collect();
        out.push(curated(
            "worst-case n=3".to_owned(),
            cfa_workloads::worst_case_source(3),
        ));
        out.push(curated(
            "fn-program 2x2".to_owned(),
            cfa_workloads::fn_program(2, 2),
        ));
        for &(name, src) in crate::golden_racy_programs() {
            out.push(curated(format!("racy: {name}"), src.to_owned()));
        }
        for &(name, src) in crate::golden_synchronized_programs() {
            out.push(curated(format!("synchronized: {name}"), src.to_owned()));
        }
        for i in 0..self.size {
            let seed = self.seed_base + i;
            let (name, source) = if i % 2 == 0 {
                (
                    format!("gen-seq seed={seed}"),
                    crate::random_scheme_program(seed, 30),
                )
            } else {
                (
                    format!("gen-conc seed={seed}"),
                    crate::random_concurrent_scheme_program(seed, 25),
                )
            };
            // The band up to and including this program, narrowed to
            // its name: any other name containing it would carry a
            // larger seed, and the band stops at this one.
            let replay = CorpusSelection {
                size: i + 1,
                seed_base: self.seed_base,
                only: Some(name.clone()),
            };
            out.push(CorpusProgram {
                name,
                source,
                replay: Some(replay),
            });
        }
        if let Some(filter) = &self.only {
            out.retain(|p| p.name.contains(filter.as_str()));
        }
        out
    }
}

/// Renders the selection as the environment assignments that request
/// it, e.g. `CFA_CORPUS_SEED=0 CFA_CORPUS_SIZE=6 CFA_CORPUS_ONLY='gen-conc seed=5'`.
impl fmt::Display for CorpusSelection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CFA_CORPUS_SEED={} CFA_CORPUS_SIZE={}",
            self.seed_base, self.size
        )?;
        if let Some(only) = &self.only {
            write!(f, " CFA_CORPUS_ONLY='{only}'")?;
        }
        Ok(())
    }
}
