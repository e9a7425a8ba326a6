//! `repobench gen`: writes every program a workload feeds to `cfa`.
//!
//! The fixed corpus (suite, extended suite, worst-case family n=2..10,
//! golden concurrent programs) is the same for every seed; the band of
//! generated programs and the pool of unique `serve` programs derive
//! from the seed alone, so the same seed gives byte-identical inputs.
//!
//! Layout under `--out`: `programs/STEM.scm` for every program the CLI
//! reads, `programs/unique.txt` holding the unique `serve` programs
//! (each after a `;;; STEM` line: thousands of tiny files would make
//! set-up time a file-system benchmark), and `programs.tsv` indexing
//! them all as `STEM FAMILY SPAWNS` (1 when the source spawns a thread).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// File of the unique `serve` programs, under `programs/`.
const BUNDLE: &str = "unique.txt";
/// Line that starts each program in the bundle.
const BUNDLE_MARK: &str = ";;; ";
/// Seeded generated programs in the CLI corpus (half of them concurrent).
const BAND: usize = 6;

/// Program sources written by `gen`, read by stem.
#[derive(Debug)]
pub struct Inputs {
    dir: std::path::PathBuf,
    sources: BTreeMap<String, String>,
}

impl Inputs {
    /// Opens the `programs/` directory `gen` wrote.
    pub fn open(dir: &Path) -> Result<Inputs, String> {
        let mut sources = BTreeMap::new();
        let bundle = dir.join(BUNDLE);
        if bundle.exists() {
            let text = std::fs::read_to_string(&bundle)
                .map_err(|e| format!("{}: {e}", bundle.display()))?;
            let mut stem: Option<String> = None;
            for line in text.lines() {
                if let Some(next) = line.strip_prefix(BUNDLE_MARK) {
                    stem = Some(next.to_owned());
                    sources.insert(next.to_owned(), String::new());
                } else if let Some(s) = &stem {
                    let source = sources.get_mut(s).expect("stem inserted");
                    source.push_str(line);
                    source.push('\n');
                }
            }
        }
        Ok(Inputs {
            dir: dir.to_owned(),
            sources,
        })
    }

    /// The source of program `stem`.
    pub fn source(&mut self, stem: &str) -> Result<&str, String> {
        if !self.sources.contains_key(stem) {
            let path = self.dir.join(format!("{stem}.scm"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            self.sources.insert(stem.to_owned(), text);
        }
        Ok(&self.sources[stem])
    }
}

/// One program written to disk.
struct Program {
    /// File stem; for golden-backed programs, the slug the committed
    /// artifacts under `tests/golden/` are named by.
    stem: String,
    family: &'static str,
    source: String,
}

/// SplitMix64: derives independent generator seeds from the workload
/// seed and an index.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn corpus(seed: u64, unique: usize) -> Vec<Program> {
    let slug = cfa_testsupport::golden_slug;
    let mut out = Vec::new();
    for p in cfa_workloads::suite() {
        out.push(Program {
            stem: slug(p.name),
            family: "suite",
            source: p.source.to_owned(),
        });
    }
    for p in cfa_workloads::extended_suite() {
        out.push(Program {
            stem: slug(p.name),
            family: "extended",
            source: p.source.to_owned(),
        });
    }
    for n in 2..=10 {
        out.push(Program {
            stem: format!("worst-case-{n}"),
            family: "worstcase",
            source: cfa_workloads::worst_case_source(n),
        });
    }
    for &(name, src) in cfa_testsupport::golden_racy_programs() {
        out.push(Program {
            stem: slug(name),
            family: "racy",
            source: src.to_owned(),
        });
    }
    for &(name, src) in cfa_testsupport::golden_synchronized_programs() {
        out.push(Program {
            stem: slug(name),
            family: "synchronized",
            source: src.to_owned(),
        });
    }
    // The seeded band: half sequential, half concurrent programs.
    for i in 0..BAND {
        let s = mix(seed, i as u64);
        let (family, source) = if i % 2 == 0 {
            ("band", cfa_workloads::random_program(s, 30))
        } else {
            ("band", cfa_workloads::random_concurrent_program(s, 25))
        };
        out.push(Program {
            stem: format!("band-{i}"),
            family,
            source,
        });
    }
    // Unique `serve` programs, each sent once.
    for i in 0..unique {
        let s = mix(seed ^ 0x5EED_5E4E, i as u64);
        let source = if i % 3 == 2 {
            cfa_workloads::random_concurrent_program(s, 25)
        } else {
            cfa_workloads::random_program(s, 30)
        };
        out.push(Program {
            stem: format!("unique-{i}"),
            family: "unique",
            source,
        });
    }
    out
}

pub fn main(args: &[String]) -> Result<(), String> {
    let flags = crate::flags(args)?;
    let number = |name: &str| -> Result<u64, String> {
        crate::need(&flags, name)?
            .parse::<u64>()
            .map_err(|_| format!("--{name} must be a number"))
    };
    let seed = number("seed")?;
    let unique = usize::try_from(number("unique")?).map_err(|e| e.to_string())?;
    let out = Path::new(crate::need(&flags, "out")?);
    let dir = out.join("programs");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut index = String::new();
    let mut bundle = String::new();
    for p in corpus(seed, unique) {
        // Every input must compile: a workload on which no operation
        // fails is part of the benchmark's contract.
        cfa_syntax::compile(&p.source).map_err(|e| format!("{} does not compile: {e}", p.stem))?;
        if p.family == "unique" {
            let _ = writeln!(bundle, "{BUNDLE_MARK}{}\n{}", p.stem, p.source.trim_end());
        } else {
            let path = dir.join(format!("{}.scm", p.stem));
            std::fs::write(&path, &p.source).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let spawns = p.source.contains("(spawn");
        let _ = writeln!(index, "{}\t{}\t{}", p.stem, p.family, u8::from(spawns));
    }
    let path = dir.join(BUNDLE);
    std::fs::write(&path, bundle).map_err(|e| format!("{}: {e}", path.display()))?;
    let path = out.join("programs.tsv");
    std::fs::write(&path, index).map_err(|e| format!("{}: {e}", path.display()))
}
