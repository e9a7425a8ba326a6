//! `repobench` — the compiled half of the repository benchmark
//! (`python3 repobench/run.py` is the entry point).
//!
//! ```text
//! repobench gen --seed N --unique U --out DIR
//! repobench replay --workload W --programs DIR --plan FILE --traced 0|1
//!                  --outputs FILE [--chrome FILE]
//! ```
//!
//! * `gen` writes every input program the workloads feed to `cfa`:
//!   the fixed corpus plus a band of programs generated from the seed.
//! * `replay` re-runs a workload's plan in process, calling each
//!   layer's public functions in the order the CLI and `cfa serve` call
//!   them, with or without spans around the calls.

mod gen;
mod replay;
mod spans;

use std::process::ExitCode;

/// One analysis of the CLI matrix, written as a short token
/// (`k0`, `m2`, `p1`, ...) in replay plans.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Cell {
    /// Shared-environment k-CFA.
    K(usize),
    /// m-CFA (top-m frames).
    M(usize),
    /// Polynomial k-CFA (last-k call sites).
    P(usize),
}

impl Cell {
    pub fn parse(token: &str) -> Result<Cell, String> {
        let depth = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| format!("bad analysis token {token:?}"))
        };
        if token.is_empty() || !token.is_char_boundary(1) {
            return Err(format!("bad analysis token {token:?}"));
        }
        match token.split_at(1) {
            ("k", d) => Ok(Cell::K(depth(d)?)),
            ("m", d) => Ok(Cell::M(depth(d)?)),
            ("p", d) => Ok(Cell::P(depth(d)?)),
            _ => Err(format!("bad analysis token {token:?}")),
        }
    }
}

/// Parses `--flag value` pairs; every flag is required to have a value.
pub fn flags(args: &[String]) -> Result<std::collections::BTreeMap<String, String>, String> {
    let mut out = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let Some(value) = it.next() else {
            return Err(format!("--{name} needs a value"));
        };
        out.insert(name.to_owned(), value.clone());
    }
    Ok(out)
}

/// The value of a required flag.
pub fn need<'a>(
    flags: &'a std::collections::BTreeMap<String, String>,
    name: &str,
) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: repobench gen|replay --flag value ...");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "gen" => gen::main(rest),
        "replay" => replay::main(rest),
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repobench: {e}");
            ExitCode::FAILURE
        }
    }
}
