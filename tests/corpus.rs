//! The `corpus_diff` runner's corpus (`cfa_testsupport::corpus`): a
//! divergence report prints the environment that replays the program
//! that diverged, so that environment must select exactly that program.

use cfa_testsupport::corpus::CorpusSelection;

/// Every generated program's replay selection yields that program and
/// nothing else — for both generators of the alternating band, and for
/// a band that does not start at seed 0.
#[test]
fn replay_selection_rebuilds_exactly_the_generated_program() {
    for seed_base in [0, 3] {
        let band = CorpusSelection {
            size: 16,
            seed_base,
            only: None,
        };
        let generated: Vec<_> = band
            .programs()
            .into_iter()
            .filter_map(|p| p.replay.clone().map(|replay| (p, replay)))
            .collect();
        assert_eq!(generated.len(), 16, "base {seed_base}");
        for (program, replay) in generated {
            let again = replay.programs();
            let names: Vec<&str> = again.iter().map(|p| p.name.as_str()).collect();
            assert_eq!(names, [program.name.as_str()], "{replay}");
            assert_eq!(again[0].source, program.source, "{replay}");
        }
    }
}

/// The printed form is the environment the runner reads. Seed 5 of a
/// band based at 0 is the sixth program, from the concurrent generator.
#[test]
fn replay_selection_renders_as_the_runner_environment() {
    let band = CorpusSelection {
        size: 16,
        seed_base: 0,
        only: None,
    };
    let programs = band.programs();
    let conc5 = programs
        .iter()
        .find(|p| p.name == "gen-conc seed=5")
        .expect("the band holds gen-conc seed=5");
    assert_eq!(
        conc5.replay.as_ref().expect("generated").to_string(),
        "CFA_CORPUS_SEED=0 CFA_CORPUS_SIZE=6 CFA_CORPUS_ONLY='gen-conc seed=5'"
    );
}
