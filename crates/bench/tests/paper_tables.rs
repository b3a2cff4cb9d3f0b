//! Table 2 and the fleet learning table pinned under `cargo test`, and
//! Table 3 asserted over a seed set.
//!
//! Table 2: every healer of the comparison — the
//! manual rules, the three diagnosis engines, FixSym and the hybrid — runs
//! the committed recurring-failure scenario and must print the committed
//! CSV byte for byte.  A change to how any healer chooses its next fix
//! moves a row; one that *means* to regenerates the file with
//! `cargo run --release -p selfheal-bench --bin table2_approach_comparison`.
//! The fleet learning table (warm vs cold start; cold start, storm and
//! adversary, shared vs isolated) is held the same way; its binary is
//! `fleet_scaling`.

use selfheal_bench::{fleet, synopsis_comparison, table2_approach_comparison, ExperimentScale};
use selfheal_core::synopsis::SynopsisKind;
use selfheal_faults::FixKind;
use std::sync::OnceLock;

/// Fails unless `regenerated` is the committed `results/<name>.csv`.
fn assert_committed(name: &str, regenerated: &str) {
    let path = format!("{}/../../results/{name}.csv", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).expect("the committed CSV");
    assert!(
        regenerated == committed,
        "{name} moved.\ncommitted:\n{committed}\nregenerated:\n{regenerated}"
    );
}

#[test]
fn table2_regenerates_the_committed_csv() {
    let table = table2_approach_comparison(ExperimentScale::full(), 4);
    assert_committed("table2_approach_comparison", &table.to_csv());
}

#[test]
fn fleet_learning_regenerates_the_committed_csv() {
    assert_committed("fleet_learning", &fleet::learning_table().to_csv());
}

/// Table 3 over a seed set.  Escalation teaches the administrator's fix, so
/// a synopsis learns the classes whose fix trial and error within the
/// threshold cannot reach.  Before it did, a synopsis knew only the four
/// cheapest candidates, and every learner's accuracy equalled the share of
/// the test set whose catalogue fix is one of them.  Nearest neighbour must
/// now beat that share strictly, on a reduced test set of 200 states.
/// (k-means ties it at this size at seed 19, and clears it by ≥ 0.068 at
/// full scale; README.)
const SEEDS: [u64; 5] = [5, 7, 11, 13, 17];

/// Per seed: nearest neighbour's accuracy at 50 fixes and the cheap share.
fn accuracy_and_cheap_share() -> &'static [(u64, f64, f64)] {
    static ROWS: OnceLock<Vec<(u64, f64, f64)>> = OnceLock::new();
    ROWS.get_or_init(|| {
        let mut candidates: Vec<FixKind> = FixKind::CANDIDATES
            .into_iter()
            .filter(|fix| !fix.is_escalation())
            .collect();
        candidates.sort_by(|a, b| {
            let penalty = |fix: &FixKind| fix.default_cost().penalty();
            penalty(a).total_cmp(&penalty(b))
        });
        let cheapest: Vec<usize> = candidates[..4].iter().map(|fix| fix.code()).collect();
        let scale = ExperimentScale {
            test_states: 200,
            max_correct_fixes: 50,
            ..ExperimentScale::quick()
        };
        SEEDS
            .iter()
            .map(|&seed| {
                let (test_set, runs) =
                    synopsis_comparison(&[SynopsisKind::NearestNeighbor], scale, seed);
                let cheap = test_set
                    .iter()
                    .filter(|(_, label)| cheapest.contains(label))
                    .count();
                let share = cheap as f64 / test_set.len() as f64;
                (seed, runs[0].accuracy_at_50, share)
            })
            .collect()
    })
}

fn nearest_neighbour_beats_the_cheap_share(seed: u64) {
    let rows = accuracy_and_cheap_share();
    let mut margins: Vec<f64> = rows.iter().map(|(_, acc, share)| acc - share).collect();
    margins.sort_by(f64::total_cmp);
    let (_, accuracy, share) = rows.iter().find(|row| row.0 == seed).expect("a seed row");
    assert!(
        accuracy > share,
        "seed {seed}: nearest neighbour's accuracy_at_50 {accuracy:.3} does not exceed the \
         cheap share {share:.3}; margin over seeds {SEEDS:?}: min {:+.3} / median {:+.3} / \
         max {:+.3}",
        margins[0],
        margins[margins.len() / 2],
        margins[margins.len() - 1]
    );
}

#[test]
fn table3_nearest_neighbour_beats_the_cheap_share_seed_5() {
    nearest_neighbour_beats_the_cheap_share(5);
}

#[test]
fn table3_nearest_neighbour_beats_the_cheap_share_seed_7() {
    nearest_neighbour_beats_the_cheap_share(7);
}

#[test]
fn table3_nearest_neighbour_beats_the_cheap_share_seed_11() {
    nearest_neighbour_beats_the_cheap_share(11);
}

#[test]
fn table3_nearest_neighbour_beats_the_cheap_share_seed_13() {
    nearest_neighbour_beats_the_cheap_share(13);
}

#[test]
fn table3_nearest_neighbour_beats_the_cheap_share_seed_17() {
    nearest_neighbour_beats_the_cheap_share(17);
}
