//! Table 2 pinned under `cargo test`: every healer of the comparison — the
//! manual rules, the three diagnosis engines, FixSym and the hybrid — runs
//! the committed recurring-failure scenario and must print the committed
//! CSV byte for byte.  A change to how any healer chooses its next fix
//! moves a row; one that *means* to regenerates the file with
//! `cargo run --release -p selfheal-bench --bin table2_approach_comparison`.

use selfheal_bench::{table2_approach_comparison, ExperimentScale};

#[test]
fn table2_regenerates_the_committed_csv() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/table2_approach_comparison.csv"
    );
    let committed = std::fs::read_to_string(path).expect("the committed Table 2");
    let regenerated = table2_approach_comparison(ExperimentScale::full(), 4).to_csv();
    assert!(
        regenerated == committed,
        "Table 2 moved.\ncommitted:\n{committed}\nregenerated:\n{regenerated}"
    );
}
