//! Regenerates Table 3: synopsis time-to-generate vs accuracy at 50 correct fixes.
use selfheal_bench::{emit, synopsis_comparison, table3_table, ExperimentScale};
use selfheal_core::synopsis::SynopsisKind;

fn main() {
    let (_, runs) = synopsis_comparison(&SynopsisKind::paper_set(), ExperimentScale::full(), 5);
    emit(&table3_table(&runs), "table3_synopsis_cost");
}
