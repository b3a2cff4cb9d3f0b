//! Regenerates Figure 4 (synopsis accuracy vs correct fixes) and, from the
//! same runs, Table 3 (time-to-generate vs accuracy at 50 correct fixes).
use selfheal_bench::{emit, fig4_table, synopsis_comparison, table3_table, ExperimentScale};
use selfheal_core::synopsis::SynopsisKind;

fn main() {
    let (_, runs) = synopsis_comparison(&SynopsisKind::paper_set(), ExperimentScale::full(), 5);
    emit(&fig4_table(&runs), "fig4_synopsis_accuracy");
    emit(&table3_table(&runs), "table3_synopsis_cost");
}
