//! Regenerates the fleet experiments' two tables:
//! `results/fleet_learning.csv` (deterministic, pinned by `cargo test`) and
//! `results/fleet_scaling.csv` (wall clocks, never pinned).  The claims are
//! asserted by the `selfheal_bench::fleet` tests, not here.
use selfheal_bench::{emit, fleet};

fn main() {
    emit(&fleet::learning_table(), "fleet_learning");
    emit(&fleet::scaling_table(), "fleet_scaling");
}
