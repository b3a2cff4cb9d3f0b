//! FixSym learning in action: the signature-based engine heals a stream of
//! recurring failures, getting faster with experience (the behaviour behind
//! Figure 4 of the paper).
//!
//! ```bash
//! cargo run --release --example fixsym_learning
//! ```

use selfheal::faults::{FaultKind, FixCatalog};
use selfheal::healing::fixsym::FixSymEngine;
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::{FailureStateGenerator, ServiceConfig};

fn main() {
    // The simulator generates labelled failure states: symptom vectors plus
    // the fix that actually repairs each failure (used only to *check* an
    // attempted fix, exactly like the check_fix step of Figure 3, and as the
    // administrator's answer when an episode escalates).
    let mut generator = FailureStateGenerator::standard(ServiceConfig::tiny(), 7);
    let kinds = FaultKind::TABLE1.to_vec();
    let catalog = FixCatalog::standard();

    println!("training FixSym with three different synopses on recurring Table 1 failures\n");
    for kind in [
        SynopsisKind::AdaBoost(60),
        SynopsisKind::NearestNeighbor,
        SynopsisKind::KMeans,
    ] {
        let mut engine = FixSymEngine::new(kind);
        let mut attempts_per_block = Vec::new();
        let mut block_attempts = 0usize;
        let mut block_count = 0usize;

        for i in 0..60 {
            let state = generator.generate_one(&kinds);
            let result = engine.run_episode(&state.symptoms, state.correct_fix);
            block_attempts += result.attempt_count();
            block_count += 1;
            if (i + 1) % 15 == 0 {
                attempts_per_block.push(block_attempts as f64 / block_count as f64);
                block_attempts = 0;
                block_count = 0;
            }
        }

        println!("synopsis = {}", kind.label());
        println!(
            "  mean fix attempts per failure, in blocks of 15 failures: {:?}",
            attempts_per_block
        );
        println!(
            "  correct fixes learned = {}, escalations = {}, training ops = {}",
            engine.synopsis().correct_fixes_learned(),
            engine.escalations(),
            engine.synopsis().training_ops()
        );
        // Sanity: the learned mapping matches the catalog for a fresh failure.
        let probe = generator.generate_one(&kinds);
        if let Some((fix, confidence)) = engine.synopsis().suggest(&probe.symptoms) {
            println!(
                "  fresh {} failure -> suggested fix {} (confidence {:.2}, catalog says {})\n",
                probe.fault_kind,
                fix,
                confidence,
                catalog.preferred_fix(probe.fault_kind)
            );
        }
    }
}
