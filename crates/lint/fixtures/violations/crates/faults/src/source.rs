//! Fixture fault source: reachable from `FaultChoice`, so silent.

pub struct ScriptedSource;

impl FaultSource for ScriptedSource {
    fn next(&mut self) -> u64 {
        0
    }
}
