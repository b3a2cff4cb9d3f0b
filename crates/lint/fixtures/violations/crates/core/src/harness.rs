//! Fixture harness: mirrors ScriptedSource but not RogueSource.

pub enum FaultChoice {
    Scripted,
}

pub fn build(choice: FaultChoice) -> ScriptedSource {
    match choice {
        FaultChoice::Scripted => ScriptedSource,
    }
}
