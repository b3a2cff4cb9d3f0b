//! Fixture harness: the declarative mirror of the fixture traits.

pub enum FaultChoice {
    Scripted,
}

pub fn build(choice: FaultChoice) -> ScriptedSource {
    match choice {
        FaultChoice::Scripted => ScriptedSource,
    }
}
