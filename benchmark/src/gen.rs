//! Seeded input generation.  The program under test only ever sees inputs
//! made here from `--seed`: the same seed gives the same request order, the
//! same fleet seeds and the same snapshot log, byte for byte.

use selfheal::healing::snapshot::{SynopsisExample, SynopsisSnapshot};

/// xorshift64* — small, fast, and good enough to decorrelate inputs.
#[derive(Debug, Clone)]
pub struct XorShift {
    state: u64,
}

impl XorShift {
    /// A generator for one named input stream of a run.  The stream number
    /// is mixed in through a splitmix64 round so neighbouring streams of
    /// neighbouring runs share nothing.
    pub fn new(run: u64, stream: u64) -> Self {
        let mut z = run
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(0x94D0_49BB_1331_11EB);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShift {
            // xorshift has one fixed point, zero.
            state: if z == 0 { 0x2545_F491_4F6C_DD1D } else { z },
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One HTTP request the load generator sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// A read: `GET <target>`.
    Get(&'static str),
    /// `POST /v1/tenants/default/replicas` — remember the id it returns.
    AddReplica,
    /// `POST /v1/tenants/default/replicas/<id>/config` on the remembered id.
    ConfigureReplica,
    /// `POST /v1/tenants/default/snapshot`.
    Snapshot,
    /// `DELETE /v1/tenants/default/replicas/<id>` on the remembered id.
    RemoveReplica,
}

impl Call {
    /// Whether the call changes daemon state.
    pub fn is_write(&self) -> bool {
        !matches!(self, Call::Get(_))
    }
}

/// The read targets a dashboard polls, in cycle order.
pub const READS: [&str; 5] = [
    "/v1/tenants/default/status",
    "/v1/tenants/default/replicas",
    "/v1/tenants/default/fixes",
    "/v1/tenants/default/episodes",
    "/v1/tenants",
];

/// The operator's write cycle: every replica it adds it later removes, so
/// the tenant returns to its launch size.
const WRITES: [Call; 4] = [
    Call::AddReplica,
    Call::ConfigureReplica,
    Call::Snapshot,
    Call::RemoveReplica,
];

/// The endless request sequence of one connection: the read cycle, entered
/// at a seeded offset, with every `write_every`-th request taken from the
/// write cycle instead (`0` = reads only).
#[derive(Debug, Clone)]
pub struct CallCycle {
    read_at: usize,
    write_at: usize,
    sent: usize,
    write_every: usize,
}

impl CallCycle {
    /// The cycle of connection `connection` in run `run`.
    pub fn new(run: u64, connection: usize, write_every: usize) -> Self {
        let mut rng = XorShift::new(run, 0x100 + connection as u64);
        CallCycle {
            read_at: rng.below(READS.len()),
            write_at: 0,
            sent: 0,
            write_every,
        }
    }

    /// The next request to send.
    pub fn next_call(&mut self) -> Call {
        self.sent += 1;
        if self.write_every > 0 && self.sent.is_multiple_of(self.write_every) {
            let call = WRITES[self.write_at % WRITES.len()].clone();
            self.write_at += 1;
            call
        } else {
            let call = Call::Get(READS[self.read_at % READS.len()]);
            self.read_at += 1;
            call
        }
    }
}

/// Amplifies a fleet's real experience to `target` examples: the originals
/// are cycled in order and every symptom is jittered by up to ±1 %, so the
/// log keeps the shape of real signatures at the size of a long-lived
/// daemon's.
pub fn amplify(base: &SynopsisSnapshot, target: usize, run: u64) -> SynopsisSnapshot {
    assert!(!base.is_empty(), "amplification needs at least one example");
    let mut rng = XorShift::new(run, 0x200);
    let mut out = SynopsisSnapshot::new(base.kind);
    for i in 0..target {
        let example = &base.examples[i % base.len()];
        let symptoms = example
            .symptoms
            .iter()
            .map(|v| v * (1.0 + (rng.next_f64() - 0.5) * 0.02))
            .collect();
        out.examples
            .push(SynopsisExample::new(symptoms, example.fix, example.success));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal::faults::FixKind;
    use selfheal::healing::synopsis::SynopsisKind;

    #[test]
    fn the_same_run_and_stream_repeat_and_others_differ() {
        let draw = |run, stream| {
            let mut rng = XorShift::new(run, stream);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42, 1), draw(42, 1));
        assert_ne!(draw(42, 1), draw(42, 2));
        assert_ne!(draw(42, 1), draw(43, 1));
        let mut rng = XorShift::new(0, 0);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&rng.next_f64())));
    }

    #[test]
    fn every_fifth_call_is_the_next_write() {
        let mut cycle = CallCycle::new(7, 0, 5);
        let calls: Vec<Call> = (0..20).map(|_| cycle.next_call()).collect();
        let writes: Vec<&Call> = calls.iter().filter(|c| c.is_write()).collect();
        assert_eq!(
            writes,
            [
                &Call::AddReplica,
                &Call::ConfigureReplica,
                &Call::Snapshot,
                &Call::RemoveReplica
            ]
        );
        assert!(calls[4].is_write() && calls[9].is_write());
        let mut reads_only = CallCycle::new(7, 0, 0);
        assert!((0..50).all(|_| !reads_only.next_call().is_write()));
    }

    #[test]
    fn amplification_is_seeded_and_keeps_fixes() {
        let mut base = SynopsisSnapshot::new(SynopsisKind::NearestNeighbor);
        base.push(vec![1.0, 2.0], FixKind::ALL[0], true);
        base.push(vec![3.0, 4.0], FixKind::ALL[1], false);
        let a = amplify(&base, 10, 42);
        assert_eq!(a, amplify(&base, 10, 42));
        assert_ne!(a, amplify(&base, 10, 43));
        assert_eq!(a.len(), 10);
        assert_eq!(a.examples[3].fix, FixKind::ALL[1]);
        assert!((a.examples[2].symptoms[0] - 1.0).abs() <= 0.01);
    }
}
