//! The application tier: EJB components and the request → EJB call graph.
//!
//! Example 1 of the paper: "A J2EE application consists of reusable Java
//! modules called Enterprise Java Beans (EJBs).  Users interact with a J2EE
//! application through servlets ... which invoke methods on the EJBs.  In
//! turn, these methods may call methods on other EJBs, submit queries or
//! updates to the database tier, and so on."
//!
//! The anomaly-detection example (Example 2) monitors "the number of times
//! an EJB of one type calls an EJB of another type", so the call graph and
//! per-EJB invocation counts are first-class simulation state here.

use selfheal_workload::RequestKind;
use serde::{Deserialize, Serialize};

/// The application tier's component catalogue and call graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct EjbGraph {
    ejb_count: usize,
    table_count: usize,
}

/// The work one request performs in the application and database tiers:
/// which EJBs it invokes (and how many times), and which tables it touches.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub(crate) struct RequestPath {
    /// `(ejb index, number of method invocations)`.
    pub ejb_calls: Vec<(usize, u32)>,
    /// `(table index, rows accessed, is_write)`.
    pub table_accesses: Vec<(usize, f64, bool)>,
}

impl EjbGraph {
    /// Creates the call graph for a service with `ejb_count` EJBs and
    /// `table_count` tables; a smaller service wraps the canonical EJB
    /// indices around modulo the count.
    pub(crate) fn new(ejb_count: usize, table_count: usize) -> Self {
        assert!(ejb_count > 0, "call graph needs at least one EJB");
        assert!(table_count > 0, "call graph needs at least one table");
        EjbGraph {
            ejb_count,
            table_count,
        }
    }

    fn e(&self, nominal: usize) -> usize {
        nominal % self.ejb_count
    }

    fn t(&self, nominal: usize) -> usize {
        nominal % self.table_count
    }

    /// The path a request of `kind` takes through the EJBs and tables.
    ///
    /// The mapping is fixed (not randomized) so that each request kind has a
    /// stable interaction signature: that stability is what lets the anomaly
    /// detector learn a baseline distribution of inter-EJB calls.
    pub(crate) fn path(&self, kind: RequestKind) -> RequestPath {
        // Table roles: 0 items, 1 bids, 2 users, 3 comments, 4 categories,
        // 5 purchase history.
        match kind {
            RequestKind::Home => RequestPath {
                ejb_calls: vec![(self.e(0), 1)],
                table_accesses: vec![(self.t(4), 1.0, false)],
            },
            RequestKind::Browse => RequestPath {
                ejb_calls: vec![(self.e(0), 2), (self.e(1), 1)],
                table_accesses: vec![(self.t(0), 30.0, false), (self.t(4), 10.0, false)],
            },
            RequestKind::Search => RequestPath {
                ejb_calls: vec![(self.e(1), 3), (self.e(0), 1)],
                table_accesses: vec![(self.t(0), 70.0, false), (self.t(4), 10.0, false)],
            },
            RequestKind::ViewItem => RequestPath {
                ejb_calls: vec![(self.e(2), 2), (self.e(1), 1)],
                table_accesses: vec![(self.t(0), 10.0, false), (self.t(1), 5.0, false)],
            },
            RequestKind::ViewUser => RequestPath {
                ejb_calls: vec![(self.e(3), 2)],
                table_accesses: vec![(self.t(2), 8.0, false), (self.t(3), 12.0, false)],
            },
            RequestKind::Bid => RequestPath {
                ejb_calls: vec![(self.e(4), 3), (self.e(2), 1), (self.e(3), 1)],
                table_accesses: vec![(self.t(1), 8.0, true), (self.t(0), 4.0, false)],
            },
            RequestKind::Buy => RequestPath {
                ejb_calls: vec![(self.e(5), 3), (self.e(3), 1)],
                table_accesses: vec![(self.t(5), 6.0, true), (self.t(0), 4.0, false)],
            },
            RequestKind::Sell => RequestPath {
                ejb_calls: vec![(self.e(6), 3), (self.e(3), 1)],
                table_accesses: vec![(self.t(0), 6.0, true), (self.t(4), 2.0, false)],
            },
            RequestKind::Register => RequestPath {
                ejb_calls: vec![(self.e(3), 2)],
                table_accesses: vec![(self.t(2), 4.0, true)],
            },
            RequestKind::Login => RequestPath {
                ejb_calls: vec![(self.e(3), 1)],
                table_accesses: vec![(self.t(2), 2.0, false)],
            },
            RequestKind::AboutMe => RequestPath {
                ejb_calls: vec![(self.e(7), 4), (self.e(3), 1), (self.e(2), 1)],
                table_accesses: vec![
                    (self.t(1), 40.0, false),
                    (self.t(5), 40.0, false),
                    (self.t(3), 40.0, false),
                    (self.t(2), 30.0, false),
                ],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_kind_has_a_nonempty_path() {
        let graph = EjbGraph::new(8, 6);
        for kind in RequestKind::ALL {
            let path = graph.path(kind);
            assert!(
                !path.ejb_calls.is_empty(),
                "{kind} must invoke at least one EJB"
            );
            assert!(
                !path.table_accesses.is_empty(),
                "{kind} must touch at least one table"
            );
            for (e, calls) in &path.ejb_calls {
                assert!(*e < 8);
                assert!(*calls > 0);
            }
            for (t, rows, _) in &path.table_accesses {
                assert!(*t < 6);
                assert!(*rows > 0.0);
            }
        }
    }

    #[test]
    fn write_requests_write_to_some_table() {
        let graph = EjbGraph::new(8, 6);
        for kind in RequestKind::ALL {
            let writes_somewhere = graph.path(kind).table_accesses.iter().any(|(_, _, w)| *w);
            assert_eq!(writes_somewhere, kind.is_write(), "{kind}");
        }
    }

    #[test]
    fn small_topologies_wrap_component_indexes() {
        let graph = EjbGraph::new(3, 2);
        for kind in RequestKind::ALL {
            for (e, _) in graph.path(kind).ejb_calls {
                assert!(e < 3);
            }
            for (t, _, _) in graph.path(kind).table_accesses {
                assert!(t < 2);
            }
        }
    }

    #[test]
    fn bid_requests_exercise_the_bid_manager_not_the_report_builder() {
        let graph = EjbGraph::new(8, 6);
        let path = graph.path(RequestKind::Bid);
        let touches_ejb = |ejb| path.ejb_calls.iter().any(|(e, _)| *e == ejb);
        let touches_table = |table| path.table_accesses.iter().any(|(t, _, _)| *t == table);
        assert!(touches_ejb(4));
        assert!(!touches_ejb(7));
        assert!(touches_table(1));
        assert!(!touches_table(5));
    }

    #[test]
    fn roles_are_stable_and_paths_deterministic() {
        let graph = EjbGraph::new(8, 6);
        assert_eq!(
            graph.path(RequestKind::Search),
            graph.path(RequestKind::Search)
        );
    }

    #[test]
    #[should_panic(expected = "at least one EJB")]
    fn zero_ejb_graph_is_rejected() {
        EjbGraph::new(0, 3);
    }
}
