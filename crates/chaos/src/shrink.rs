//! Counterexample minimization.
//!
//! Three shrinkers; the first two run the one greedy delta-debugging loop:
//!
//! * [`shrink_history`] — given a failing history and the (pure) checker,
//!   removes transaction records while the violation persists. The result
//!   is the smallest sub-history (under greedy removal) that still violates
//!   SI — usually just the writer(s) and reader of the offending key.
//! * [`shrink_plan`] — given a failing fault-spec list and a re-run oracle,
//!   removes scheduled faults while the scenario still fails. Re-running a
//!   scenario is deterministic per seed, so the oracle is stable.
//! * [`smallest_failing_seed`] — scans a candidate seed list in ascending
//!   order for the first failure.

use crate::checker::Verdict;
use crate::history::TxnRecord;
use crate::plan::FaultSpec;

/// The one greedy delta-debugging loop: drops any single item whose removal
/// keeps `fails` true, sweeping until a full sweep removes nothing (a
/// fixpoint). An input that does not fail is returned unchanged.
fn shrink<T: Clone>(items: &[T], fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut current = items.to_vec();
    if !fails(&current) {
        return current;
    }
    loop {
        let mut removed_any = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if fails(&candidate) {
                current = candidate;
                removed_any = true;
            } else {
                i += 1;
            }
        }
        if !removed_any {
            return current;
        }
    }
}

/// Greedily removes records from a failing history while `check` still
/// reports at least one violation. Returns the minimized history and its
/// [`Verdict`] — which names the violated oracle(s), so the minimized
/// counterexample says *what* broke, not just that something did. If the
/// input does not fail, it is returned unchanged with a passing verdict.
pub fn shrink_history<F>(history: &[TxnRecord], check: F) -> (Vec<TxnRecord>, Verdict)
where
    F: Fn(&[TxnRecord]) -> Verdict,
{
    let minimal = shrink(history, |h| !check(h).is_empty());
    let verdict = check(&minimal);
    (minimal, verdict)
}

/// Greedily removes fault specs while `fails` still returns `true` for the
/// remaining subset. `fails` should re-run the scenario with the candidate
/// spec list (same seed) and report whether the checker still flags it.
pub fn shrink_plan<F>(specs: &[FaultSpec], fails: F) -> Vec<FaultSpec>
where
    F: Fn(&[FaultSpec]) -> bool,
{
    shrink(specs, fails)
}

/// Scans `candidates` in ascending order and returns the first seed for
/// which `fails` is `true`.
pub fn smallest_failing_seed<F>(candidates: &[u64], fails: F) -> Option<u64>
where
    F: Fn(u64) -> bool,
{
    let mut sorted: Vec<u64> = candidates.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.into_iter().find(|&seed| fails(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{check_history, CheckConfig};
    use crate::history::{MutKind, OpWrite};
    use remus_common::fault::{FaultAction, InjectionPoint};
    use remus_common::{NodeId, ShardId, Timestamp, TxnId};

    fn write_rec(n: u64, key: u64, snap: u64, cts: u64) -> TxnRecord {
        TxnRecord {
            xid: TxnId::new(NodeId(0), n),
            client: 0,
            begin_ts: Timestamp(snap),
            commit_ts: Some(Timestamp(cts)),
            reads: vec![],
            writes: vec![OpWrite {
                key,
                snap_ts: Timestamp(snap),
                kind: MutKind::Update,
                value: Some(remus_storage::Value::copy_from_slice(
                    format!("v{n}").as_bytes(),
                )),
            }],
            routes: vec![],
            begin_seq: n * 2,
            commit_seq: n * 2 + 1,
            replica: false,
        }
    }

    #[test]
    fn shrinks_to_the_conflicting_pair() {
        // Records 5 and 6 are a lost-update pair (same key, same snapshot);
        // the other eight are unrelated clean writers.
        let mut history: Vec<TxnRecord> = (0..8u64)
            .map(|n| write_rec(n, n, n * 10 + 1, n * 10 + 2))
            .collect();
        history.push(write_rec(100, 50, 5, 10));
        history.push(write_rec(101, 50, 5, 12));
        let config = CheckConfig {
            source: NodeId(0),
            dest: NodeId(1),
            migrating: vec![ShardId(0)],
            tm_cts: None,
            migration_committed: false,
            strict_timestamp_reads: true,
        };
        let (min, violations) = shrink_history(&history, |h| check_history(h, &config));
        assert_eq!(min.len(), 2, "{min:?}");
        assert!(!violations.is_empty());
        assert!(min.iter().all(|r| r.writes[0].key == 50));
    }

    #[test]
    fn passing_history_is_untouched() {
        let history: Vec<TxnRecord> = (0..4u64)
            .map(|n| write_rec(n, n, n * 10 + 1, n * 10 + 2))
            .collect();
        let config = CheckConfig {
            source: NodeId(0),
            dest: NodeId(1),
            migrating: vec![],
            tm_cts: None,
            migration_committed: false,
            strict_timestamp_reads: true,
        };
        let (min, violations) = shrink_history(&history, |h| check_history(h, &config));
        assert_eq!(min.len(), 4);
        assert!(violations.is_empty());
    }

    #[test]
    fn shrink_plan_keeps_only_the_culprit() {
        let specs: Vec<FaultSpec> = (0..6u32)
            .map(|i| FaultSpec {
                point: InjectionPoint::PropagationShip,
                node: NodeId(0),
                occurrence: i,
                action: if i == 3 {
                    FaultAction::Fail
                } else {
                    FaultAction::Delay(std::time::Duration::from_millis(1))
                },
            })
            .collect();
        // The scenario "fails" iff the Fail spec is present.
        let min = shrink_plan(&specs, |subset| {
            subset.iter().any(|s| s.action == FaultAction::Fail)
        });
        assert_eq!(min.len(), 1);
        assert_eq!(min[0].action, FaultAction::Fail);
    }

    #[test]
    fn smallest_failing_seed_scans_in_order() {
        assert_eq!(smallest_failing_seed(&[9, 3, 7, 5], |s| s >= 5), Some(5));
        assert_eq!(smallest_failing_seed(&[1, 2], |_| false), None);
    }
}
