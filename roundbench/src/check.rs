//! Output checks: every round is compared with a reference accept set
//! computed, untimed, by the naive engine over the same candidates.

use crate::wire::Task;
use prism_core::candidates::enumerate_candidates;
use prism_core::filters::build_filters;
use prism_core::related::find_related;
use prism_core::{
    DiscoveryConfig, DiscoveryResult, Engine, Error, SchedCtx, Scheduler, TargetConstraints,
};
use prism_db::{canonical_key, Database};
use std::collections::BTreeSet;

/// Canonical keys of every query that satisfies `task`.
pub type Reference = BTreeSet<String>;

pub fn reference(
    db: &Database,
    config: &DiscoveryConfig,
    task: &Task,
) -> Result<Reference, String> {
    let tc = TargetConstraints::parse(task.columns, &task.samples, &task.metadata)
        .map_err(|e| format!("task constraints: {e}"))?;
    let related = find_related(db, &tc, config);
    let cands = enumerate_candidates(db, &related, config, None);
    if cands.truncated {
        return Err("reference enumeration truncated".into());
    }
    if cands.candidates.is_empty() {
        return Ok(Reference::new());
    }
    let fs = build_filters(db, &cands.candidates, &tc, None);
    let outcome = Scheduler::run(&SchedCtx::new(db, &tc, &fs), Engine::Naive);
    Ok(outcome
        .accepted
        .iter()
        .map(|&c| canonical_key(&cands.candidates[c as usize].query, db))
        .collect())
}

/// Why a round failed, or `Ok` if it passed: it must not error, time out
/// or degrade, its keys must lie in the reference, and it must return
/// `min(|reference|, result_limit)` keys at least.
pub fn check_round(
    round: Result<&DiscoveryResult, &Error>,
    reference: &Reference,
    result_limit: usize,
) -> Result<(), String> {
    let result = round.map_err(|e| format!("round error: {e}"))?;
    if result.timed_out {
        return Err("round timed out".into());
    }
    if result.degraded {
        return Err("round degraded".into());
    }
    if let Some(q) = result.queries.iter().find(|q| !reference.contains(&q.key)) {
        return Err(format!("returned a query outside the reference: {}", q.sql));
    }
    let want = reference.len().min(result_limit);
    if result.queries.len() < want {
        return Err(format!(
            "returned {} queries, reference has {want}",
            result.queries.len()
        ));
    }
    Ok(())
}

/// Corrupt `reference` two ways around a passing `result`, and confirm
/// that [`check_round`] catches both. Returns whether the check works.
pub fn self_test(result: &DiscoveryResult, reference: &Reference, result_limit: usize) -> bool {
    let Some(first) = result.queries.first() else {
        return false;
    };
    let passes = |r: &Reference| check_round(Ok(result), r, result_limit).is_ok();
    let mut missing = reference.clone();
    missing.remove(&first.key);
    let mut extra = reference.clone();
    extra.insert("(no such query)".to_string());
    let short_result = result.queries.len() < result_limit;
    passes(reference) && !passes(&missing) && (!short_result || !passes(&extra))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_fail_on_timeout_degradation_and_missing_keys() {
        let empty = Reference::new();
        let one: Reference = ["k".to_string()].into_iter().collect();
        let clean = DiscoveryResult::default();
        assert!(check_round(Ok(&clean), &empty, 64).is_ok());
        assert!(check_round(Ok(&clean), &one, 64).is_err(), "too few keys");
        assert!(
            check_round(Ok(&clean), &one, 0).is_ok(),
            "limit caps the need"
        );
        let timed_out = DiscoveryResult {
            timed_out: true,
            ..DiscoveryResult::default()
        };
        assert!(check_round(Ok(&timed_out), &empty, 64).is_err());
        let degraded = DiscoveryResult {
            degraded: true,
            ..DiscoveryResult::default()
        };
        assert!(check_round(Ok(&degraded), &empty, 64).is_err());
        assert!(check_round(Err(&Error::NoSearchRun), &empty, 64).is_err());
    }
}
