//! Output checks. A simulation that fails any of them counts as failed.
//!
//! The counter identities hold for every cell of every workload at the
//! commit that introduced the benchmark; a change that breaks one either
//! miscounts or mis-simulates.

use netcrafter_multigpu::{JobSpec, RunResult};

/// Counter identities every harvested run must satisfy. Returns one
/// message per violated identity.
pub fn counter_identities(job: &JobSpec, r: &RunResult) -> Vec<String> {
    let m = &r.metrics;
    let c = |k: &str| m.counter(k);
    let mut bad = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };

    expect(
        c("total.l1.hits") + c("total.l1.misses") == c("total.l1.reads"),
        format!(
            "l1 hits {} + misses {} != reads {}",
            c("total.l1.hits"),
            c("total.l1.misses"),
            c("total.l1.reads")
        ),
    );
    for (kind, total) in [("read", "reads"), ("write", "writes")] {
        let hits = c(&format!("total.l2.{kind}_hits"));
        let misses = c(&format!("total.l2.{kind}_misses"));
        let all = c(&format!("total.l2.{total}"));
        expect(
            hits + misses == all,
            format!("l2 {kind} hits {hits} + misses {misses} != {total} {all}"),
        );
    }
    let kinds: Vec<(String, u64)> = m
        .counters_with_prefix("total.rdma.in.")
        .map(|(k, v)| (k["total.rdma.in.".len()..].to_owned(), v))
        .collect();
    expect(!kinds.is_empty(), "no rdma.in.<kind> counters".to_owned());
    for (kind, inbound) in kinds {
        let outbound = c(&format!("total.rdma.out.{kind}"));
        expect(
            inbound == outbound,
            format!("rdma.in.{kind} {inbound} != rdma.out.{kind} {outbound}"),
        );
    }
    let by_depth: u64 = (1..=4)
        .map(|n| c(&format!("total.gmmu.walks_{n}reads")))
        .sum();
    expect(
        by_depth == c("total.gmmu.walks"),
        format!(
            "gmmu walks by depth {by_depth} != walks {}",
            c("total.gmmu.walks")
        ),
    );
    // The ClusterQueue replaces the FIFO inter-cluster egress queue
    // whenever any NetCrafter knob is on; its ledger must balance.
    let has_cq = job.variant.apply(job.base_cfg).netcrafter.any_enabled();
    let cq_reported = m.counters_with_prefix("net.inter.cq.").next().is_some();
    expect(
        has_cq == cq_reported,
        format!("ClusterQueue configured: {has_cq}, counters reported: {cq_reported}"),
    );
    if has_cq {
        let (pushed, absorbed) = (c("net.inter.cq.pushed"), c("net.inter.cq.absorbed"));
        let (popped, flits) = (c("net.inter.cq.popped"), c("net.inter.flits"));
        expect(
            pushed.checked_sub(absorbed) == Some(popped) && popped == flits,
            format!(
                "cq pushed {pushed} - absorbed {absorbed}, popped {popped}, inter flits {flits} differ"
            ),
        );
    }
    expect(
        c("total.trim.trimmed") <= c("total.trim.considered"),
        format!(
            "trim trimmed {} > considered {}",
            c("total.trim.trimmed"),
            c("total.trim.considered")
        ),
    );
    bad
}
