//! End-of-run counter invariants over a harvested [`Metrics`] registry.
//!
//! Every identity here holds for any run that reached quiescence, so a
//! miscounted statistic (say, a lookup counted on every retry poll, or a
//! packet counted on one side of the fabric only) fails a test instead of
//! shipping as a plausible-looking number. [`System::harvest`] runs the
//! check in debug and test builds.
//!
//! The identities, per scope (`gpu<N>` and `total`) where the counters
//! exist:
//!
//! * `l2tlb.hits + l2tlb.misses == gmmu.requests` — each translation
//!   request counts exactly one L2-TLB lookup;
//! * `Σ gmmu.walks_{1..4}reads == gmmu.walks` and
//!   `gmmu.walks <= l2tlb.misses` — every walk was started by a miss;
//! * `l1.hits + l1.misses == l1.reads`;
//! * `l2.read_hits + l2.read_misses == l2.reads` and
//!   `l2.write_hits + l2.write_misses == l2.writes`;
//! * `total.rdma.in.<kind> == total.rdma.out.<kind>` — every packet sent
//!   was received;
//! * for every Cluster Queue scope, `cq.pushed == cq.popped + cq.absorbed`
//!   — every flit accepted either left on the link or was stitched into
//!   one that did.
//!
//! [`System::harvest`]: crate::System::harvest

use netcrafter_proto::Metrics;

/// Checks every end-of-run counter identity of `m`.
///
/// # Errors
///
/// Returns one line per violated identity, naming the keys and values.
pub fn check_counter_invariants(m: &Metrics) -> Result<(), String> {
    let mut violations = Vec::new();
    let mut equal = |what: String, lhs: u64, rhs: u64| {
        if lhs != rhs {
            violations.push(format!("{what}: {lhs} != {rhs}"));
        }
    };
    let c = |key: String| m.counter(&key);

    for scope in scopes_with(m, ".gmmu.requests") {
        equal(
            format!("{scope}.l2tlb.hits + {scope}.l2tlb.misses vs {scope}.gmmu.requests"),
            c(format!("{scope}.l2tlb.hits")) + c(format!("{scope}.l2tlb.misses")),
            c(format!("{scope}.gmmu.requests")),
        );
        let walks = c(format!("{scope}.gmmu.walks"));
        equal(
            format!(
                "{scope}.gmmu.walks_1reads + .. + {scope}.gmmu.walks_4reads vs {scope}.gmmu.walks"
            ),
            (1..5)
                .map(|r| c(format!("{scope}.gmmu.walks_{r}reads")))
                .sum(),
            walks,
        );
        // `walks <= misses`, as the shortfall of misses below walks.
        let misses = c(format!("{scope}.l2tlb.misses"));
        equal(
            format!("walks beyond misses, {scope}.gmmu.walks - {scope}.l2tlb.misses"),
            walks.saturating_sub(misses),
            0,
        );
    }
    for scope in scopes_with(m, ".l1.reads") {
        equal(
            format!("{scope}.l1.hits + {scope}.l1.misses vs {scope}.l1.reads"),
            c(format!("{scope}.l1.hits")) + c(format!("{scope}.l1.misses")),
            c(format!("{scope}.l1.reads")),
        );
    }
    for scope in scopes_with(m, ".l2.reads") {
        for op in ["read", "write"] {
            equal(
                format!("{scope}.l2.{op}_hits + {scope}.l2.{op}_misses vs {scope}.l2.{op}s"),
                c(format!("{scope}.l2.{op}_hits")) + c(format!("{scope}.l2.{op}_misses")),
                c(format!("{scope}.l2.{op}s")),
            );
        }
    }
    for (key, sent) in m.counters_with_prefix("total.rdma.out.") {
        let kind = &key["total.rdma.out.".len()..];
        equal(
            format!("total.rdma.in.{kind} vs total.rdma.out.{kind}"),
            c(format!("total.rdma.in.{kind}")),
            sent,
        );
    }
    for scope in scopes_with(m, ".cq.pushed") {
        equal(
            format!("{scope}.cq.popped + {scope}.cq.absorbed vs {scope}.cq.pushed"),
            c(format!("{scope}.cq.popped")) + c(format!("{scope}.cq.absorbed")),
            c(format!("{scope}.cq.pushed")),
        );
    }

    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("\n"))
    }
}

/// The scopes `s` for which `s{suffix}` is a counter of `m`.
fn scopes_with<'a>(m: &'a Metrics, suffix: &'a str) -> impl Iterator<Item = String> + 'a {
    m.counters()
        .filter_map(move |(key, _)| key.strip_suffix(suffix))
        .map(str::to_owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, SystemVariant};
    use netcrafter_workloads::Workload;

    #[test]
    fn one_inflated_counter_fails_the_check() {
        let m = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter)
            .run()
            .metrics;
        assert_eq!(check_counter_invariants(&m), Ok(()));
        // One mutant per identity side, per-GPU and total scopes alike.
        for key in [
            "gpu0.l2tlb.misses",
            "total.l2tlb.hits",
            "gpu1.gmmu.requests",
            "total.gmmu.walks_1reads",
            "gpu2.gmmu.walks",
            "gpu3.l1.hits",
            "total.l1.reads",
            "gpu0.l2.read_misses",
            "total.l2.write_hits",
            "gpu1.l2.writes",
            "total.rdma.in.Read_Req",
            "total.rdma.out.Page_Table_Rsp",
            "net.inter.cq.absorbed",
            "switch0.inter.cq.pushed",
        ] {
            assert!(m.counters().any(|(k, _)| k == key), "{key} not harvested");
            let mut mutant = m.clone();
            mutant.set(key, m.counter(key) + 1);
            let err = check_counter_invariants(&mutant)
                .expect_err(&format!("inflating {key} went unnoticed"));
            let scope = &key[..key.find('.').expect("dotted key")];
            assert!(err.contains(scope), "{key}: {err}");
        }
    }
}
