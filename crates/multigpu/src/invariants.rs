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
//! * `cu.mem_ops == l1.reads + l1.writes` — each memory op is one L1
//!   lookup, however often it was retried;
//! * `dram.bytes == 64 × (dram.reads + dram.writes)` — DRAM moves whole
//!   lines;
//! * `trim.trimmed <= trim.considered`;
//! * `l2.read_hits + l2.read_misses == l2.reads` and
//!   `l2.write_hits + l2.write_misses == l2.writes`;
//! * `total.rdma.in.<kind> == total.rdma.out.<kind>` — every packet sent
//!   was received;
//! * for every Cluster Queue scope, `cq.pushed == cq.popped + cq.absorbed`
//!   — every flit accepted either left on the link or was stitched into
//!   one that did;
//! * for every port scope with a `.flits` counter (per port, per switch's
//!   inter-cluster ports, and `net`), `data_flits + ptw_flits == flits`,
//!   `padding0 + padding25 + padding50 + padding75 == flits`, and the
//!   `kind.*` counts sum to `chunks` — every flit has one class and one
//!   padding bucket, and every chunk one packet kind.
//!
//! [`System::harvest`]: crate::System::harvest

use netcrafter_proto::{Metrics, LINE_BYTES};

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
    for scope in scopes_with(m, ".cu.mem_ops") {
        equal(
            format!("{scope}.l1.reads + {scope}.l1.writes vs {scope}.cu.mem_ops"),
            c(format!("{scope}.l1.reads")) + c(format!("{scope}.l1.writes")),
            c(format!("{scope}.cu.mem_ops")),
        );
    }
    for scope in scopes_with(m, ".dram.bytes") {
        equal(
            format!(
                "{LINE_BYTES} x ({scope}.dram.reads + {scope}.dram.writes) vs {scope}.dram.bytes"
            ),
            LINE_BYTES * (c(format!("{scope}.dram.reads")) + c(format!("{scope}.dram.writes"))),
            c(format!("{scope}.dram.bytes")),
        );
    }
    for scope in scopes_with(m, ".trim.considered") {
        // `trimmed <= considered`, as the excess of trimmed over considered.
        equal(
            format!("trims beyond candidates, {scope}.trim.trimmed - {scope}.trim.considered"),
            c(format!("{scope}.trim.trimmed"))
                .saturating_sub(c(format!("{scope}.trim.considered"))),
            0,
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

    for scope in scopes_with(m, ".flits") {
        let flits = c(format!("{scope}.flits"));
        equal(
            format!("{scope}.data_flits + {scope}.ptw_flits vs {scope}.flits"),
            c(format!("{scope}.data_flits")) + c(format!("{scope}.ptw_flits")),
            flits,
        );
        equal(
            format!("{scope}.padding0 + .. + {scope}.padding75 vs {scope}.flits"),
            [0, 25, 50, 75]
                .iter()
                .map(|p| c(format!("{scope}.padding{p}")))
                .sum(),
            flits,
        );
        equal(
            format!("sum of {scope}.kind.* vs {scope}.chunks"),
            m.counters_with_prefix(&format!("{scope}.kind."))
                .map(|(_, n)| n)
                .sum(),
            c(format!("{scope}.chunks")),
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
            "gpu2.cu.mem_ops",
            "total.l1.writes",
            "gpu3.dram.bytes",
            "total.dram.reads",
            "gpu0.dram.writes",
            "gpu1.trim.trimmed",
            "net.inter.flits",
            "switch1.inter.data_flits",
            "net.portnode0.ptw_flits",
            "switch0.portnode1.padding25",
            "net.inter.padding75",
            "switch1.portnode2.kind.Write_Req",
            "net.portnode3.chunks",
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
