//! The benchmark's metric catalogue: every name the program can print,
//! with its unit, its direction and — for end-to-end metrics — the
//! share of the parent's value by which it may worsen before a change
//! counts as a regression. `BENCHMARK.json` at the repository root
//! repeats this table; a unit test keeps the two equal.
//!
//! Two kinds of number, told apart by the unit: **host** time (`ms`,
//! `s`, `ns`, `1/s`, `MB`: what the simulator costs to run on this
//! machine) and **virtual** time and wire counts (`virt_us`, `virt_ms`,
//! `1/virt_s`, `B`, `frames`: what the modelled Eternal system would
//! take — deterministic per seed, and the fingerprint a pure speed-up
//! must leave identical).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics carry 0 and have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Printed by `--trace 0`, for every
/// workload.
pub const END_TO_END: &[MetricDef] = &[
    e2e("req_per_s", "1/s", Higher, 0.15),
    e2e("round_wall_ms", "ms", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_heap_mb", "MB", Lower, 0.10),
    e2e("allocs_per_req", "count", Lower, 0.02),
    e2e("alloc_kb_per_req", "kB", Lower, 0.02),
    e2e("sim_rtt_p50_us", "virt_us", Lower, 0.05),
    e2e("sim_rtt_p95_us", "virt_us", Lower, 0.12),
    e2e("sim_req_per_s", "1/virt_s", Higher, 0.02),
    e2e("sim_outage_ms", "virt_ms", Lower, 0.25),
    e2e("wire_bytes_per_req", "B", Lower, 0.02),
    e2e("frames_per_req", "frames", Lower, 0.02),
];

/// Single layers. Printed by `--trace 1`, for every workload; a metric
/// that does not apply to a workload reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sim.events_per_req", "count", Lower),
    layer("sim.sched_ns_per_op", "ns", Lower),
    layer("sim.net_multicast_ns", "ns", Lower),
    layer("cdr.string_encode_ns_per_kb", "ns/kB", Lower),
    layer("cdr.string_decode_ns_per_kb", "ns/kB", Lower),
    layer("cdr.any_encode_ns_per_kb", "ns/kB", Lower),
    layer("cdr.any_decode_ns_per_kb", "ns/kB", Lower),
    layer("cdr.any_allocs_per_kb", "count", Lower),
    layer("cdr.pool_takes_per_req", "count", Lower),
    layer("cdr.pool_reuse_share", "share", Higher),
    layer("giop.msg_encode_ns", "ns", Lower),
    layer("giop.msg_parse_ns", "ns", Lower),
    layer("giop.msg_allocs", "count", Lower),
    layer("orb.build_request_ns", "ns", Lower),
    layer("orb.handle_request_ns", "ns", Lower),
    layer("orb.handle_reply_ns", "ns", Lower),
    layer("totem.token_visit_ns", "ns", Lower),
    layer("totem.regular_ns", "ns", Lower),
    layer("totem.broadcast_ns", "ns", Lower),
    layer("totem.handle_allocs", "count", Lower),
    layer("totem.msgs_per_batch", "count", Higher),
    layer("totem.frames_saved_per_req", "frames", Higher),
    layer("totem.delivered_per_req", "count", Lower),
    layer("totem.retransmits", "count", Lower),
    layer("totem.token_retransmits", "count", Lower),
    layer("totem.reformations", "count", Lower),
    layer("eternal.msg_encode_ns", "ns", Lower),
    layer("eternal.msg_decode_ns", "ns", Lower),
    layer("eternal.fragment_ns_per_kb", "ns/kB", Lower),
    layer("eternal.reassemble_ns_per_kb", "ns/kB", Lower),
    layer("eternal.on_delivered_ns", "ns", Lower),
    layer("eternal.dup_suppressed_per_req", "count", Lower),
    layer("eternal.logged_per_req", "count", Lower),
    layer("eternal.checkpoints", "count", Lower),
    layer("eternal.chunks_streamed", "count", Lower),
    layer("eternal.promotions", "count", Lower),
    layer("eternal.sim_recovery_ms", "virt_ms", Lower),
    layer("eternal.sim_blocking_ms", "virt_ms", Lower),
    layer("eternal.step_ns_p50", "ns", Lower),
    layer("eternal.step_ns_p99", "ns", Lower),
    layer("eternal.ns_per_event", "ns", Lower),
    layer("obs.trace_on_slowdown", "ratio", Lower),
    layer("harness.round_ms_p50", "ms", Lower),
    layer("harness.round_ms_p90", "ms", Lower),
    layer("harness.noise_ratio", "ratio", Lower),
    layer("harness.rounds", "count", Higher),
    layer("harness.trace_overhead_share", "share", Lower),
    layer("harness.explained_share", "share", Higher),
];

/// A measured value, in catalogue order.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// The catalogue entry.
    pub def: &'static MetricDef,
    /// The value, with all its digits.
    pub value: f64,
}

/// Pairs `values` with `catalogue`, checking that every name is known
/// and none is missing or repeated.
///
/// # Panics
///
/// Panics on a mismatch: that is a bug in this package, and the unit
/// tests exercise both passes to catch it.
pub fn in_catalogue_order(
    catalogue: &'static [MetricDef],
    values: &[(&'static str, f64)],
) -> Vec<Measured> {
    assert_eq!(values.len(), catalogue.len(), "one value per metric");
    catalogue
        .iter()
        .map(|def| {
            let mut hits = values.iter().filter(|(n, _)| *n == def.name);
            let value = hits
                .next()
                .unwrap_or_else(|| panic!("no value for {}", def.name))
                .1;
            assert!(hits.next().is_none(), "two values for {}", def.name);
            Measured { def, value }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    /// The `"name"` values of the array that follows `"key":` in the
    /// manifest, with the value of `field` beside each.
    fn manifest_section(text: &str, key: &str, field: &str) -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let value_of = |object: &str, field: &str| -> String {
            let at = object.find(&format!("\"{field}\"")).expect("field present");
            let rest = object[at + field.len() + 2..].trim_start_matches([':', ' ']);
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().trim_matches('"').to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|object| (value_of(object, "name"), value_of(object, field)))
            .collect()
    }

    const MANIFEST: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn manifest_lists_exactly_the_catalogue() {
        let pairs = |defs: &[MetricDef]| -> Vec<(String, String)> {
            defs.iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect()
        };
        assert_eq!(
            manifest_section(MANIFEST, "end_to_end", "unit"),
            pairs(END_TO_END)
        );
        assert_eq!(
            manifest_section(MANIFEST, "per_layer", "unit"),
            pairs(PER_LAYER)
        );
        let better: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| (m.name.to_owned(), m.better.word().to_owned()))
            .collect();
        let mut listed = manifest_section(MANIFEST, "end_to_end", "better");
        listed.extend(manifest_section(MANIFEST, "per_layer", "better"));
        assert_eq!(listed, better);
        let bounds: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), format!("{}", m.bound)))
            .collect();
        assert_eq!(manifest_section(MANIFEST, "end_to_end", "bound"), bounds);
        let workloads: Vec<String> = manifest_section(MANIFEST, "workloads", "name")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
