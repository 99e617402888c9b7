//! The deterministic benchmark suite behind `repro -- bench`.
//!
//! Four sections, all in virtual time (so two runs with the same seed
//! produce byte-identical output):
//!
//! * **fault_free_rtt** — T1's mid-band point: mean round trip through
//!   the replicated path vs the unreplicated IIOP baseline.
//! * **small_message_throughput** — a streaming-client workload run
//!   twice, with token-visit batching on (default budget) and off,
//!   drained to the *same* delivered-reply count; reports frames, wire
//!   bytes, medium busy time, and the batching counters, and checks
//!   that the batched run ends with byte-identical replica state and
//!   at least 25 % fewer Ethernet frames.
//! * **tracing_overhead** — the throughput workload re-run with causal
//!   tracing on: wire bytes traced vs untraced, checked against the
//!   budget documented in `docs/TRACING.md`
//!   ([`TRACING_WIRE_BUDGET_PCT_X100`]).
//! * **health_overhead** — the throughput workload re-run with the
//!   totally-ordered health monitor publishing every 1 ms (see
//!   `docs/HEALTH.md`): wire bytes monitored vs unmonitored, with the
//!   application outcome (reply count, converged state digest) required
//!   to be identical and the auditor required to stay silent.
//! * **recovery** — Figure 6 recovery time at three state sizes.
//! * **recovery_chunked** — the same three state sizes recovered under
//!   ongoing traffic (docs/RECOVERY.md): the measured group-blocking
//!   window, last chunk → operational, beside the mark → operational
//!   interval of the same episode — what a §5.1 replica that held
//!   traffic from the `get_state` mark would have blocked for. The
//!   window must be at least 5x shorter at the largest size.
//! * **attribution_overhead** — the `repro -- attribution` workload's
//!   per-phase p99 latencies gated against the absolute budgets of
//!   [`ATTRIBUTION_P99_BUDGET_NS`], plus the zero-cost-when-off proof:
//!   the untraced throughput workload re-run after all the traced
//!   sections must reproduce the untraced run field for field (frames,
//!   wire bytes, state digest — attribution instrumentation is inert
//!   without a `TraceTag` on the wire).
//!
//! The suite renders `BENCH_eternal.json` (schema documented in
//! `docs/BENCHMARKS.md`) with a fixed key order and integer-only
//! values, and collects invariant violations so the caller can exit
//! nonzero.

use crate::attribution::attribution_run;
use crate::{fig6_point, overhead_point};
use eternal::app::{BlobServant, CounterServant, StreamingClient};
use eternal::cluster::{Cluster, ClusterConfig};
use eternal::gid::GroupId;
use eternal::hash::{fnv1a, FNV_OFFSET};
use eternal::properties::FaultToleranceProperties;
use eternal_obs::attribution::Phase;
use eternal_obs::export::{JsonWriter, Layout};
use eternal_obs::RecoveryPhase;
use eternal_sim::Duration;

/// Seed every section runs under.
pub const SUITE_SEED: u64 = 42;

/// Ceiling on the wire-byte overhead of causal tracing, in hundredths
/// of a percent (the documented budget of `docs/TRACING.md`): the
/// traced throughput workload may send at most this much more than the
/// untraced one. Tracing costs ~72 bytes per traced message
/// (`TraceTag::WIRE_LEN` in Totem frame metadata plus a 48-byte GIOP
/// service-context entry), so this small-message workload (~130-byte
/// IIOP messages) is the worst case — measured ~52%, budgeted 60% so a
/// regression (double-injected contexts, tagged infrastructure frames)
/// trips the suite. Larger payloads amortize far better.
pub const TRACING_WIRE_BUDGET_PCT_X100: u64 = 6_000;

/// Absolute per-phase p99 ceilings (nanoseconds) for the attribution
/// workload, indexed like [`Phase::ALL`]. The measured p99s on the
/// default ring are ~786µs for token wait and wire+retransmit (one
/// token rotation), exactly 50µs for dispatch (the configured servant
/// execution window), and 0 for the purely local phases (marshal,
/// reassembly completion, reply match are instantaneous in the
/// simulation's cost model) — each budget leaves roughly 2x headroom so
/// a pipeline regression (extra rotation on the critical path, double
/// execution, hold leakage into dispatch) trips the suite, while
/// scheduling jitter does not.
pub const ATTRIBUTION_P99_BUDGET_NS: [u64; 7] = [
    10_000,    // client_marshal
    1_600_000, // token_wait
    1_600_000, // wire_retransmit
    100_000,   // reassembly
    1_000_000, // hold_residency (p99; holds are rare and bounded)
    100_000,   // dispatch
    10_000,    // reply_return
];

/// The finished suite: the JSON document and any violated invariants.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// `BENCH_eternal.json` contents (trailing newline included).
    pub json: String,
    /// Human-readable invariant violations (empty on a clean run).
    pub violations: Vec<String>,
}

/// One drained streaming-client run at a fixed batching budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ThroughputRun {
    replies: u64,
    frames: u64,
    wire_bytes: u64,
    busy_ns: u64,
    batches: u64,
    batched_messages: u64,
    frames_saved: u64,
    /// Health epochs agreed through the total order (0 with health off).
    health_epochs: u64,
    /// Diagnoses the auditor fired (must stay 0 on this healthy load).
    health_diagnoses: u64,
    /// FNV-1a over the converged server-replica state bytes.
    state_digest: u64,
}

/// Streams `limit` two-way invocations at a 2-way active counter server
/// and drains the traffic completely, so two runs that differ only in
/// the batching budget are comparable at identical delivered-reply
/// counts.
fn throughput_run(
    budget: usize,
    limit: u64,
    seed: u64,
    causal: bool,
    health_period: Duration,
) -> ThroughputRun {
    let mut config = ClusterConfig {
        trace: false,
        causal,
        health_period,
        ..ClusterConfig::default()
    };
    config.totem.batch_budget_bytes = budget;
    let mut cluster = Cluster::new(config, seed);
    let server = cluster.deploy_server("counter", FaultToleranceProperties::active(2), || {
        Box::new(CounterServant::default())
    });
    cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "increment", 16).with_limit(limit))
    });
    cluster.run_until_deployed();
    let deadline = cluster.now() + Duration::from_secs(60);
    loop {
        // Fine slices: the loop exits soon after the last reply drains,
        // so idle token rotations don't blur cross-run wire-byte
        // comparisons (batched vs unbatched, traced vs untraced).
        cluster.run_for(Duration::from_millis(1));
        let m = cluster.metrics();
        if m.replies_delivered >= limit && cluster.outstanding_calls() == 0 {
            break;
        }
        assert!(
            cluster.now() < deadline,
            "throughput workload failed to drain (replies={} of {limit})",
            m.replies_delivered
        );
    }
    let state_digest = converged_state_digest(&mut cluster, server);
    let m = cluster.metrics();
    let reg = cluster.metrics_registry();
    ThroughputRun {
        replies: m.replies_delivered,
        frames: cluster.net().frames_sent(),
        wire_bytes: cluster.net().bytes_sent(),
        busy_ns: cluster.net().busy_time().as_nanos(),
        batches: reg.counter("totem.batches"),
        batched_messages: reg.counter("totem.batched_messages"),
        frames_saved: reg.counter("totem.frames_saved"),
        health_epochs: cluster.health_auditor().epochs().len() as u64,
        health_diagnoses: cluster.health_auditor().diagnoses().len() as u64,
        state_digest,
    }
}

/// FNV-1a over the server group's application state at quiescence,
/// which must be byte-identical on every hosting replica.
fn converged_state_digest(cluster: &mut Cluster, server: GroupId) -> u64 {
    let mut states = Vec::new();
    for node in cluster.hosting(server) {
        let state = cluster.probe_application_state(node, server);
        states.push(state.expect("replica operational at quiescence"));
    }
    for state in &states[1..] {
        assert_eq!(&states[0], state, "replica state diverged within one run");
    }
    fnv1a(FNV_OFFSET, &states[0])
}

/// One drained recovery-under-load run.
#[derive(Debug, Clone, Copy)]
struct ChunkedRecoveryRun {
    /// Group-blocking window of the single completed episode: from the
    /// last chunk's delivery, where the recovering replica starts
    /// holding traffic, to reinstatement.
    blocking_ns: u64,
    /// From the `get_state` mark to reinstatement in the same episode:
    /// the window of a replica that held traffic from the mark (§5.1
    /// read literally) instead of dropping it until the last chunk.
    mark_to_operational_ns: u64,
    /// Recovery time (launch → reinstatement) of the episode.
    recovery_ns: u64,
    /// Replies the bounded driver collected.
    replies: u64,
    /// FNV-1a over the converged replica states (must match across the
    /// two replicas within the run).
    state_digest: u64,
    /// State chunks streamed, summed over processors.
    chunks_streamed: u64,
}

/// Streams a bounded two-way load at a 2-way active blob server, kills
/// one replica early so the §5.1 recovery runs *under* the remaining
/// traffic, and drains everything: replies, converged state, and the
/// episode's blocking window are then comparable across state sizes.
fn chunked_recovery_run(state_bytes: usize, limit: u64, seed: u64) -> ChunkedRecoveryRun {
    let config = ClusterConfig {
        trace: false,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config, seed);
    let server = cluster.deploy_server("blob", FaultToleranceProperties::active(2), move || {
        Box::new(BlobServant::with_size(state_bytes))
    });
    cluster.deploy_client("driver", FaultToleranceProperties::active(1), move |_| {
        Box::new(StreamingClient::new(server, "touch", 4).with_limit(limit))
    });
    cluster.run_until_deployed();
    // Kill early: most of the bounded stream is still ahead, so the
    // transfer and the traffic genuinely overlap.
    cluster.run_for(Duration::from_millis(10));
    let victim = cluster.hosting(server)[0];
    cluster.kill_replica(server, victim);
    let deadline = cluster.now() + Duration::from_secs(60);
    loop {
        cluster.run_for(Duration::from_millis(1));
        let m = cluster.metrics();
        if m.replies_delivered >= limit
            && cluster.outstanding_calls() == 0
            && !cluster.recovery_in_flight()
        {
            break;
        }
        assert!(
            cluster.now() < deadline,
            "recovery-under-load run failed to drain (replies={} of {limit})",
            m.replies_delivered
        );
    }
    let m = cluster.metrics();
    assert_eq!(m.recoveries_completed, 1, "exactly one episode expected");
    let state_digest = converged_state_digest(&mut cluster, server);
    let chunks_streamed = cluster
        .processors()
        .into_iter()
        .map(|n| cluster.mechanisms(n).counters().chunks_streamed)
        .sum();
    let episode = &cluster.recovery_timelines()[0];
    let mark = episode
        .phase(RecoveryPhase::GetState)
        .expect("five phases")
        .begin;
    ChunkedRecoveryRun {
        blocking_ns: m.recoveries[0].blocking_window.as_nanos(),
        mark_to_operational_ns: episode.operational_at.saturating_since(mark).as_nanos(),
        recovery_ns: m.recoveries[0].recovery_time().as_nanos(),
        replies: m.replies_delivered,
        state_digest,
        chunks_streamed,
    }
}

fn reduction_pct_x100(unbatched: u64, batched: u64) -> u64 {
    if unbatched == 0 {
        return 0;
    }
    unbatched.saturating_sub(batched) * 10_000 / unbatched
}

/// How much larger `with` is than `without`, in hundredths of a percent.
fn overhead_pct_x100(with: u64, without: u64) -> u64 {
    with.saturating_sub(without).saturating_mul(10_000) / without.max(1)
}

fn throughput_json(w: &mut JsonWriter, label: &str, r: &ThroughputRun) {
    w.key(label)
        .object(Layout::Spaced)
        .field("frames", r.frames)
        .field("wire_bytes", r.wire_bytes)
        .field("busy_ns", r.busy_ns)
        .field("batches", r.batches)
        .field("batched_messages", r.batched_messages)
        .field("frames_saved", r.frames_saved)
        .field_str("state_digest", r.state_digest)
        .end();
}

/// Runs the whole suite. `quick` shrinks the workloads for CI smoke
/// runs (the output stays deterministic for a given `quick` value).
pub fn run_suite(quick: bool) -> BenchReport {
    let mut violations: Vec<String> = Vec::new();
    let seed = SUITE_SEED;

    // --- fault-free round trip (T1 mid-band point) ---
    let rtt = overhead_point(Duration::from_micros(500), seed);
    let rtt_overhead = overhead_pct_x100(
        rtt.replicated_rtt.as_nanos(),
        rtt.unreplicated_rtt.as_nanos(),
    );

    // --- small-message throughput: batching on vs off ---
    let limit: u64 = if quick { 150 } else { 400 };
    let default_budget = eternal_totem::TotemConfig::default().batch_budget_bytes;
    let batched = throughput_run(default_budget, limit, seed, false, Duration::ZERO);
    let unbatched = throughput_run(0, limit, seed, false, Duration::ZERO);
    if batched.replies != unbatched.replies {
        violations.push(format!(
            "throughput: delivered-reply counts differ (batched {} vs unbatched {})",
            batched.replies, unbatched.replies
        ));
    }
    if batched.state_digest != unbatched.state_digest {
        violations.push(format!(
            "throughput: final replica state differs (batched {:x} vs unbatched {:x})",
            batched.state_digest, unbatched.state_digest
        ));
    }
    let frame_reduction = reduction_pct_x100(unbatched.frames, batched.frames);
    if frame_reduction < 2_500 {
        violations.push(format!(
            "throughput: frame reduction {}.{:02}% < 25% (batched {} vs unbatched {})",
            frame_reduction / 100,
            frame_reduction % 100,
            batched.frames,
            unbatched.frames
        ));
    }
    let byte_reduction = reduction_pct_x100(unbatched.wire_bytes, batched.wire_bytes);

    // --- causal-tracing wire overhead (docs/TRACING.md budget) ---
    let traced = throughput_run(default_budget, limit, seed, true, Duration::ZERO);
    if traced.replies != batched.replies {
        violations.push(format!(
            "tracing: delivered-reply counts differ (traced {} vs untraced {})",
            traced.replies, batched.replies
        ));
    }
    if traced.state_digest != batched.state_digest {
        violations.push(format!(
            "tracing: final replica state differs (traced {:x} vs untraced {:x})",
            traced.state_digest, batched.state_digest
        ));
    }
    let tracing_overhead = overhead_pct_x100(traced.wire_bytes, batched.wire_bytes);
    if tracing_overhead > TRACING_WIRE_BUDGET_PCT_X100 {
        violations.push(format!(
            "tracing: wire-byte overhead {}.{:02}% exceeds the {}.{:02}% budget \
             (traced {} vs untraced {})",
            tracing_overhead / 100,
            tracing_overhead % 100,
            TRACING_WIRE_BUDGET_PCT_X100 / 100,
            TRACING_WIRE_BUDGET_PCT_X100 % 100,
            traced.wire_bytes,
            batched.wire_bytes
        ));
    }

    // --- health-monitoring overhead (docs/HEALTH.md) ---
    // Same workload with every node publishing a HealthSnapshot through
    // the total order each millisecond. The monitor must be inert: same
    // replies, same converged state, zero diagnoses on a healthy run.
    let monitored = throughput_run(default_budget, limit, seed, false, Duration::from_millis(1));
    if monitored.replies != batched.replies {
        violations.push(format!(
            "health: delivered-reply counts differ (monitored {} vs unmonitored {})",
            monitored.replies, batched.replies
        ));
    }
    if monitored.state_digest != batched.state_digest {
        violations.push(format!(
            "health: final replica state differs (monitored {:x} vs unmonitored {:x})",
            monitored.state_digest, batched.state_digest
        ));
    }
    if monitored.health_epochs == 0 {
        violations.push("health: no health epochs were agreed".to_string());
    }
    if monitored.health_diagnoses != 0 {
        violations.push(format!(
            "health: {} diagnosis(es) fired on a fault-free workload",
            monitored.health_diagnoses
        ));
    }
    let health_overhead = overhead_pct_x100(monitored.wire_bytes, batched.wire_bytes);

    // --- recovery time at three state sizes (Figure 6) ---
    let sizes: [usize; 3] = if quick {
        [1_000, 20_000, 60_000]
    } else {
        [1_000, 100_000, 350_000]
    };
    let recovery: Vec<_> = sizes.iter().map(|&s| fig6_point(s, seed)).collect();
    for w in recovery.windows(2) {
        if w[1].recovery <= w[0].recovery {
            violations.push(format!(
                "recovery: time not monotone in state size ({} at {}B vs {} at {}B)",
                w[0].recovery, w[0].state_bytes, w[1].recovery, w[1].state_bytes
            ));
        }
    }

    // --- blocking window of a recovery under load ---
    // Same three state sizes, recovered under a bounded ongoing load.
    // The recovering replica holds traffic only from the last chunk's
    // delivery; holding from the mark, as §5.1 reads literally, would
    // block for the whole stream. At the largest size the measured
    // window must be at least 5x shorter than that.
    let chunk_limit: u64 = 400;
    let chunked_recovery: Vec<(usize, ChunkedRecoveryRun)> = sizes
        .iter()
        .map(|&s| (s, chunked_recovery_run(s, chunk_limit, seed)))
        .collect();
    let (largest, big) = chunked_recovery[chunked_recovery.len() - 1];
    if big.blocking_ns.saturating_mul(5) > big.mark_to_operational_ns {
        violations.push(format!(
            "recovery_chunked: blocking window not 5x under the mark-to-operational \
             interval at {largest}B ({}ns vs {}ns)",
            big.blocking_ns, big.mark_to_operational_ns
        ));
    }
    if big.chunks_streamed < 2 {
        violations.push(format!(
            "recovery_chunked: expected a multi-chunk stream at {largest}B, \
             saw {} chunk(s)",
            big.chunks_streamed
        ));
    }

    // --- attribution: per-phase p99 budgets + zero cost when off ---
    // This rerun executes *after* every traced section of this
    // suite; with tracing off it must reproduce the first untraced run
    // field for field (frames, wire bytes, busy time, state digest).
    // Any drift means the attribution instrumentation leaks into
    // untraced execution.
    let untraced_rerun = throughput_run(default_budget, limit, seed, false, Duration::ZERO);
    let untraced_identical = untraced_rerun == batched;
    if !untraced_identical {
        violations.push(format!(
            "attribution: untraced rerun diverged from the untraced baseline \
             ({untraced_rerun:?} vs {batched:?}) — tracing must cost zero when off"
        ));
    }
    let attrib = attribution_run(seed);
    if !attrib.passed {
        violations.push(format!("attribution: workload failed ({})", attrib.summary));
    }
    let phase_p99: Vec<(&'static str, u64, u64)> = Phase::ALL
        .into_iter()
        .map(|p| {
            let measured = attrib.attribution.phase_histograms[p.index()]
                .percentile(99.0)
                .as_nanos();
            (p.name(), measured, ATTRIBUTION_P99_BUDGET_NS[p.index()])
        })
        .collect();
    for (name, measured, budget) in &phase_p99 {
        if measured > budget {
            violations.push(format!(
                "attribution: {name} p99 {measured}ns exceeds the {budget}ns budget"
            ));
        }
    }

    // --- render (fixed key order, integers and strings only) ---
    let mut w = JsonWriter::default();
    w.object(Layout::Block)
        .field("schema", 7)
        .field("seed", seed)
        .field("quick", u8::from(quick))
        .key("fault_free_rtt")
        .object(Layout::Spaced)
        .field("exec_time_ns", rtt.exec_time.as_nanos())
        .field("replicated_ns", rtt.replicated_rtt.as_nanos())
        .field("unreplicated_ns", rtt.unreplicated_rtt.as_nanos())
        .field("overhead_pct_x100", rtt_overhead)
        .end()
        .key("small_message_throughput")
        .object(Layout::Block)
        .field("replies", batched.replies);
    throughput_json(&mut w, "batched", &batched);
    throughput_json(&mut w, "unbatched", &unbatched);
    w.field("frame_reduction_pct_x100", frame_reduction)
        .field("wire_byte_reduction_pct_x100", byte_reduction)
        .end()
        .key("tracing_overhead")
        .object(Layout::Spaced)
        .field("traced_wire_bytes", traced.wire_bytes)
        .field("untraced_wire_bytes", batched.wire_bytes)
        .field("overhead_pct_x100", tracing_overhead)
        .field("budget_pct_x100", TRACING_WIRE_BUDGET_PCT_X100)
        .end()
        .key("health_overhead")
        .object(Layout::Spaced)
        .field("monitored_wire_bytes", monitored.wire_bytes)
        .field("unmonitored_wire_bytes", batched.wire_bytes)
        .field("overhead_pct_x100", health_overhead)
        .field("epochs", monitored.health_epochs)
        .field("diagnoses", monitored.health_diagnoses)
        .end()
        .key("recovery")
        .array(Layout::Block);
    for p in &recovery {
        w.object(Layout::Spaced)
            .field("state_bytes", p.state_bytes)
            .field("transferred_bytes", p.transferred_bytes)
            .field("recovery_ns", p.recovery.as_nanos())
            .field("frames", p.frames)
            .end();
    }
    w.end().key("recovery_chunked").array(Layout::Block);
    for (s, run) in &chunked_recovery {
        w.object(Layout::Spaced)
            .field("state_bytes", s)
            .field("mark_to_operational_ns", run.mark_to_operational_ns)
            .field("chunked_blocking_ns", run.blocking_ns)
            .field("chunked_recovery_ns", run.recovery_ns)
            .field("chunks_streamed", run.chunks_streamed)
            .field("replies", run.replies)
            .field_str("state_digest", run.state_digest)
            .end();
    }
    w.end()
        .key("attribution_overhead")
        .object(Layout::Block)
        .field("untraced_rerun_identical", u8::from(untraced_identical))
        .field("requests", attrib.attribution.requests.len())
        .field("incomplete_chains", attrib.attribution.incomplete_chains)
        .field("dropped_events", attrib.attribution.dropped_events)
        .field("tiling_violations", attrib.attribution.violations.len())
        .key("phase_p99_ns")
        .object(Layout::Block);
    for (name, measured, budget) in &phase_p99 {
        w.key(name)
            .object(Layout::Spaced)
            .field("p99_ns", measured)
            .field("budget_ns", budget)
            .end();
    }
    w.end().end().key("violations").array(Layout::Spaced);
    for v in &violations {
        w.string(v);
    }
    w.end().end();

    BenchReport {
        json: w.finish(),
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_is_deterministic_and_clean() {
        let a = run_suite(true);
        let b = run_suite(true);
        assert_eq!(a.json, b.json, "same inputs must render byte-identically");
        assert!(a.violations.is_empty(), "violations: {:?}", a.violations);
        assert!(a.json.ends_with("\"violations\": []\n}\n"));
    }

    #[test]
    fn batching_bends_the_frame_curve() {
        let batched = throughput_run(1408, 150, 9, false, Duration::ZERO);
        let unbatched = throughput_run(0, 150, 9, false, Duration::ZERO);
        assert_eq!(batched.replies, unbatched.replies);
        assert_eq!(batched.state_digest, unbatched.state_digest);
        assert!(
            batched.frames * 4 <= unbatched.frames * 3,
            "expected >= 25% fewer frames: {} vs {}",
            batched.frames,
            unbatched.frames
        );
        assert!(batched.wire_bytes < unbatched.wire_bytes);
        assert!(batched.busy_ns < unbatched.busy_ns);
        assert!(batched.frames_saved > 0);
        assert_eq!(unbatched.batches, 0);
    }
}
