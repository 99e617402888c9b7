//! Protocol timing and flow-control parameters.

use eternal_sim::Duration;

/// How long a member waits without seeing the token (or any ring
/// traffic) before declaring token loss and starting membership
/// formation.
pub const TOKEN_LOSS_TIMEOUT: Duration = Duration::from_millis(30);

/// How long the last forwarder of the token waits for evidence of
/// progress before retransmitting the token.
pub const TOKEN_RETRANSMIT_TIMEOUT: Duration = Duration::from_millis(5);

// The token must be retransmitted before its loss is declared.
const _: () = assert!(TOKEN_RETRANSMIT_TIMEOUT.as_nanos() < TOKEN_LOSS_TIMEOUT.as_nanos());

/// Tunable parameters of the Totem protocol engine.
#[derive(Debug, Clone)]
pub struct TotemConfig {
    /// Maximum new messages a member may broadcast per token visit
    /// (Totem's flow-control constant).
    pub max_messages_per_token: usize,
    /// Aggregation budget for token-visit batching, in payload bytes.
    ///
    /// While holding the token, a member packs consecutive pending small
    /// messages into one [`crate::types::Payload::Batch`] as long as the
    /// batch's wire size (4-byte count plus 4-byte length prefix per
    /// item) stays within this budget; the batch is flushed when the
    /// budget is exhausted, the flow-control allowance runs out, or the
    /// token is passed on. `0` disables batching (every message gets its
    /// own frame). The default of 1408 keeps even a recovered batch
    /// (32-byte regular header + 24-byte recovery envelope + batch)
    /// within one 1472-byte Ethernet frame payload.
    pub batch_budget_bytes: usize,
}

impl Default for TotemConfig {
    fn default() -> Self {
        TotemConfig {
            max_messages_per_token: 8,
            batch_budget_bytes: 1408,
        }
    }
}

impl TotemConfig {
    /// Sanity-checks the parameters the protocol relies on.
    ///
    /// # Panics
    ///
    /// Panics if the flow-control allowance is zero.
    pub fn validate(&self) {
        assert!(
            self.max_messages_per_token > 0,
            "flow control must allow progress"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        TotemConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "flow control")]
    fn zero_fcc_rejected() {
        let cfg = TotemConfig {
            max_messages_per_token: 0,
            ..TotemConfig::default()
        };
        cfg.validate();
    }
}
