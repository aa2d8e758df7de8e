//! The offered-load → service-quality model.
//!
//! One model serves both simulation fidelities: the per-query path samples
//! individual outcomes from the [`ServiceState`] probabilities, and the
//! aggregate path (used for the 17-month longitudinal run) converts the same
//! state into expected per-window statistics. That shared origin is what
//! makes the two fidelities agree in expectation (tested in the workspace
//! integration suite).
//!
//! The server is an M/M/1-flavored queue:
//! - utilization `ρ = offered / capacity`;
//! - while `ρ < 1` every query is answered and the response time scales as
//!   `1 / (1 - ρ)` (capped);
//! - at `ρ ≥ 1` the server answers `capacity / offered` of queries, at the
//!   capped response time; the rest time out (or, for a small share,
//!   surface as SERVFAIL — the paper observed 92% timeout / 8% SERVFAIL in
//!   failed resolutions, §6.3.1).
//!
//! A congested shared /24 uplink contributes additional delay and loss with
//! the same curve; excess delays add, losses compose multiplicatively.

/// Tunable parameters of the load model.
#[derive(Clone, Copy, Debug)]
pub struct LoadModel {
    /// Per-queue delay-inflation cap: a real server has a *finite* buffer,
    /// so queueing delay saturates — answered queries never wait the
    /// unbounded M/M/1 `1/(1-ρ)`; beyond this multiple the excess load is
    /// shed as loss instead. (Without this cap a saturated server would
    /// "answer" at absurd delays and every answer would classify as a
    /// timeout, which is not what the paper's ≈20%-timeout episodes look
    /// like.)
    pub queue_mult_cap: f64,
    /// Final clamp on the combined (server + uplink) RTT multiplier.
    pub max_rtt_mult: f64,
    /// Share of *failed* queries that surface as SERVFAIL rather than
    /// timeout. The resolver surfaces an upstream SERVFAIL immediately
    /// (no retry), which amplifies this per-query share into the ≈8% of
    /// failed *resolutions* the paper reports (§6.3.1).
    pub servfail_share: f64,
}

impl Default for LoadModel {
    fn default() -> LoadModel {
        LoadModel { queue_mult_cap: 30.0, max_rtt_mult: 500.0, servfail_share: 0.025 }
    }
}

/// Instantaneous service quality of one nameserver (as seen from the
/// vantage point) in one 5-minute window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ServiceState {
    /// Probability a single query is answered at all.
    pub answer_prob: f64,
    /// Multiplier on the unloaded RTT for answered queries.
    pub rtt_mult: f64,
    /// Probability a single query fails with SERVFAIL (subset of
    /// `1 - answer_prob`; the remainder of failures are timeouts).
    pub servfail_prob: f64,
}

impl ServiceState {
    pub fn timeout_prob(&self) -> f64 {
        (1.0 - self.answer_prob) - self.servfail_prob
    }
}

impl LoadModel {
    /// Quality of a single queue with `capacity` pps facing `offered` pps.
    /// Returns `(delivered_fraction, rtt_multiplier)`.
    fn queue(&self, capacity: f64, offered: f64) -> (f64, f64) {
        assert!(capacity > 0.0, "capacity must be positive");
        let rho = (offered / capacity).max(0.0);
        if rho < 1.0 {
            let mult = (1.0 / (1.0 - rho)).min(self.queue_mult_cap);
            (1.0, mult)
        } else {
            // Finite buffer: the queue delay tops out; excess load is lost.
            (1.0 / rho, self.queue_mult_cap)
        }
    }

    /// Combine the server queue and its /24 uplink into a [`ServiceState`].
    ///
    /// - `capacity`/`offered`: the server's own queue (legitimate + attack
    ///   traffic reaching this site).
    /// - `uplink_capacity`/`uplink_offered`: the shared /24 link, carrying
    ///   everything destined to the prefix (collateral included).
    pub fn evaluate(
        &self,
        capacity: f64,
        offered: f64,
        uplink_capacity: f64,
        uplink_offered: f64,
    ) -> ServiceState {
        let (d_srv, m_srv) = self.queue(capacity, offered);
        let (d_up, m_up) = self.queue(uplink_capacity, uplink_offered);
        let answer_prob = d_srv * d_up;
        // Excess delays add; the cap still bounds the total.
        let rtt_mult = (1.0 + (m_srv - 1.0) + (m_up - 1.0)).min(self.max_rtt_mult);
        let fail = 1.0 - answer_prob;
        ServiceState { answer_prob, rtt_mult, servfail_prob: fail * self.servfail_share }
    }

    /// Quality of a server with no uplink contention.
    pub fn evaluate_server_only(&self, capacity: f64, offered: f64) -> ServiceState {
        let (d, m) = self.queue(capacity, offered);
        let fail = 1.0 - d;
        ServiceState { answer_prob: d, rtt_mult: m, servfail_prob: fail * self.servfail_share }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: LoadModel =
        LoadModel { queue_mult_cap: 30.0, max_rtt_mult: 500.0, servfail_share: 0.08 };

    #[test]
    fn idle_server_is_perfect() {
        let s = M.evaluate_server_only(10_000.0, 0.0);
        assert_eq!(s.answer_prob, 1.0);
        assert_eq!(s.rtt_mult, 1.0);
        assert_eq!(s.servfail_prob, 0.0);
        assert_eq!(s.timeout_prob(), 0.0);
    }

    #[test]
    fn latency_grows_hyperbolically() {
        // ρ = 0.5 → 2x; ρ = 0.9 → 10x; ρ = 0.96 → 25x.
        for (rho, expect) in [(0.5, 2.0), (0.9, 10.0), (0.96, 25.0)] {
            let s = M.evaluate_server_only(1_000.0, rho * 1_000.0);
            assert!((s.rtt_mult - expect).abs() / expect < 1e-6, "ρ={rho}: {}", s.rtt_mult);
            assert_eq!(s.answer_prob, 1.0, "below saturation nothing is lost");
        }
    }

    #[test]
    fn saturation_sheds_load() {
        // Offered 5x capacity → only 20% answered, at the capped RTT.
        let s = M.evaluate_server_only(1_000.0, 5_000.0);
        assert!((s.answer_prob - 0.2).abs() < 1e-9);
        // Finite buffer: answered queries wait the queue cap, not 1/(1-ρ).
        assert_eq!(s.rtt_mult, 30.0);
        // Failures split 92/8 between timeout and SERVFAIL.
        assert!((s.servfail_prob - 0.8 * 0.08).abs() < 1e-9);
        assert!((s.timeout_prob() - 0.8 * 0.92).abs() < 1e-9);
    }

    #[test]
    fn rtt_mult_is_capped_at_queue_cap() {
        let s = M.evaluate_server_only(1_000.0, 999.9999);
        assert!(s.rtt_mult <= 30.0, "near-saturation delay bounded: {}", s.rtt_mult);
        // ρ = 0.99 would be 100x unbounded; the finite buffer caps it.
        let s = M.evaluate_server_only(1_000.0, 990.0);
        assert_eq!(s.rtt_mult, 30.0);
    }

    #[test]
    fn uplink_congestion_composes() {
        // Server fine, uplink at 2x capacity → half the queries delivered.
        let s = M.evaluate(10_000.0, 100.0, 1_000.0, 2_000.0);
        assert!((s.answer_prob - 0.5).abs() < 0.01);
        assert!((s.rtt_mult - 30.01).abs() < 0.01, "uplink at its queue cap: {}", s.rtt_mult);
        // Both congested: losses multiply.
        let s = M.evaluate(1_000.0, 2_000.0, 1_000.0, 2_000.0);
        assert!((s.answer_prob - 0.25).abs() < 1e-9);
    }

    #[test]
    fn excess_delays_add_not_multiply() {
        // Server at ρ=0.5 (2x) and uplink at ρ=0.5 (2x) → 3x, not 4x.
        let s = M.evaluate(1_000.0, 500.0, 1_000.0, 500.0);
        assert!((s.rtt_mult - 3.0).abs() < 1e-9);
    }

    #[test]
    fn monotone_in_load() {
        let mut last = M.evaluate_server_only(1_000.0, 0.0);
        for offered in (0..30).map(|i| i as f64 * 200.0) {
            let s = M.evaluate_server_only(1_000.0, offered);
            assert!(s.answer_prob <= last.answer_prob + 1e-12);
            assert!(s.rtt_mult >= last.rtt_mult - 1e-12);
            last = s;
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        M.evaluate_server_only(0.0, 10.0);
    }
}
