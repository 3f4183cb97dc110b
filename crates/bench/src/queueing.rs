//! Closed-loop concurrency simulation for the HTTPS experiment (Fig. 10).
//!
//! The paper drives its in-enclave HTTPS server with Siege: N concurrent
//! clients, zero think time, 10 minutes. The response-time/throughput
//! curves are a queueing phenomenon — flat response time while concurrency
//! is below the worker pool, then linear growth once requests queue. We
//! measure the *service time* of the real in-enclave handler and replay it
//! through this discrete-event simulation of a multi-worker server with a
//! FIFO accept queue.
//!
//! This is a labelled model for a 96-worker server that the host cannot
//! run; it is not a performance claim. Serving numbers for the admission
//! frontend come from the real pool (`loadgen`, `fig_serving`).

use deflection_crypto::drbg::HmacDrbg;

/// Result of simulating one concurrency level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Number of concurrent closed-loop clients.
    pub concurrency: usize,
    /// Mean response time (µs).
    pub mean_response_us: f64,
    /// Completed requests per second.
    pub throughput_rps: f64,
}

/// Simulates `clients` closed-loop clients against `workers` identical
/// workers whose service time is `service_us` (±`jitter_frac` deterministic
/// jitter), for `total_requests` completions.
///
/// # Panics
///
/// Panics if any parameter is zero.
#[must_use]
pub fn simulate(
    clients: usize,
    workers: usize,
    service_us: f64,
    jitter_frac: f64,
    total_requests: usize,
    seed: u64,
) -> SimResult {
    assert!(clients > 0 && workers > 0 && total_requests > 0);
    let mut drbg = HmacDrbg::new(&seed.to_le_bytes());
    // Worker availability times and per-client next-issue times, in µs.
    let mut worker_free = vec![0.0f64; workers];
    let mut client_ready = vec![0.0f64; clients];
    let mut total_response = 0.0f64;
    let mut completed = 0usize;
    let mut last_completion = 0.0f64;

    while completed < total_requests {
        // The next request comes from the client that became ready first.
        let (c, &arrival) = client_ready
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .expect("clients nonempty");
        // It is served by the worker that frees up first.
        let w = worker_free
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map(|(i, _)| i)
            .expect("workers nonempty");
        let start = arrival.max(worker_free[w]);
        let jitter = 1.0 + jitter_frac * (drbg.next_f64() * 2.0 - 1.0);
        let finish = start + service_us * jitter;
        worker_free[w] = finish;
        client_ready[c] = finish; // zero think time: reissue immediately
        total_response += finish - arrival;
        completed += 1;
        last_completion = last_completion.max(finish);
    }

    SimResult {
        concurrency: clients,
        mean_response_us: total_response / completed as f64,
        throughput_rps: completed as f64 / (last_completion / 1_000_000.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_saturation_response_equals_service_time() {
        let r = simulate(8, 96, 1000.0, 0.0, 2000, 1);
        assert!((r.mean_response_us - 1000.0).abs() < 1.0, "{r:?}");
    }

    #[test]
    fn above_saturation_response_grows_linearly() {
        let w = 16;
        let s = 1000.0;
        let r2x = simulate(2 * w, w, s, 0.0, 5000, 1);
        let r4x = simulate(4 * w, w, s, 0.0, 5000, 1);
        // Closed-loop: response ≈ clients/workers * service.
        assert!((r2x.mean_response_us / s - 2.0).abs() < 0.2, "{r2x:?}");
        assert!((r4x.mean_response_us / s - 4.0).abs() < 0.3, "{r4x:?}");
    }

    #[test]
    fn throughput_plateaus_at_worker_capacity() {
        let w = 16;
        let s = 1000.0; // 1 ms -> capacity = 16k rps
        let under = simulate(8, w, s, 0.0, 5000, 1);
        let over = simulate(64, w, s, 0.0, 5000, 1);
        assert!(under.throughput_rps < over.throughput_rps);
        assert!((over.throughput_rps - 16_000.0).abs() / 16_000.0 < 0.1, "{over:?}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = simulate(10, 4, 500.0, 0.1, 1000, 7);
        let b = simulate(10, 4, 500.0, 0.1, 1000, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn slower_service_means_slower_responses() {
        let fast = simulate(100, 96, 1000.0, 0.05, 3000, 2);
        let slow = simulate(100, 96, 1141.0, 0.05, 3000, 2); // +14.1%
        assert!(slow.mean_response_us > fast.mean_response_us);
        let overhead =
            (slow.mean_response_us - fast.mean_response_us) / fast.mean_response_us * 100.0;
        assert!((10.0..20.0).contains(&overhead), "overhead {overhead}");
    }
}
