//! Closed-loop concurrency simulation for the HTTPS experiment (Fig. 10).
//!
//! The paper drives its in-enclave HTTPS server with Siege: N concurrent
//! clients, zero think time, 10 minutes. The response-time/throughput
//! curves are a queueing phenomenon — flat response time while concurrency
//! is below the worker pool, then linear growth once requests queue. We
//! measure the *service time* of the real in-enclave handler and replay it
//! through this discrete-event simulation of a multi-worker server with a
//! FIFO accept queue.

use deflection_crypto::drbg::HmacDrbg;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

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

/// Arrival process for [`simulate_serving`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrival {
    /// `clients` closed-loop clients: each reissues `think_us` after its
    /// previous response (or after a shed-retry backoff).
    Closed {
        /// Concurrent clients.
        clients: usize,
        /// Per-client think time between response and next request (µs).
        think_us: u64,
    },
    /// Open-loop Poisson arrivals at `rate_rps` requests per second; shed
    /// requests are lost, not retried.
    Open {
        /// Mean offered load in requests per second.
        rate_rps: f64,
    },
}

/// One workload class in the mixed-service-time load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixEntry {
    /// Mean service time of this class (µs), measured from the real
    /// in-enclave handler.
    pub service_us: f64,
    /// Relative weight of this class in the mix.
    pub weight: u32,
}

/// Configuration of the admission-layer serving simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Arrival process.
    pub arrival: Arrival,
    /// Pool worker count.
    pub workers: usize,
    /// The workload mix (must be non-empty with positive total weight).
    pub mix: Vec<MixEntry>,
    /// Deterministic ±jitter applied to every service time.
    pub jitter_frac: f64,
    /// Completions to simulate.
    pub total_requests: usize,
    /// Queue depth at which new arrivals are shed
    /// ([`crate::queueing::ServingResult::shed`] counts them).
    pub high_water: usize,
    /// Largest batch the dispatcher serves at once; it never waits for a
    /// batch to fill.
    pub batch_max: usize,
    /// DRBG seed — equal configs and seeds give bit-equal results.
    pub seed: u64,
}

/// Result of [`simulate_serving`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingResult {
    /// Requests completed (equals the configured `total_requests` unless
    /// the arrival stream was exhausted first).
    pub completed: usize,
    /// Arrivals shed at the high-water mark (closed-loop retries count
    /// each attempt).
    pub shed: u64,
    /// Median response time (µs), arrival to finish.
    pub p50_us: u64,
    /// 99th-percentile response time (µs).
    pub p99_us: u64,
    /// Mean response time (µs).
    pub mean_response_us: f64,
    /// Completions per second over the simulated span.
    pub throughput_rps: f64,
    /// `shed / (shed + completed)`.
    pub shed_rate: f64,
    /// Mean formed-batch size — ≈1 under a trickle, → `batch_max` under
    /// saturation (the queue refills while each batch is served).
    pub mean_batch: f64,
}

/// Discrete-event simulation of the admission frontend
/// ([`deflection_core::admission::AdmissionFrontend`]) at scales the real
/// pool cannot be driven at in CI (10⁵–10⁶ clients): bounded queue with
/// high-water shedding, work-conserving batch formation (whatever is
/// queued, up to `batch_max`), greedy earliest-free worker assignment (the
/// work-stealing approximation), and a dispatcher that joins each batch
/// before forming the next — the same barrier `serve_parallel`'s scoped
/// threads impose. Service times come from a weighted mix measured on the
/// real handlers. Integer-µs event time and lazy open-loop arrival
/// generation keep memory O(clients + completions).
///
/// # Panics
///
/// Panics on zero workers/requests/batch/high-water, an empty or
/// zero-weight mix, or a non-positive arrival rate.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn simulate_serving(cfg: &ServingConfig) -> ServingResult {
    assert!(cfg.workers > 0 && cfg.total_requests > 0);
    assert!(cfg.batch_max > 0 && cfg.high_water > 0);
    assert!(!cfg.mix.is_empty());
    let total_weight: u64 = cfg.mix.iter().map(|m| u64::from(m.weight)).sum();
    assert!(total_weight > 0);
    let mut drbg = HmacDrbg::new(&cfg.seed.to_le_bytes());
    let mean_service = cfg.mix.iter().map(|m| m.service_us * f64::from(m.weight)).sum::<f64>()
        / total_weight as f64;

    // Min-heap of pending arrival times. Clients are interchangeable, so
    // an event is just a timestamp. Open-loop arrivals are generated
    // lazily (each pop pushes its successor) so the heap stays O(1).
    let mut arrivals: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let (closed_think, open_rate) = match cfg.arrival {
        Arrival::Closed { clients, think_us } => {
            assert!(clients > 0);
            for _ in 0..clients {
                arrivals.push(Reverse(0));
            }
            (Some(think_us), None)
        }
        Arrival::Open { rate_rps } => {
            assert!(rate_rps > 0.0);
            arrivals.push(Reverse(0));
            (None, Some(rate_rps))
        }
    };
    // Shed-retry backoff for closed-loop clients: think time plus one
    // full batch-drain time, so a shed client does not retry before the
    // dispatcher could plausibly have made room (and the event heap is
    // not flooded with hopeless retries under extreme overload).
    let drain_us = mean_service * cfg.batch_max as f64 / cfg.workers as f64;
    let backoff = (drain_us.ceil() as u64 + closed_think.unwrap_or(0)).max(1);

    let mut queue: VecDeque<u64> = VecDeque::new();
    let mut worker_free = vec![0u64; cfg.workers];
    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.total_requests);
    let mut shed = 0u64;
    let mut t_disp = 0u64;
    let mut last_finish = 0u64;
    let mut batches = 0u64;
    let mut batched_total = 0u64;

    // Absorb one arrival event into queue/shed; returns false when the
    // stream is exhausted. (A macro-free closure would need to borrow
    // half the locals mutably at once, so this is open-coded per site.)
    while latencies.len() < cfg.total_requests {
        if queue.is_empty() {
            match arrivals.peek() {
                Some(&Reverse(t)) => t_disp = t_disp.max(t),
                None => break,
            }
        }
        // Drain every arrival at or before the dispatcher's clock.
        while let Some(&Reverse(t)) = arrivals.peek() {
            if t > t_disp {
                break;
            }
            arrivals.pop();
            if let Some(rate) = open_rate {
                let u = drbg.next_f64();
                let dt = (-(1.0 - u).ln() * 1_000_000.0 / rate).ceil() as u64;
                arrivals.push(Reverse(t + dt.max(1)));
            }
            if queue.len() >= cfg.high_water {
                shed += 1;
                if closed_think.is_some() {
                    arrivals.push(Reverse(t + backoff));
                }
            } else {
                queue.push_back(t);
            }
        }
        if queue.is_empty() {
            continue;
        }
        let take = queue.len().min(cfg.batch_max);
        batches += 1;
        batched_total += take as u64;
        let mut batch_end = t_disp;
        for _ in 0..take {
            let arrival = queue.pop_front().expect("take <= len");
            // Weighted mix draw, then deterministic jitter.
            let r = drbg.next_f64() * total_weight as f64;
            let mut acc = 0.0;
            let mut service = cfg.mix[cfg.mix.len() - 1].service_us;
            for m in &cfg.mix {
                acc += f64::from(m.weight);
                if r < acc {
                    service = m.service_us;
                    break;
                }
            }
            let jitter = 1.0 + cfg.jitter_frac * (drbg.next_f64() * 2.0 - 1.0);
            let dur = (service * jitter).max(1.0) as u64;
            // Earliest-free worker (the work-stealing approximation).
            let w = worker_free
                .iter()
                .enumerate()
                .min_by_key(|(_, &f)| f)
                .map(|(i, _)| i)
                .expect("workers nonempty");
            let start = t_disp.max(worker_free[w]);
            let finish = start + dur;
            worker_free[w] = finish;
            batch_end = batch_end.max(finish);
            last_finish = last_finish.max(finish);
            latencies.push(finish - arrival);
            if let Some(think) = closed_think {
                arrivals.push(Reverse(finish + think.max(1)));
            }
            if latencies.len() == cfg.total_requests {
                break;
            }
        }
        // The dispatcher joins its batch before forming the next one —
        // the same barrier `serve_parallel`'s scoped threads impose.
        t_disp = batch_end;
    }

    let completed = latencies.len();
    latencies.sort_unstable();
    let pct = |p: usize| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[((completed - 1) * p) / 100]
        }
    };
    let mean = latencies.iter().map(|&l| l as f64).sum::<f64>() / (completed.max(1)) as f64;
    ServingResult {
        completed,
        shed,
        p50_us: pct(50),
        p99_us: pct(99),
        mean_response_us: mean,
        throughput_rps: if last_finish == 0 {
            0.0
        } else {
            completed as f64 / (last_finish as f64 / 1_000_000.0)
        },
        shed_rate: shed as f64 / (shed as f64 + completed as f64).max(1.0),
        mean_batch: batched_total as f64 / (batches.max(1)) as f64,
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

    fn mix() -> Vec<MixEntry> {
        vec![
            MixEntry { service_us: 800.0, weight: 4 },  // https
            MixEntry { service_us: 1500.0, weight: 2 }, // credit / kernels
            MixEntry { service_us: 400.0, weight: 3 },  // kv session
        ]
    }

    fn serving_cfg(arrival: Arrival, total: usize) -> ServingConfig {
        ServingConfig {
            arrival,
            workers: 4,
            mix: mix(),
            jitter_frac: 0.05,
            total_requests: total,
            high_water: 512,
            batch_max: 64,
            seed: 11,
        }
    }

    #[test]
    fn serving_is_deterministic_for_seed() {
        let cfg = serving_cfg(Arrival::Closed { clients: 1000, think_us: 100 }, 20_000);
        assert_eq!(simulate_serving(&cfg), simulate_serving(&cfg));
    }

    #[test]
    fn serving_scales_to_a_hundred_thousand_closed_loop_clients() {
        // Unit-test-sized completion count; the loadgen bin drives the
        // full 10^5-10^6 completions in release mode.
        let cfg = serving_cfg(Arrival::Closed { clients: 100_000, think_us: 500_000 }, 20_000);
        let r = simulate_serving(&cfg);
        assert_eq!(r.completed, 20_000);
        // Far more offered load than capacity: the high-water mark sheds.
        assert!(r.shed > 0, "{r:?}");
        assert!(r.p99_us >= r.p50_us);
    }

    #[test]
    fn shedding_keeps_p99_bounded_instead_of_collapsing() {
        // The acceptance property in miniature: p99 under heavy shedding
        // stays within 10x of p99 at half saturation, because the queue
        // is bounded — latency cannot grow with offered load. This only
        // holds when the high-water mark is sized for latency
        // (queue wait ≈ high_water x service / workers), so the serving
        // configs here use a latency-tier queue, not the throughput-tier
        // default.
        let latency_cfg = |arrival, total| {
            let mut cfg = serving_cfg(arrival, total);
            cfg.high_water = 32;
            cfg.batch_max = 16;
            cfg
        };
        let half =
            simulate_serving(&latency_cfg(Arrival::Closed { clients: 2, think_us: 0 }, 5_000));
        let over =
            simulate_serving(&latency_cfg(Arrival::Closed { clients: 5_000, think_us: 0 }, 10_000));
        assert_eq!(half.shed, 0, "{half:?}");
        assert!(over.shed > 0, "{over:?}");
        assert!(
            (over.p99_us as f64) <= 10.0 * (half.p99_us as f64),
            "over {over:?} vs half {half:?}"
        );
    }

    #[test]
    fn open_loop_sheds_past_capacity_and_trickles_below_it() {
        // 4 workers x ~1.2ms mean service ≈ 4800 rps capacity (batching
        // barrier shaves some). 100 rps is a trickle; 50k rps is far past.
        let trickle = simulate_serving(&serving_cfg(Arrival::Open { rate_rps: 100.0 }, 2_000));
        let flood = simulate_serving(&serving_cfg(Arrival::Open { rate_rps: 50_000.0 }, 10_000));
        assert_eq!(trickle.shed, 0, "{trickle:?}");
        assert!(trickle.mean_batch < 4.0, "{trickle:?}");
        assert!(flood.shed_rate > 0.5, "{flood:?}");
        // A flood fills batches to batch_max without any fill wait.
        assert!(flood.mean_batch > 32.0, "{flood:?}");
        assert!(flood.throughput_rps > trickle.throughput_rps);
    }

    #[test]
    fn more_workers_raise_saturation_throughput() {
        let mut slow = serving_cfg(Arrival::Closed { clients: 1_000, think_us: 0 }, 10_000);
        slow.workers = 1;
        let mut fast = slow.clone();
        fast.workers = 4;
        let r1 = simulate_serving(&slow);
        let r4 = simulate_serving(&fast);
        assert!(r4.throughput_rps > 2.0 * r1.throughput_rps, "1w {r1:?} vs 4w {r4:?}");
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
