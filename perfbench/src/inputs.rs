//! Seeded workload inputs: tenant programs, request payloads, the Poisson
//! arrival schedule and the onboarding plan. Everything here is a pure
//! function of the seed; the system under test sees nothing else.

use crate::rng::Rng;
use deflection_workloads::{credit, encode_ints, genome, kv, nbench, server};

/// The service classes of the serving mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    Https,
    Credit,
    Seqgen,
    NumericSort,
    Idea,
    Kv,
}

impl Class {
    pub const ALL: [Class; 6] =
        [Class::Https, Class::Credit, Class::Seqgen, Class::NumericSort, Class::Idea, Class::Kv];

    pub fn name(self) -> &'static str {
        match self {
            Class::Https => "https",
            Class::Credit => "credit",
            Class::Seqgen => "seqgen",
            Class::NumericSort => "numeric_sort",
            Class::Idea => "idea",
            Class::Kv => "kv",
        }
    }

    fn source(self) -> String {
        match self {
            Class::Https => server::source(),
            Class::Credit => credit::source(),
            Class::Seqgen => genome::seqgen_source(),
            Class::NumericSort => nbench::numeric_sort::source(),
            Class::Idea => nbench::idea::source(),
            Class::Kv => kv::source(),
        }
    }
}

/// Appends a never-called function returning `tag`: the program's
/// behaviour is unchanged, but its binary — and so its code hash — is
/// its own.
pub fn tagged(source: &str, tag: u64) -> String {
    format!("{source}\nfn __bench_tag() -> int {{ return {}; }}\n", tag & i64::MAX as u64)
}

/// One tenant: a class and its own program.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub class: Class,
    pub source: String,
    /// Session seed of a KV tenant's request stream.
    pub kv_seed: i64,
}

/// One request: which tenant, and its input bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub tenant: usize,
    pub payload: Vec<u8>,
}

/// A deterministic request stream over a set of tenants. Classes come in
/// shuffled rounds so each class gets the same share of any long run;
/// the tenant within a class and every request size are drawn per
/// request.
#[derive(Debug, Clone)]
pub struct Traffic {
    pub tenants: Vec<Tenant>,
    rng: Rng,
    round: Vec<Class>,
    kv_next: Vec<i64>,
    issued: u64,
}

impl Traffic {
    /// `per_class` tenants for each class in `classes`.
    fn new(seed: u64, classes: &[Class], per_class: usize) -> Traffic {
        let root = Rng::new(seed);
        let mut tags = root.fork(1);
        let tenants: Vec<Tenant> = classes
            .iter()
            .flat_map(|&c| (0..per_class).map(move |_| c))
            .map(|class| Tenant {
                class,
                source: tagged(&class.source(), tags.next_u64()),
                kv_seed: tags.seed31(),
            })
            .collect();
        let kv_next = vec![0; tenants.len()];
        Traffic { tenants, rng: root.fork(2), round: Vec::new(), kv_next, issued: 0 }
    }

    /// The multi-tenant mix: six classes, three tenants each.
    pub fn mix(seed: u64) -> Traffic {
        Traffic::new(seed, &Class::ALL, 3)
    }

    /// One https tenant.
    pub fn https(seed: u64) -> Traffic {
        Traffic::new(seed, &[Class::Https], 1)
    }

    pub fn next_request(&mut self) -> Request {
        if self.round.is_empty() {
            let mut classes: Vec<Class> = self.tenants.iter().map(|t| t.class).collect();
            classes.dedup();
            self.rng.shuffle(&mut classes);
            self.round = classes;
        }
        let class = self.round.pop().expect("refilled above");
        let candidates: Vec<usize> =
            (0..self.tenants.len()).filter(|&i| self.tenants[i].class == class).collect();
        let tenant = candidates[(self.rng.next_u64() % candidates.len() as u64) as usize];
        self.issued += 1;
        let r = &mut self.rng;
        let payload = match class {
            Class::Https => {
                encode_ints(&[self.issued as i64, 8 * r.range(64, 512) as i64, r.seed31()])
            }
            Class::Credit => {
                encode_ints(&[r.range(30, 60) as i64, r.range(6, 12) as i64, r.seed31()])
            }
            Class::Seqgen => encode_ints(&[r.range(1000, 3000) as i64, r.seed31()]),
            Class::NumericSort => encode_ints(&[r.range(150, 250) as i64, r.seed31()]),
            Class::Idea => encode_ints(&[r.range(30, 50) as i64, r.seed31()]),
            Class::Kv => {
                let i = self.kv_next[tenant];
                self.kv_next[tenant] += 1;
                kv::session_request(self.tenants[tenant].kv_seed, i)
            }
        };
        Request { tenant, payload }
    }
}

/// Poisson arrival offsets (seconds) at `rate` per second over `duration`
/// seconds.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed).fork(3);
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += rng.exp(1.0 / rate);
        if at >= duration {
            return out;
        }
        out.push(at);
    }
}

/// A program the onboarding workload can tag into fresh binaries, with
/// its fixed input and native reference.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub name: &'static str,
    pub source: String,
    pub input: Vec<u8>,
    pub reference: fn(&[u8]) -> u64,
    /// The native reference for the zero-filled input a run that was
    /// given no input reads.
    pub no_input: u64,
}

impl Kernel {
    fn new(
        name: &'static str,
        source: String,
        input: Vec<u8>,
        reference: fn(&[u8]) -> u64,
    ) -> Kernel {
        // Zero input asks ASSIGNMENT for an empty matrix, which its
        // reference cannot chunk; the greedy total over no rows is 0.
        let no_input = if name == "ASSIGNMENT" { 0 } else { reference(&vec![0; input.len()]) };
        Kernel { name, source, input, reference, no_input }
    }
}

/// The onboarding programs: every nBench kernel at test scale (the
/// workload measures onboarding, not kernel run time) plus the https and
/// credit applications.
pub fn onboard_kernels() -> Vec<Kernel> {
    let mut out: Vec<Kernel> = nbench::all()
        .into_iter()
        .map(|k| Kernel::new(k.name, (k.source)(), (k.input)(1), k.reference))
        .collect();
    out.push(Kernel::new("HTTPS", server::source(), server::request(1, 2048), server::reference));
    out.push(Kernel::new("CREDIT", credit::source(), credit::input(40, 8), credit::reference));
    out
}

/// One onboarding operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Onboard {
    /// Kernel `kernel` tagged with `tag` — a binary never seen before.
    Fresh { kernel: usize, tag: u64 },
    /// Attack-corpus entry `attack`.
    Attack { attack: usize },
}

/// One attack in every this many onboarding operations.
pub const ATTACK_EVERY: u64 = 8;

/// The `i`-th onboarding operation of the seeded plan. Kernels come in
/// shuffled rounds; one operation in [`ATTACK_EVERY`] (at a seeded slot
/// of each block) is an attack binary; tags are unique per operation
/// index below 2^42.
pub fn onboard_op(seed: u64, i: u64, kernels: usize, attacks: usize) -> Onboard {
    let root = Rng::new(seed);
    let block = i / ATTACK_EVERY;
    let mut brng = root.fork(0x100_0000 + block);
    if i % ATTACK_EVERY == brng.next_u64() % ATTACK_EVERY {
        return Onboard::Attack { attack: (brng.next_u64() % attacks as u64) as usize };
    }
    let round = i / kernels as u64;
    let mut order: Vec<usize> = (0..kernels).collect();
    root.fork(0x200_0000 + round).shuffle(&mut order);
    // A seeded 20-bit prefix over the operation index: unique per index
    // below 2^42.
    let tag = (root.fork(4).next_u64() & 0xF_FFFF) << 42 | i;
    Onboard::Fresh { kernel: order[(i % kernels as u64) as usize], tag }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(t: &mut Traffic, n: usize) -> Vec<Request> {
        (0..n).map(|_| t.next_request()).collect()
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let (mut a, mut b, mut c) = (Traffic::mix(7), Traffic::mix(7), Traffic::mix(8));
        let sa = stream(&mut a, 500);
        assert_eq!(sa, stream(&mut b, 500));
        assert_ne!(sa, stream(&mut c, 500));
        let src = |t: &Traffic| t.tenants.iter().map(|x| x.source.clone()).collect::<Vec<_>>();
        assert_eq!(src(&a), src(&b));
        assert_ne!(src(&a), src(&c));
        let ops = |s| (0..300).map(|i| onboard_op(s, i, 12, 12)).collect::<Vec<_>>();
        assert_eq!(ops(5), ops(5));
        assert_ne!(ops(5), ops(6));
    }

    #[test]
    fn poisson_schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(3, 100.0, 10.0);
        assert_eq!(a, poisson_schedule(3, 100.0, 10.0));
        assert_ne!(a, poisson_schedule(4, 100.0, 10.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // About rate × duration arrivals (Poisson sd ≈ 32 here).
        assert!((850..1150).contains(&a.len()), "{}", a.len());
    }

    #[test]
    fn mix_tenants_have_distinct_programs_and_balanced_classes() {
        let mut t = Traffic::mix(1);
        let mut srcs: Vec<&String> = t.tenants.iter().map(|x| &x.source).collect();
        srcs.sort();
        srcs.dedup();
        assert_eq!(srcs.len(), 18);
        let reqs = stream(&mut t, 600);
        for class in Class::ALL {
            let n = reqs.iter().filter(|r| t.tenants[r.tenant].class == class).count();
            assert_eq!(n, 100, "{}", class.name());
        }
    }

    #[test]
    fn onboard_tags_never_repeat_and_attacks_keep_their_share() {
        let warmup = (1u64 << 40)..(1 << 40) + 16;
        let ops: Vec<Onboard> = (0..800).chain(warmup).map(|i| onboard_op(9, i, 12, 12)).collect();
        let mut tags: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                Onboard::Fresh { tag, .. } => Some(*tag),
                Onboard::Attack { .. } => None,
            })
            .collect();
        let fresh = tags.len();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), fresh);
        assert_eq!(816 - fresh, 102);
    }
}
