//! Verdict oracles that do not depend on the system under test: native
//! references for the stateless classes, the data owner's view of
//! seqgen's sealed records, per-tenant `KvSession` mirrors, and the attack
//! corpus's expected containment.

use crate::inputs::{Class, Tenant};
use deflection_core::attack::Expected;
use deflection_core::runtime::{open_record, EcallError, RunReport};
use deflection_sgx_sim::vm::RunExit;
use deflection_workloads::{credit, genome, kv::KvSession, nbench, server};
use std::collections::{BTreeMap, HashMap};

/// How one verdict compares with its oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Equal to the oracle.
    Ok,
    /// A KV verdict that misses its session mirror but equals a mirror
    /// restarted at the last tenant switch: the known defect that a
    /// tenant switch re-installs the image and drops the KV globals.
    KvStateLost,
    /// An onboarding verdict that misses the native reference but equals
    /// the native reference of the zero-filled input a run without input
    /// reads: the known defect that a served binary without an I/O plan
    /// leaves its request in the worker's inbox, so every later tenant's
    /// input queues behind it and its runs see none.
    StaleInbox,
    /// Anything else: a wrong verdict.
    Wrong,
    /// No verdict: shed at admission or failed with an error.
    Lost,
}

/// Per-class counts of [`Check`] outcomes over timed operations.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    by_class: BTreeMap<&'static str, [u64; 5]>,
    /// Wrong or lost verdicts among untimed (warm-up) operations: not
    /// counted in `attempted`, but they still make the run incorrect.
    untimed_failures: u64,
}

impl Tally {
    pub fn add(&mut self, class: &'static str, check: Check) {
        self.by_class.entry(class).or_default()[check as usize] += 1;
    }

    fn total(&self, check: Check) -> u64 {
        self.by_class.values().map(|c| c[check as usize]).sum()
    }

    pub fn attempted(&self) -> u64 {
        self.by_class.values().flatten().sum()
    }

    pub fn ok(&self) -> u64 {
        self.total(Check::Ok)
    }

    /// Operations with no verdict or a verdict no oracle explains.
    pub fn failed(&self) -> u64 {
        self.total(Check::Wrong) + self.total(Check::Lost)
    }

    /// Records an untimed (warm-up) operation's check.
    pub fn add_untimed(&mut self, check: Check) {
        if matches!(check, Check::Wrong | Check::Lost) {
            self.untimed_failures += 1;
        }
    }

    /// True when every verdict, timed or not, is either right or one of
    /// the known defects.
    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.untimed_failures == 0
    }

    /// One line per class with the count of each outcome.
    pub fn print(&self) {
        println!(
            "# verdicts per class: attempted / ok / kv_state_lost / stale_inbox / wrong / lost"
        );
        for (class, c) in &self.by_class {
            let attempted: u64 = c.iter().sum();
            let [ok, kv, inbox, wrong, lost] = c;
            println!(
                "#   {class:<14} {attempted:>6} {ok:>6} {kv:>6} {inbox:>6} {wrong:>6} {lost:>6}"
            );
        }
    }
}

/// Stateless reference exit for a class (KV has none).
fn reference(class: Class, payload: &[u8]) -> Option<u64> {
    Some(match class {
        Class::Https => server::reference(payload),
        Class::Credit => credit::reference(payload),
        Class::Seqgen => genome::seqgen_reference(payload).0,
        Class::NumericSort => nbench::numeric_sort::reference(payload),
        Class::Idea => nbench::idea::reference(payload),
        Class::Kv => return None,
    })
}

/// What the benchmark keeps of a delivered report: enough for the
/// oracles, without holding every sealed record of a long run.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub exit: RunExit,
    /// The instance's instruction counter after the run.
    pub instructions: u64,
    pub record_count: u64,
    /// The sealed records, kept only for classes whose oracle opens them.
    pub records: Vec<Vec<u8>>,
}

impl Verdict {
    pub fn keep(report: RunReport, class: Class) -> Verdict {
        Verdict {
            instructions: report.stats.instructions,
            record_count: report.records.len() as u64,
            records: if class == Class::Seqgen { report.records } else { Vec::new() },
            exit: report.exit,
        }
    }
}

/// Checks one non-KV serving verdict. `nonce_base` is the record counter
/// the serving worker had reached when this run started; seqgen's records
/// are opened with the owner key on worker channel 0.
pub fn check_stateless(
    class: Class,
    payload: &[u8],
    verdict: &Verdict,
    owner_key: &[u8; 32],
    nonce_base: u64,
) -> Check {
    if verdict.exit.exit_value() != reference(class, payload) {
        return Check::Wrong;
    }
    if class == Class::Seqgen {
        let (_, expected) = genome::seqgen_reference(payload);
        if verdict.records.len() != expected.len() {
            return Check::Wrong;
        }
        for (k, (sealed, plain)) in verdict.records.iter().zip(&expected).enumerate() {
            match open_record(owner_key, 0, nonce_base + k as u64, sealed) {
                Ok(opened) if opened == *plain => {}
                _ => return Check::Wrong,
            }
        }
    }
    Check::Ok
}

/// One submitted serving request, as the benchmark saw it.
#[derive(Debug)]
pub struct Sent {
    /// Global admission id; `None` when the request was shed.
    pub gid: Option<u64>,
    pub tenant: usize,
    pub payload: Vec<u8>,
    /// Counted in the report (warm-up requests are checked but not counted).
    pub timed: bool,
    pub verdict: Option<Result<Verdict, EcallError>>,
}

/// Replays the dispatcher's execution order — batches in order, tenant
/// groups in first-occurrence order, requests in admission order within a
/// group, all on the pool's single worker — and checks every verdict.
/// `active` is the tenant whose image was installed last before the
/// dispatcher started.
///
/// Returns each served request's executed instructions by global id. A
/// report's counter runs from the instance's install, so a run's own
/// count is the difference from the previous run on the same image.
pub fn check_serving(
    tenants: &[Tenant],
    mut active: usize,
    owner_key: &[u8; 32],
    sent: &[Sent],
    batches: &[Vec<u64>],
    tally: &mut Tally,
) -> HashMap<u64, u64> {
    let mut instructions = HashMap::new();
    let mut counter_base = 0u64;
    let by_gid: HashMap<u64, &Sent> = sent.iter().filter_map(|s| s.gid.map(|g| (g, s))).collect();
    let mut session: HashMap<usize, KvSession> = HashMap::new();
    let mut since_switch: HashMap<usize, KvSession> = HashMap::new();
    let mut nonce = 0u64;
    for batch in batches {
        let mut groups: Vec<(usize, Vec<&Sent>)> = Vec::new();
        for gid in batch {
            let s = by_gid[gid];
            match groups.iter_mut().find(|(t, _)| *t == s.tenant) {
                Some((_, g)) => g.push(s),
                None => groups.push((s.tenant, vec![s])),
            }
        }
        for (tenant, group) in groups {
            if tenant != active {
                since_switch.insert(tenant, KvSession::new());
                active = tenant;
                counter_base = 0;
            }
            let class = tenants[tenant].class;
            for s in group {
                let check = match &s.verdict {
                    Some(Ok(verdict)) => {
                        let executed = verdict.instructions;
                        instructions.insert(s.gid.expect("served"), executed - counter_base);
                        counter_base = executed;
                        let base = nonce;
                        nonce += verdict.record_count;
                        if class == Class::Kv {
                            let want = session.entry(tenant).or_default().apply(&s.payload);
                            let lost = since_switch.entry(tenant).or_default().apply(&s.payload);
                            check_kv(&verdict.exit, want, lost)
                        } else {
                            check_stateless(class, &s.payload, verdict, owner_key, base)
                        }
                    }
                    _ => Check::Lost,
                };
                if s.timed {
                    tally.add(class.name(), check);
                } else {
                    tally.add_untimed(check);
                }
            }
        }
    }
    for s in sent.iter().filter(|s| s.gid.is_none()) {
        if s.timed {
            tally.add(tenants[s.tenant].class.name(), Check::Lost);
        } else {
            tally.add_untimed(Check::Lost);
        }
    }
    instructions
}

/// A KV verdict against its session mirror (`want`) and the mirror
/// restarted at the last tenant switch (`lost`).
pub fn check_kv(exit: &RunExit, want: u64, lost: u64) -> Check {
    match exit.exit_value() {
        Some(v) if v == want => Check::Ok,
        Some(v) if v == lost => Check::KvStateLost,
        _ => Check::Wrong,
    }
}

/// An honest onboarding operation: its one request against the kernel's
/// native reference for the input it was sent (`expected`) and for the
/// zero-filled input a run without input reads (`stale`).
pub fn check_onboard(result: &Result<RunReport, EcallError>, expected: u64, stale: u64) -> Check {
    match result.as_ref().map(|r| r.exit.exit_value()) {
        Ok(Some(v)) if v == expected => Check::Ok,
        Ok(Some(v)) if v == stale => Check::StaleInbox,
        Ok(_) => Check::Wrong,
        Err(_) => Check::Lost,
    }
}

/// The one corpus attack the eliding verifier may accept: it states
/// `VerifierReject` against the non-eliding verifier, but under elision
/// its store is proven in bounds.
pub const PROVEN_IN_BOUNDS: &str = "oversized-frame-store";

/// An attack operation: ok when its containment is the expected one.
/// `install` is the install outcome and `run` the run's report when the
/// binary installed. Accepting a `VerifierReject` attack counts as
/// contained only for [`PROVEN_IN_BOUNDS`], and only when its run halts
/// with no store outside the enclave.
pub fn check_attack(
    name: &str,
    expected: Expected,
    install: &Result<[u8; 32], EcallError>,
    run: Option<&RunReport>,
) -> Check {
    let contained = match (expected, install, run) {
        (Expected::VerifierReject, Err(EcallError::Install(_)), _) => true,
        (Expected::VerifierReject, Ok(_), Some(r)) if name == PROVEN_IN_BOUNDS => {
            matches!(r.exit, RunExit::Halted { .. }) && r.untrusted_writes == 0
        }
        (Expected::RuntimeAbort(code), Ok(_), Some(r)) => r.exit == RunExit::PolicyAbort { code },
        _ => false,
    };
    if contained {
        Check::Ok
    } else {
        Check::Wrong
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Traffic;
    use deflection_sgx_sim::vm::ExecStats;

    fn verdict(exit: u64) -> Verdict {
        Verdict::keep(report(exit), Class::Https)
    }

    fn report(exit: u64) -> RunReport {
        RunReport {
            exit: RunExit::Halted { exit },
            stats: ExecStats::default(),
            records: Vec::new(),
            untrusted_writes: 0,
            blur_padding: 0,
        }
    }

    #[test]
    fn corrupted_verdicts_count_as_failures() {
        let key = [9; 32];
        let mut traffic = Traffic::mix(11);
        let mut tally = Tally::default();
        for _ in 0..60 {
            let req = traffic.next_request();
            let class = traffic.tenants[req.tenant].class;
            if matches!(class, Class::Kv | Class::Seqgen) {
                continue;
            }
            let good = reference(class, &req.payload).unwrap();
            assert_eq!(check_stateless(class, &req.payload, &verdict(good), &key, 0), Check::Ok);
            let bad = check_stateless(class, &req.payload, &verdict(good ^ 1), &key, 0);
            assert_eq!(bad, Check::Wrong);
            tally.add(class.name(), bad);
        }
        assert!(tally.failed() > 0);
        assert_eq!(tally.failed(), tally.attempted());
        assert_eq!(tally.ok(), 0);
        assert!(!tally.correct());
    }

    #[test]
    fn seqgen_records_must_open_under_the_owner_key() {
        // A seqgen exit that matches but comes with no records is wrong.
        let payload = deflection_workloads::encode_ints(&[300, 77]);
        let exit = genome::seqgen_reference(&payload).0;
        let c = check_stateless(Class::Seqgen, &payload, &verdict(exit), &[1; 32], 0);
        assert_eq!(c, Check::Wrong);
    }

    #[test]
    fn kv_verdicts_split_into_ok_known_defect_and_wrong() {
        let req = deflection_workloads::kv::session_request(5, 3);
        let mut long = KvSession::new();
        for i in 0..3 {
            let _ = long.apply(&deflection_workloads::kv::session_request(5, i));
        }
        let want = long.apply(&req);
        let lost = KvSession::new().apply(&req);
        assert_ne!(want, lost);
        let exit = |v| RunExit::Halted { exit: v };
        assert_eq!(check_kv(&exit(want), want, lost), Check::Ok);
        assert_eq!(check_kv(&exit(lost), want, lost), Check::KvStateLost);
        assert_eq!(check_kv(&exit(want ^ lost ^ 7), want, lost), Check::Wrong);
        let mut tally = Tally::default();
        tally.add("kv", Check::KvStateLost);
        assert!(tally.correct(), "the known defect lowers ok_frac, not correctness");
        assert_eq!(tally.ok(), 0);
    }

    #[test]
    fn attack_containment_must_match_the_expectation() {
        use Expected::{RuntimeAbort, VerifierReject};
        let installed: Result<[u8; 32], EcallError> = Ok([0; 32]);
        let not_verified: Result<[u8; 32], EcallError> = Err(EcallError::NotInstalled);
        let mut abort = report(0);
        abort.exit = RunExit::PolicyAbort { code: 3 };
        assert_eq!(check_attack("a", RuntimeAbort(3), &installed, Some(&abort)), Check::Ok);
        assert_eq!(check_attack("a", RuntimeAbort(4), &installed, Some(&abort)), Check::Wrong);
        assert_eq!(check_attack("a", RuntimeAbort(3), &installed, None), Check::Wrong);
        // Rejected for the wrong reason, or accepted and then escaping.
        assert_eq!(check_attack("a", VerifierReject, &not_verified, None), Check::Wrong);
        let (halted, mut escaped) = (report(1), report(1));
        escaped.untrusted_writes = 1;
        let frame = PROVEN_IN_BOUNDS;
        assert_eq!(check_attack(frame, VerifierReject, &installed, Some(&escaped)), Check::Wrong);
        assert_eq!(check_attack(frame, VerifierReject, &installed, Some(&halted)), Check::Ok);
        // Any other reject-expected attack that installs is a verifier
        // failure, even when its run halts cleanly.
        let other = "elision-off-by-one-bound";
        assert_eq!(check_attack(other, VerifierReject, &installed, Some(&halted)), Check::Wrong);
    }

    #[test]
    fn onboard_verdicts_split_into_ok_stale_inbox_and_wrong() {
        let exit = |v| -> Result<RunReport, EcallError> { Ok(report(v)) };
        assert_eq!(check_onboard(&exit(5), 5, 9), Check::Ok);
        assert_eq!(check_onboard(&exit(9), 5, 9), Check::StaleInbox);
        assert_eq!(check_onboard(&exit(7), 5, 9), Check::Wrong);
        assert_eq!(check_onboard(&Err(EcallError::NotInstalled), 5, 9), Check::Lost);
    }
}
