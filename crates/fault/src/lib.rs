//! # nv-fault — deterministic fault injection for robustness testing
//!
//! The synthesis pipeline has named **injection points** (sites) in the SQL
//! parser (`sql.parse`), the query executor (`data.exec`) and the chart
//! filter (`synth.filter`). In production nothing is armed and every site is
//! a single relaxed atomic load. A test arms a [`FaultPlan`] — a seed plus
//! per-site failure probabilities — and each site then fails
//! **deterministically**: the fire/no-fire decision is a pure hash of
//! `(plan seed, site name, content key)`, so it does not depend on thread
//! scheduling, call counts, or wall clock. The same plan over the same
//! corpus fails the same pairs on every run and for any worker count, which
//! is what lets the integration harness assert exact quarantine accounting
//! and bit-identical clean-pair output.
//!
//! Sites choose their failure style: the parser and executor return typed
//! errors, while the filter site *panics* — exercising the pipeline's
//! `catch_unwind` isolation rather than its error routing.
//!
//! ```
//! let plan = nv_fault::FaultPlan::new(7).site("sql.parse", 0.5);
//! let guard = nv_fault::arm_scoped(plan);
//! let fired = nv_fault::fire("sql.parse", nv_fault::key_str("SELECT 1"));
//! // Deterministic: the same (seed, site, key) always gives the same answer.
//! assert_eq!(fired, nv_fault::fire("sql.parse", nv_fault::key_str("SELECT 1")));
//! drop(guard); // disarms
//! assert!(!nv_fault::armed());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::RwLock;

/// A seeded injection plan: per-site failure probabilities.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub seed: u64,
    sites: Vec<(String, f64)>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, sites: Vec::new() }
    }

    /// Add (or override) a site with a failure probability in `[0, 1]`.
    pub fn site(mut self, name: &str, probability: f64) -> FaultPlan {
        self.sites.retain(|(n, _)| n != name);
        self.sites.push((name.to_string(), probability.clamp(0.0, 1.0)));
        self
    }

    fn probability(&self, name: &str) -> Option<f64> {
        self.sites
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, p)| *p)
    }
}

static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<FaultPlan>> = RwLock::new(None);

/// Arm a plan globally. Tests must serialize access (use [`arm_scoped`] and
/// keep armed scenarios in one test, or guard with a mutex): the plan is
/// process-wide.
pub fn arm(plan: FaultPlan) {
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = Some(plan);
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarm all sites. Safe to call when already disarmed.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
    *PLAN.write().unwrap_or_else(|e| e.into_inner()) = None;
}

/// RAII guard from [`arm_scoped`]: disarms on drop (including on panic).
pub struct ArmGuard(());

impl Drop for ArmGuard {
    fn drop(&mut self) {
        disarm();
    }
}

/// Arm a plan for the lifetime of the returned guard.
pub fn arm_scoped(plan: FaultPlan) -> ArmGuard {
    arm(plan);
    ArmGuard(())
}

/// Is any plan armed? This is the only cost a production (disarmed) call
/// path pays: one relaxed atomic load.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// 64-bit FNV-1a, the workspace's one content digest: fault-site keys,
/// the synthesizer's per-pair digests, the differential generator's case
/// digests and the model's parameter checksum all feed it. The bits are
/// pinned by goldens and tests, so the constants and the byte order of
/// [`u64`](Fnv::u64) never change.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold in raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold in a value as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold in a string prefixed by its length, so consecutive strings
    /// cannot run into each other.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a hash of a string's bytes (no length prefix) — the canonical way
/// for a site to derive its content key (e.g. from the SQL text or a
/// candidate's VQL).
pub fn key_str(s: &str) -> u64 {
    let mut h = Fnv::default();
    h.bytes(s.as_bytes());
    h.finish()
}

/// splitmix64 finalizer — decorrelates the combined (seed, site, key) hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Should the site fail for this content key? Pure in (armed plan, site,
/// key); always `false` when disarmed or the site is not in the plan.
pub fn fire(site: &str, key: u64) -> bool {
    if !armed() {
        return false;
    }
    let guard = PLAN.read().unwrap_or_else(|e| e.into_inner());
    let Some(plan) = guard.as_ref() else { return false };
    let Some(p) = plan.probability(site) else { return false };
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    let h = mix(plan.seed ^ key_str(site).rotate_left(17) ^ key);
    // Map the hash to [0, 1) and compare against the probability.
    (h >> 11) as f64 / ((1u64 << 53) as f64) < p
}

/// Panic with a recognizable message if the site fires — for sites that
/// test `catch_unwind` isolation rather than error routing.
pub fn panic_if(site: &str, key: u64) {
    if fire(site, key) {
        panic!("injected fault at {site}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The plan is process-global; serialize the tests that arm it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_never_fires() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        assert!(!armed());
        assert!(!fire("sql.parse", 123));
    }

    #[test]
    fn deterministic_and_probability_shaped() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _g = arm_scoped(FaultPlan::new(99).site("s", 0.3).site("never", 0.0).site("always", 1.0));
        let fired: Vec<bool> = (0..2000).map(|k| fire("s", k)).collect();
        let again: Vec<bool> = (0..2000).map(|k| fire("s", k)).collect();
        assert_eq!(fired, again, "decisions must be pure in (seed, site, key)");
        let rate = fired.iter().filter(|b| **b).count() as f64 / 2000.0;
        assert!((0.2..0.4).contains(&rate), "rate {rate} not ~0.3");
        assert!((0..500).all(|k| !fire("never", k)));
        assert!((0..500).all(|k| fire("always", k)));
        assert!((0..500).all(|k| !fire("unplanned", k)));
    }

    #[test]
    fn sites_decorrelated_and_seed_sensitive() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _g = arm_scoped(FaultPlan::new(1).site("a", 0.5).site("b", 0.5));
        let a: Vec<bool> = (0..1000).map(|k| fire("a", k)).collect();
        let b: Vec<bool> = (0..1000).map(|k| fire("b", k)).collect();
        assert_ne!(a, b, "different sites must not share decisions");
        drop(_g);
        let _g = arm_scoped(FaultPlan::new(2).site("a", 0.5));
        let a2: Vec<bool> = (0..1000).map(|k| fire("a", k)).collect();
        assert_ne!(a, a2, "different seeds must differ");
    }

    #[test]
    fn guard_disarms_on_drop() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        {
            let _g = arm_scoped(FaultPlan::new(5).site("x", 1.0));
            assert!(armed());
            assert!(fire("x", 0));
        }
        assert!(!armed());
        assert!(!fire("x", 0));
    }

    #[test]
    fn panic_if_panics_only_when_armed() {
        let _l = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        panic_if("x", 0); // no-op
        let _g = arm_scoped(FaultPlan::new(5).site("x", 1.0));
        let r = std::panic::catch_unwind(|| panic_if("x", 0));
        let msg = match r {
            Err(p) => p
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default(),
            Ok(()) => panic!("expected an injected panic"),
        };
        assert!(msg.contains("injected fault at x"), "{msg}");
    }

    #[test]
    fn key_str_is_stable_fnv() {
        assert_eq!(key_str(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(key_str("SELECT 1"), key_str("SELECT 2"));
        // Published FNV-1a 64 test vectors.
        assert_eq!(key_str("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(key_str("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_words_are_little_endian_and_strings_length_prefixed() {
        let mut a = Fnv::default();
        a.u64(0x0102);
        a.str("ab");
        let mut b = Fnv::default();
        b.bytes(&[2, 1, 0, 0, 0, 0, 0, 0]);
        b.bytes(&[2, 0, 0, 0, 0, 0, 0, 0]);
        b.bytes(b"ab");
        assert_eq!(a.finish(), b.finish());
        let (mut x, mut y) = (Fnv::default(), Fnv::default());
        x.str("ab");
        x.str("c");
        y.str("a");
        y.str("bc");
        assert_ne!(x.finish(), y.finish());
    }
}
