//! An authenticated dictionary for capability-tracking policies (§5.3).
//!
//! Capability tracking needs, per process, the set of currently active file
//! descriptors returned by `open`/`socket`-like calls. As with the
//! control-flow policy state, the set itself lives in untrusted memory while
//! the kernel holds only a counter nonce; a MAC over `contents ‖ counter`
//! makes tampering and replay detectable. This is the "more efficient
//! implementation based on authenticated dictionaries" the paper sketches,
//! realised as a MAC-authenticated sorted set.

use crate::cmac::Mac;
use crate::key::MacKey;
use crate::set::SortedSet;

/// A set of `u32` capabilities (file descriptors) stored in untrusted memory.
///
/// The serialised form is [`SortedSet::to_bytes`]: `count (4 bytes LE) ‖
/// sorted values (4 bytes LE each)`; the accompanying [`Mac`] covers that
/// serialisation concatenated with the kernel-held counter.
pub type CapabilitySet = SortedSet<u32>;

/// The trusted side of the authenticated dictionary: counter plus MAC
/// computation, analogous to [`crate::memcheck::MemoryChecker`].
#[derive(Debug, Default)]
pub struct AuthDict {
    counter: u64,
}

fn dict_message(contents: &[u8], counter: u64) -> Vec<u8> {
    let mut msg = Vec::with_capacity(contents.len() + 8);
    msg.extend_from_slice(contents);
    msg.extend_from_slice(&counter.to_le_bytes());
    msg
}

impl AuthDict {
    /// A fresh dictionary with counter 0.
    pub fn new() -> Self {
        AuthDict::default()
    }

    /// Current counter value.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// MAC for the initial (empty) set at counter 0.
    pub fn initial_mac(key: &MacKey) -> Mac {
        key.mac(&dict_message(&CapabilitySet::new().to_bytes(), 0))
    }

    /// Verifies a set read from untrusted memory against the counter.
    pub fn verify(&self, key: &MacKey, set: &CapabilitySet, mac: &Mac) -> bool {
        key.verify(&dict_message(&set.to_bytes(), self.counter), mac)
    }

    /// Advances the counter and produces the MAC for the updated set.
    pub fn update(&mut self, key: &MacKey, set: &CapabilitySet) -> Mac {
        self.counter += 1;
        key.mac(&dict_message(&set.to_bytes(), self.counter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MacKey {
        MacKey::from_seed(5)
    }

    #[test]
    fn open_close_lifecycle() {
        let k = key();
        let mut dict = AuthDict::new();
        let mut set = CapabilitySet::new();
        let mut mac = AuthDict::initial_mac(&k);
        assert!(dict.verify(&k, &set, &mac));

        // open() returns fd 4: kernel verifies, inserts, re-MACs.
        set.insert(4);
        mac = dict.update(&k, &set);
        assert!(dict.verify(&k, &set, &mac));
        assert!(set.contains(4));

        // read(4) passes the capability check; read(5) would not.
        assert!(!set.contains(5));

        // close(4), then replaying the pre-close state must fail.
        let old_mac = mac;
        let old_set = set.clone();
        set.remove(4);
        mac = dict.update(&k, &set);
        assert!(dict.verify(&k, &set, &mac));
        assert!(!dict.verify(&k, &old_set, &old_mac));
    }

    #[test]
    fn forged_membership_fails() {
        let k = key();
        let mut dict = AuthDict::new();
        let mut set = CapabilitySet::new();
        set.insert(4);
        let mac = dict.update(&k, &set);
        set.insert(7); // attacker sneaks in fd 7 without the kernel
        assert!(!dict.verify(&k, &set, &mac));
    }
}
