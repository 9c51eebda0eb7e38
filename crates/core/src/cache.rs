//! The verified-call cache: a per-process fast path for repeated
//! authenticated system calls.
//!
//! CMAC is deterministic, so once the kernel has fully verified a tag over a
//! message it may remember the *(message, tag)* pair and later accept the
//! same pair again by byte comparison alone, skipping the AES work. The
//! cache holds three kinds of remembered verifications:
//!
//! * **call entries** — per call site, the encoded-call bytes and the call
//!   MAC that verified (§3.4 step 1);
//! * **blob entries** — per address, the contents and MAC of an
//!   authenticated string / pattern / predecessor set that verified
//!   (§3.4 step 2);
//! * **the state entry** — the exact `lastBlock ‖ lbMAC` bytes the kernel
//!   itself wrote (or verified) most recently, bound to the memory-checker
//!   counter value at that moment (§3.4 step 3).
//!
//! # Soundness
//!
//! The fast path never skips *reading* untrusted memory — it replaces the
//! AES recomputation with a byte comparison against a copy that passed full
//! verification earlier. Any divergence (tampered contents, swapped header,
//! different descriptor, forged MAC) fails the comparison and falls back to
//! the full CMAC path, which then rejects the call exactly as the cold path
//! would. The state entry is additionally bound to the in-kernel counter
//! *epoch*: the counter advances on every control-flow update, so a
//! snapshot of old state bytes can never match a cached entry from a later
//! epoch — replay still dies with `BadPolicyState` in the fallback path.
//! A cached acceptance is therefore exactly the set of inputs the cold path
//! accepts; the cache changes cycle accounting, never the accept set.
//!
//! # Storage
//!
//! Call and blob entries keep their bytes back to back in one arena per
//! cache; an entry is a `(start, len)` span plus its tag. Recording
//! appends, and dropping the whole cache truncates the arena without
//! giving its memory back. Re-recording a key that is present leaves its
//! old bytes behind as garbage, so the arena is bounded: an append that
//! would take it past `capacity × MAX_AS_LEN` bytes clears the cache
//! first, counted as evictions like a capacity clear. A live entry holds
//! at most `MAX_AS_LEN` bytes (an encoded call at most
//! [`MAX_ENCODING_LEN`](crate::encoding::MAX_ENCODING_LEN)), and fewer
//! than `capacity` are live before any append, so only garbage can reach
//! the bound.

use std::collections::{BTreeMap, HashMap};

use asc_crypto::{Mac, MAC_LEN, POLICY_STATE_LEN};

use crate::verify::MAX_AS_LEN;

/// SplitMix64 finalizer: a bijective 64-bit mixer with full avalanche.
///
/// Both the pid → shard map and the fault-target draw need a *deterministic*
/// spread of structured inputs (sequential pids, campaign selectors built
/// from small factors) over a small range. Feeding the raw value into a
/// modulo would concentrate structured inputs on the low indices; mixing
/// first makes every output bit depend on every input bit.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Maps a 64-bit selector onto `[0, bound)` by a widening multiply-shift of
/// the mixed selector (Lemire's method).
///
/// Unlike `selector % bound` this has no low-index pile-up for structured
/// selectors, and the residual non-uniformity for a uniform selector is at
/// most `bound / 2^64` per index — with `bound` never exceeding a few
/// thousand cache entries, that is below `2^-52` and irrelevant for a
/// seeded fault campaign.
#[inline]
fn bounded_draw(selector: u64, bound: usize) -> usize {
    debug_assert!(bound > 0);
    ((u128::from(mix64(selector)) * bound as u128) >> 64) as usize
}

/// The shard a pid's cache namespace lives in, for a family of
/// `shard_count` shards. Pure function of `(pid, shard_count)` — every
/// component (kernel, metrics labels, fleet harness) that needs a pid's
/// shard derives it from here, so the assignment can never drift between
/// layers.
#[inline]
pub fn pid_shard(pid: u32, shard_count: usize) -> usize {
    debug_assert!(shard_count > 0);
    ((u128::from(mix64(u64::from(pid))) * shard_count as u128) >> 64) as usize
}

/// Counters describing how the verified-call cache behaved.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Call-MAC checks served by byte comparison (no AES).
    pub hits: u64,
    /// Call-MAC checks that ran the full CMAC.
    pub misses: u64,
    /// Authenticated-string / pattern / predecessor-set checks served by
    /// byte comparison.
    pub blob_hits: u64,
    /// Policy-state verifications skipped because the kernel wrote the
    /// exact bytes itself in the current counter epoch.
    pub state_hits: u64,
    /// Entries dropped to stay within capacity.
    pub evictions: u64,
    /// Checks that found an entry for the key but whose bytes, tag, or
    /// epoch no longer matched — the graceful degradation path: the entry
    /// is useless (stale or poisoned) and the full CMAC fallback ran.
    pub stale_misses: u64,
    /// State entries dropped because they claimed an *impossible* epoch
    /// (later than the in-kernel counter). The counter never runs behind a
    /// recording, so such an entry can only be corruption; it is scrubbed
    /// rather than trusted or panicked over.
    pub scrubs: u64,
}

/// A remembered `(message, tag)` pair whose message is
/// `arena[start..start + len]`.
#[derive(Clone, Copy, Debug)]
struct Entry {
    start: usize,
    len: usize,
    mac: Mac,
}

#[derive(Clone, Debug)]
struct StateEntry {
    lb_ptr: u32,
    bytes: [u8; POLICY_STATE_LEN],
    epoch: u64,
}

/// Per-process cache of verifications the kernel has already performed.
///
/// One of these lives next to each process's `MemoryChecker`
/// (`asc_crypto::MemoryChecker`) inside the kernel; the untrusted
/// application can influence it only through the memory bytes it presents,
/// which are always re-read and re-compared. See the module docs for the
/// soundness argument.
#[derive(Clone, Debug)]
pub struct VerifyCache {
    calls: HashMap<u32, Entry>,
    blobs: HashMap<u32, Entry>,
    /// The bytes of every call and blob entry (see the module docs).
    arena: Vec<u8>,
    state: Option<StateEntry>,
    capacity: usize,
    stats: CacheStats,
}

impl Default for VerifyCache {
    fn default() -> Self {
        VerifyCache::new()
    }
}

impl VerifyCache {
    /// Default bound on cached call + blob entries.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        VerifyCache::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache bounded to `capacity` call + blob entries (the state
    /// entry is not counted). When an insert would exceed the bound the
    /// whole cache is dropped — crude, but eviction can never be a
    /// soundness question, only a performance one.
    pub fn with_capacity(capacity: usize) -> Self {
        VerifyCache {
            calls: HashMap::new(),
            blobs: HashMap::new(),
            arena: Vec::new(),
            state: None,
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// Checks whether the call MAC for `site` can be accepted from cache:
    /// both the reconstructed encoding and the tag read from user memory
    /// must be byte-identical to the pair that fully verified earlier.
    /// Updates hit/miss statistics.
    pub fn check_call(&mut self, site: u32, encoding: &[u8], mac: &Mac) -> bool {
        let entry = self.calls.get(&site);
        let present = entry.is_some();
        let hit = entry.is_some_and(|e| self.matches(e, mac, encoding));
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            if present {
                self.stats.stale_misses += 1;
            }
        }
        hit
    }

    /// Remembers a call-MAC pair that passed full verification.
    pub fn record_call(&mut self, site: u32, encoding: &[u8], mac: &Mac) {
        let entry = self.append(encoding, mac);
        self.calls.insert(site, entry);
    }

    /// Checks whether an authenticated blob (string / pattern /
    /// predecessor set) at `addr` can be accepted from cache.
    pub fn check_blob(&mut self, addr: u32, mac: &Mac, contents: &[u8]) -> bool {
        let entry = self.blobs.get(&addr);
        let present = entry.is_some();
        let hit = entry.is_some_and(|e| self.matches(e, mac, contents));
        if hit {
            self.stats.blob_hits += 1;
        } else if present {
            self.stats.stale_misses += 1;
        }
        hit
    }

    /// Remembers a blob that passed full verification.
    pub fn record_blob(&mut self, addr: u32, mac: &Mac, contents: &[u8]) {
        let entry = self.append(contents, mac);
        self.blobs.insert(addr, entry);
    }

    /// Checks whether the policy-state cell can be accepted without an AES
    /// verification: the bytes must match what the kernel last wrote or
    /// verified *and* the in-kernel counter must still be at the epoch the
    /// entry was recorded under. A counter advance (any control-flow
    /// update) silently invalidates the entry.
    ///
    /// An entry claiming an epoch *later* than the current counter is
    /// impossible (the counter never runs behind a recording) and can only
    /// mean the entry itself was corrupted; it is scrubbed — dropped and
    /// counted in [`CacheStats::scrubs`] — so verification falls back to
    /// the full cold path instead of consulting poisoned bytes.
    pub fn check_state(&mut self, lb_ptr: u32, bytes: &[u8], epoch: u64) -> bool {
        if self.state.as_ref().is_some_and(|s| s.epoch > epoch) {
            self.state = None;
            self.stats.scrubs += 1;
        }
        let entry = self.state.as_ref();
        let present = entry.is_some();
        let hit =
            entry.is_some_and(|s| s.lb_ptr == lb_ptr && s.epoch == epoch && s.bytes[..] == *bytes);
        if hit {
            self.stats.state_hits += 1;
        } else if present {
            self.stats.stale_misses += 1;
        }
        hit
    }

    /// Remembers the policy-state bytes the kernel just wrote (or fully
    /// verified) at counter value `epoch`.
    pub fn record_state(&mut self, lb_ptr: u32, bytes: [u8; POLICY_STATE_LEN], epoch: u64) {
        self.state = Some(StateEntry {
            lb_ptr,
            bytes,
            epoch,
        });
    }

    /// Drops every entry (key change, exec, policy reload).
    pub fn clear(&mut self) {
        let dropped = (self.calls.len() + self.blobs.len()) as u64;
        self.stats.evictions += dropped;
        self.calls.clear();
        self.blobs.clear();
        self.arena.clear();
        self.state = None;
    }

    /// Cache behaviour counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of call + blob entries currently cached.
    pub fn len(&self) -> usize {
        self.calls.len() + self.blobs.len()
    }

    /// The counter epoch the state entry was recorded under, if one is
    /// held. Isolation tests use this to assert that another process's
    /// kill or cache activity never moved this process's epoch.
    pub fn state_epoch(&self) -> Option<u64> {
        self.state.as_ref().map(|s| s.epoch)
    }

    /// Whether the cache holds no call or blob entries.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty() && self.blobs.is_empty()
    }

    /// Copies `bytes` into the arena for a new entry, first clearing the
    /// cache when it is full or the arena would pass its bound.
    fn append(&mut self, bytes: &[u8], mac: &Mac) -> Entry {
        let arena_bound = self.capacity.saturating_mul(MAX_AS_LEN as usize);
        if self.len() >= self.capacity || self.arena.len() + bytes.len() > arena_bound {
            self.clear();
        }
        let start = self.arena.len();
        self.arena.extend_from_slice(bytes);
        Entry {
            start,
            len: bytes.len(),
            mac: *mac,
        }
    }

    fn matches(&self, entry: &Entry, mac: &Mac, bytes: &[u8]) -> bool {
        entry.mac == *mac && self.arena[entry.start..entry.start + entry.len] == *bytes
    }

    /// Fault-injection hook: XORs `mask` into one byte of one stored entry,
    /// both chosen deterministically from `selector`. Models bit rot or a
    /// kernel bug corrupting the cache itself. Returns the kind of entry
    /// corrupted (`"call"`, `"blob"`, `"state"`), or `None` when the cache
    /// is empty. A corrupted entry must never be *accepted* — the byte
    /// comparison misses and verification falls back to the cold path.
    pub fn corrupt_entry_for_fault(&mut self, selector: u64, mask: u8) -> Option<&'static str> {
        let mask = if mask == 0 { 1 } else { mask };
        let mut call_sites: Vec<u32> = self.calls.keys().copied().collect();
        call_sites.sort_unstable();
        let mut blob_addrs: Vec<u32> = self.blobs.keys().copied().collect();
        blob_addrs.sort_unstable();
        let total = call_sites.len() + blob_addrs.len() + usize::from(self.state.is_some());
        if total == 0 {
            return None;
        }
        let pick = bounded_draw(selector, total);
        let byte_sel = (selector >> 8) as usize;
        let (entry, kind) = if pick < call_sites.len() {
            (self.calls.get_mut(&call_sites[pick]), "call")
        } else if pick - call_sites.len() < blob_addrs.len() {
            let addr = blob_addrs[pick - call_sites.len()];
            (self.blobs.get_mut(&addr), "blob")
        } else {
            let s = self.state.as_mut().expect("counted above");
            s.bytes[byte_sel % POLICY_STATE_LEN] ^= mask;
            return Some("state");
        };
        let e = entry.expect("listed key");
        let i = byte_sel % (e.len + MAC_LEN);
        if i < e.len {
            self.arena[e.start + i] ^= mask;
        } else {
            e.mac[i - e.len] ^= mask;
        }
        Some(kind)
    }

    /// Fault-injection hook: shifts the state entry's recorded epoch
    /// forward by `delta`, making it claim a *future* counter value. The
    /// next [`VerifyCache::check_state`] must scrub it (see
    /// [`CacheStats::scrubs`]) and fall back to cold verification. Returns
    /// `false` when no state entry exists.
    pub fn skew_state_epoch_for_fault(&mut self, delta: u64) -> bool {
        match self.state.as_mut() {
            Some(s) => {
                s.epoch = s.epoch.saturating_add(delta.max(1));
                true
            }
            None => false,
        }
    }
}

/// A pid-keyed family of [`VerifyCache`]s for multi-process kernels.
///
/// The paper's verifier is per-process: the policy-state MAC is keyed by a
/// per-process counter and the kernel maps pid → installed policy. The
/// cache must honour the same boundary — an entry verified under pid A's
/// counter epoch means nothing under pid B's, and a kill or exec of pid A
/// must never invalidate (or worse, *serve*) pid B's entries. Rather than
/// tagging every key with a pid inside one map, each pid gets its own
/// [`VerifyCache`] namespace: cross-pid sharing is then impossible by
/// construction, and dropping a dead pid's entries is O(1) on everyone
/// else.
///
/// A scheduler owns one of these behind `Rc<RefCell<…>>` and hands the
/// handle to every kernel it spawns (`asc_kernel::Kernel::share_cache`);
/// each trap then operates on the calling pid's namespace only.
///
/// # Sharding
///
/// The family is split into [`SharedVerifyCache::DEFAULT_SHARDS`] shards
/// keyed by [`pid_shard`], so a pid-keyed lookup walks a map holding only
/// `live_pids / shards` namespaces: per-call work stays O(1) as the fleet
/// grows instead of O(log N) over every live pid. Sharding is pure routing
/// — a pid's namespace is the same [`VerifyCache`] state machine wherever
/// it lives, so hits, epochs, scrubs, and the accept set are bit-identical
/// to the unsharded family, and isolation proofs reduce to "two distinct
/// pids never alias a namespace", which holds per shard map exactly as it
/// held for the single map.
///
/// Each shard also counts its hot-path *probes* (pid-keyed traversals:
/// [`SharedVerifyCache::pid_cache`], [`SharedVerifyCache::detach_pid`],
/// [`SharedVerifyCache::attach_pid`]). The batched trap path uses
/// detach/attach to touch the shared structure twice per batch window
/// instead of once per call; the probe counters make that amortization
/// measurable without perturbing any per-pid statistic.
#[derive(Clone, Debug)]
pub struct SharedVerifyCache {
    shards: Vec<Shard>,
}

#[derive(Clone, Debug, Default)]
struct Shard {
    caches: BTreeMap<u32, VerifyCache>,
    probes: u64,
}

impl Default for SharedVerifyCache {
    fn default() -> Self {
        SharedVerifyCache::new()
    }
}

impl SharedVerifyCache {
    /// Default shard count. 64 keeps shard maps near-singleton up to a few
    /// hundred pids while bounding per-shard metric cardinality in fleet
    /// runs.
    pub const DEFAULT_SHARDS: usize = 64;

    /// An empty cache family with the default shard count.
    pub fn new() -> SharedVerifyCache {
        SharedVerifyCache::with_shards(Self::DEFAULT_SHARDS)
    }

    /// An empty cache family split into `shards` shards (minimum 1).
    pub fn with_shards(shards: usize) -> SharedVerifyCache {
        SharedVerifyCache {
            shards: vec![Shard::default(); shards.max(1)],
        }
    }

    /// Number of shards in this family.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `pid`'s namespace routes to (see [`pid_shard`]).
    pub fn shard_of(&self, pid: u32) -> usize {
        pid_shard(pid, self.shards.len())
    }

    /// The cache namespace for `pid`, created empty on first use.
    pub fn pid_cache(&mut self, pid: u32) -> &mut VerifyCache {
        let idx = pid_shard(pid, self.shards.len());
        let shard = &mut self.shards[idx];
        shard.probes += 1;
        shard.caches.entry(pid).or_default()
    }

    /// Read-only view of `pid`'s namespace, if it has one.
    pub fn get(&self, pid: u32) -> Option<&VerifyCache> {
        self.shards[self.shard_of(pid)].caches.get(&pid)
    }

    /// Removes `pid`'s namespace from the family and hands it to the
    /// caller, creating it empty on first use exactly like
    /// [`SharedVerifyCache::pid_cache`]. The batched trap path detaches a
    /// pid's namespace once per batch window, drains every queued call
    /// against the local copy, and reattaches on window close — the same
    /// state machine, probed twice per window instead of once per call.
    pub fn detach_pid(&mut self, pid: u32) -> VerifyCache {
        let idx = pid_shard(pid, self.shards.len());
        let shard = &mut self.shards[idx];
        shard.probes += 1;
        shard.caches.remove(&pid).unwrap_or_default()
    }

    /// Returns a namespace taken by [`SharedVerifyCache::detach_pid`].
    pub fn attach_pid(&mut self, pid: u32, cache: VerifyCache) {
        let idx = pid_shard(pid, self.shards.len());
        let shard = &mut self.shards[idx];
        shard.probes += 1;
        shard.caches.insert(pid, cache);
    }

    /// Drops `pid`'s namespace wholesale (kill or exec). Every other pid's
    /// entries — and their epochs and statistics — are untouched.
    pub fn drop_pid(&mut self, pid: u32) {
        let shard = self.shard_of(pid);
        self.shards[shard].caches.remove(&pid);
    }

    /// Behaviour counters for `pid`'s namespace (zero if it has none).
    pub fn pid_stats(&self, pid: u32) -> CacheStats {
        self.get(pid).map(|c| c.stats()).unwrap_or_default()
    }

    /// Behaviour counters summed over every live namespace. Namespaces
    /// dropped by [`SharedVerifyCache::drop_pid`] no longer contribute.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            for cache in shard.caches.values() {
                let s = cache.stats();
                total.hits += s.hits;
                total.misses += s.misses;
                total.blob_hits += s.blob_hits;
                total.state_hits += s.state_hits;
                total.evictions += s.evictions;
                total.stale_misses += s.stale_misses;
                total.scrubs += s.scrubs;
            }
        }
        total
    }

    /// Behaviour counters summed over the namespaces living in one shard.
    pub fn shard_stats(&self, shard: usize) -> CacheStats {
        let mut total = CacheStats::default();
        for cache in self.shards[shard].caches.values() {
            let s = cache.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.blob_hits += s.blob_hits;
            total.state_hits += s.state_hits;
            total.evictions += s.evictions;
            total.stale_misses += s.stale_misses;
            total.scrubs += s.scrubs;
        }
        total
    }

    /// Hot-path probe count for one shard (pid-keyed traversals of that
    /// shard's map; observability only, never part of per-pid outputs).
    pub fn shard_probes(&self, shard: usize) -> u64 {
        self.shards[shard].probes
    }

    /// Hot-path probes summed over all shards.
    pub fn probes(&self) -> u64 {
        self.shards.iter().map(|s| s.probes).sum()
    }

    /// Number of live namespaces in one shard.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.shards[shard].caches.len()
    }

    /// The pids that currently hold a namespace, in ascending order.
    pub fn pids(&self) -> Vec<u32> {
        let mut pids: Vec<u32> = self
            .shards
            .iter()
            .flat_map(|s| s.caches.keys().copied())
            .collect();
        pids.sort_unstable();
        pids
    }

    /// Fault-injection hook: corrupts one entry inside *`pid`'s* namespace
    /// (see [`VerifyCache::corrupt_entry_for_fault`]). Cross-process
    /// campaigns use this to poison a victim pid's entries and then assert
    /// every other pid is bit-identical to its clean run.
    pub fn corrupt_pid_entry_for_fault(
        &mut self,
        pid: u32,
        selector: u64,
        mask: u8,
    ) -> Option<&'static str> {
        let shard = self.shard_of(pid);
        self.shards[shard]
            .caches
            .get_mut(&pid)
            .and_then(|c| c.corrupt_entry_for_fault(selector, mask))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn call_entry_roundtrip() {
        let mut c = VerifyCache::new();
        let mac = [7u8; 16];
        assert!(!c.check_call(0x1000, b"enc", &mac), "empty cache misses");
        c.record_call(0x1000, b"enc", &mac);
        assert!(c.check_call(0x1000, b"enc", &mac));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn call_entry_rejects_any_divergence() {
        let mut c = VerifyCache::new();
        let mac = [7u8; 16];
        c.record_call(0x1000, b"enc", &mac);
        assert!(!c.check_call(0x1004, b"enc", &mac), "different site");
        assert!(!c.check_call(0x1000, b"end", &mac), "different encoding");
        let mut other = mac;
        other[15] ^= 1;
        assert!(!c.check_call(0x1000, b"enc", &other), "different tag");
    }

    #[test]
    fn blob_entry_rejects_tampered_contents() {
        let mut c = VerifyCache::new();
        let mac = [9u8; 16];
        c.record_blob(0x2000, &mac, b"/etc/motd");
        assert!(c.check_blob(0x2000, &mac, b"/etc/motd"));
        assert!(
            !c.check_blob(0x2000, &mac, b"/etc/pass"),
            "rewritten contents"
        );
        assert!(
            !c.check_blob(0x2004, &mac, b"/etc/motd"),
            "different address"
        );
        assert_eq!(c.stats().blob_hits, 1);
    }

    #[test]
    fn state_entry_bound_to_epoch() {
        let mut c = VerifyCache::new();
        let bytes = [3u8; POLICY_STATE_LEN];
        c.record_state(0x3000, bytes, 5);
        assert!(c.check_state(0x3000, &bytes, 5));
        assert!(!c.check_state(0x3000, &bytes, 6), "counter advanced: stale");
        assert!(!c.check_state(0x3004, &bytes, 5), "different cell");
        let mut forged = bytes;
        forged[0] ^= 1;
        assert!(!c.check_state(0x3000, &forged, 5), "different bytes");
        assert_eq!(c.stats().state_hits, 1);
    }

    #[test]
    fn capacity_overflow_clears() {
        let mut c = VerifyCache::with_capacity(2);
        c.record_call(1, b"a", &[0u8; 16]);
        c.record_blob(2, &[0u8; 16], b"b");
        assert_eq!(c.len(), 2);
        c.record_call(3, b"c", &[0u8; 16]);
        assert_eq!(c.len(), 1, "hit capacity: dropped and restarted");
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn clear_drops_everything() {
        let mut c = VerifyCache::new();
        c.record_call(1, b"a", &[0u8; 16]);
        c.record_state(2, [0u8; POLICY_STATE_LEN], 1);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.check_state(2, &[0u8; POLICY_STATE_LEN], 1));
    }

    #[test]
    fn stale_entries_are_counted_as_fallbacks() {
        let mut c = VerifyCache::new();
        c.record_call(0x1000, b"enc", &[7u8; 16]);
        c.record_blob(0x2000, &[9u8; 16], b"/etc/motd");
        c.record_state(0x3000, [3u8; POLICY_STATE_LEN], 5);
        assert!(!c.check_call(0x1000, b"end", &[7u8; 16]));
        assert!(!c.check_blob(0x2000, &[9u8; 16], b"/etc/pass"));
        assert!(!c.check_state(0x3000, &[3u8; POLICY_STATE_LEN], 6));
        assert_eq!(c.stats().stale_misses, 3);
        // A miss with no entry at all is not "stale".
        assert!(!c.check_call(0x9999, b"enc", &[7u8; 16]));
        assert_eq!(c.stats().stale_misses, 3);
    }

    #[test]
    fn future_epoch_state_entry_is_scrubbed() {
        let mut c = VerifyCache::new();
        let bytes = [3u8; POLICY_STATE_LEN];
        c.record_state(0x3000, bytes, 5);
        assert!(c.skew_state_epoch_for_fault(3));
        // Entry now claims epoch 8 while the counter is still 5:
        // impossible — scrubbed, never accepted, cold fallback.
        assert!(!c.check_state(0x3000, &bytes, 5));
        assert_eq!(c.stats().scrubs, 1);
        // The poisoned entry is gone; a fresh recording works again.
        c.record_state(0x3000, bytes, 5);
        assert!(c.check_state(0x3000, &bytes, 5));
    }

    #[test]
    fn corrupted_entries_never_accept() {
        let mut c = VerifyCache::new();
        let mac = [7u8; 16];
        c.record_call(0x1000, b"enc", &mac);
        c.record_blob(0x2000, &mac, b"/etc/motd");
        c.record_state(0x3000, [3u8; POLICY_STATE_LEN], 5);
        let mut kinds = std::collections::BTreeSet::new();
        for sel in 0..64u64 {
            let mut cc = c.clone();
            let kind = cc.corrupt_entry_for_fault(sel * 0x0101, 0x40).unwrap();
            kinds.insert(kind);
            assert!(!cc.check_call(0x1000, b"enc", &mac) || kind != "call");
            assert!(!cc.check_blob(0x2000, &mac, b"/etc/motd") || kind != "blob");
            assert!(
                !cc.check_state(0x3000, &[3u8; POLICY_STATE_LEN], 5) || kind != "state",
                "corrupted state accepted (sel {sel})"
            );
        }
        assert_eq!(kinds.len(), 3, "selector reaches all entry kinds");
        assert_eq!(
            VerifyCache::new().corrupt_entry_for_fault(0, 1),
            None,
            "empty cache has nothing to corrupt"
        );
    }

    #[test]
    fn shared_cache_keeps_pids_apart() {
        let mut shared = SharedVerifyCache::new();
        let mac = [7u8; 16];
        shared.pid_cache(1).record_call(0x1000, b"enc", &mac);
        shared
            .pid_cache(1)
            .record_state(0x3000, [3u8; POLICY_STATE_LEN], 5);
        // pid 2 never sees pid 1's entries, even for identical keys.
        assert!(!shared.pid_cache(2).check_call(0x1000, b"enc", &mac));
        assert!(!shared
            .pid_cache(2)
            .check_state(0x3000, &[3u8; POLICY_STATE_LEN], 5));
        // pid 1's own entries still hit.
        assert!(shared.pid_cache(1).check_call(0x1000, b"enc", &mac));
        assert_eq!(shared.pid_cache(1).state_epoch(), Some(5));
        assert_eq!(shared.pid_cache(2).state_epoch(), None);
    }

    #[test]
    fn shared_cache_drop_pid_is_isolated() {
        let mut shared = SharedVerifyCache::new();
        let mac = [7u8; 16];
        shared.pid_cache(1).record_call(0x1000, b"enc", &mac);
        shared.pid_cache(2).record_call(0x1000, b"enc", &mac);
        shared
            .pid_cache(2)
            .record_state(0x3000, [3u8; POLICY_STATE_LEN], 9);
        shared.drop_pid(1);
        assert!(shared.get(1).is_none(), "pid 1's namespace is gone");
        // pid 2's namespace (entries, epoch, stats) is untouched.
        assert!(shared.pid_cache(2).check_call(0x1000, b"enc", &mac));
        assert_eq!(shared.pid_cache(2).state_epoch(), Some(9));
        assert_eq!(shared.pids(), vec![2]);
    }

    #[test]
    fn shared_cache_corruption_targets_one_pid() {
        let mut shared = SharedVerifyCache::new();
        let mac = [7u8; 16];
        shared.pid_cache(1).record_call(0x1000, b"enc", &mac);
        shared.pid_cache(2).record_call(0x1000, b"enc", &mac);
        assert_eq!(shared.corrupt_pid_entry_for_fault(1, 0, 0x40), Some("call"));
        assert!(
            !shared.pid_cache(1).check_call(0x1000, b"enc", &mac),
            "victim falls back"
        );
        assert!(
            shared.pid_cache(2).check_call(0x1000, b"enc", &mac),
            "bystander still warm"
        );
        assert_eq!(shared.corrupt_pid_entry_for_fault(3, 0, 1), None);
        let agg = shared.stats();
        assert_eq!(agg.hits, 1);
        assert_eq!(agg.stale_misses, 1);
    }

    /// Two pids that map to the same shard, found by scanning upward from
    /// pid 1 under the default shard count.
    fn same_shard_pair() -> (u32, u32) {
        let first = 1u32;
        let shard = pid_shard(first, SharedVerifyCache::DEFAULT_SHARDS);
        let second = (2..)
            .find(|&p| pid_shard(p, SharedVerifyCache::DEFAULT_SHARDS) == shard)
            .expect("some pid shares shard 0's slot");
        (first, second)
    }

    /// Two pids that map to different shards.
    fn cross_shard_pair() -> (u32, u32) {
        let first = 1u32;
        let shard = pid_shard(first, SharedVerifyCache::DEFAULT_SHARDS);
        let second = (2..)
            .find(|&p| pid_shard(p, SharedVerifyCache::DEFAULT_SHARDS) != shard)
            .expect("pids spread over more than one shard");
        (first, second)
    }

    #[test]
    fn pid_shard_is_deterministic_total_and_spread() {
        for shards in [1usize, 3, 64, 1024] {
            for pid in 1..=2048u32 {
                let s = pid_shard(pid, shards);
                assert!(s < shards);
                assert_eq!(s, pid_shard(pid, shards), "pure function of (pid, count)");
            }
        }
        // Sequential pids do not pile onto one shard: 256 pids over 64
        // shards must populate a healthy majority of them.
        let used: std::collections::BTreeSet<usize> =
            (1..=256u32).map(|p| pid_shard(p, 64)).collect();
        assert!(used.len() >= 48, "only {} shards used", used.len());
    }

    #[test]
    fn bounded_draw_spreads_structured_selectors() {
        // The old `selector % total` sent the campaign's structured
        // selectors (small multiples) disproportionately to low indices.
        // The mixed draw must stay in range and reach every index from a
        // modest structured sweep.
        let bound = 7usize;
        let mut seen = std::collections::BTreeSet::new();
        for sel in 0..64u64 {
            let pick = bounded_draw(sel * 0x0101, bound);
            assert!(pick < bound);
            assert_eq!(pick, bounded_draw(sel * 0x0101, bound));
            seen.insert(pick);
        }
        assert_eq!(seen.len(), bound, "structured selectors reach all indices");
    }

    #[test]
    fn shared_cache_routes_pids_by_shard_and_lists_all() {
        let mut shared = SharedVerifyCache::new();
        assert_eq!(shared.shard_count(), SharedVerifyCache::DEFAULT_SHARDS);
        for pid in 1..=200u32 {
            shared
                .pid_cache(pid)
                .record_call(0x1000 + pid, b"enc", &[7u8; 16]);
        }
        assert_eq!(shared.pids(), (1..=200).collect::<Vec<u32>>());
        let per_shard: usize = (0..shared.shard_count()).map(|s| shared.shard_len(s)).sum();
        assert_eq!(per_shard, 200, "every namespace lives in exactly one shard");
        for pid in 1..=200u32 {
            assert_eq!(
                shared.shard_of(pid),
                pid_shard(pid, SharedVerifyCache::DEFAULT_SHARDS)
            );
            assert!(shared.get(pid).is_some());
        }
    }

    #[test]
    fn same_shard_neighbours_stay_isolated() {
        let (a, b) = same_shard_pair();
        assert_eq!(
            pid_shard(a, SharedVerifyCache::DEFAULT_SHARDS),
            pid_shard(b, SharedVerifyCache::DEFAULT_SHARDS)
        );
        let mac = [7u8; 16];
        let mut shared = SharedVerifyCache::new();
        // Capacity eviction in a's namespace never touches b's entries.
        *shared.pid_cache(a) = VerifyCache::with_capacity(2);
        shared.pid_cache(b).record_call(0x1000, b"keep", &mac);
        shared
            .pid_cache(b)
            .record_state(0x3000, [3u8; POLICY_STATE_LEN], 9);
        for site in 0..3u32 {
            shared.pid_cache(a).record_call(site, b"spam", &mac);
        }
        assert!(shared.pid_stats(a).evictions > 0, "a overflowed");
        assert!(shared.pid_cache(b).check_call(0x1000, b"keep", &mac));
        assert_eq!(shared.pid_cache(b).state_epoch(), Some(9));
        // Epoch scrub in a's namespace is scoped to a.
        shared
            .pid_cache(a)
            .record_state(0x3000, [1u8; POLICY_STATE_LEN], 4);
        assert!(shared.pid_cache(a).skew_state_epoch_for_fault(5));
        assert!(!shared
            .pid_cache(a)
            .check_state(0x3000, &[1u8; POLICY_STATE_LEN], 4));
        assert_eq!(shared.pid_stats(a).scrubs, 1);
        assert_eq!(shared.pid_stats(b).scrubs, 0);
        assert_eq!(shared.pid_cache(b).state_epoch(), Some(9));
        // Dropping a (kill / set_key) leaves its shard neighbour whole.
        shared.drop_pid(a);
        assert!(shared.get(a).is_none());
        assert!(shared.pid_cache(b).check_call(0x1000, b"keep", &mac));
        assert_eq!(shared.pids(), vec![b]);
    }

    #[test]
    fn cross_shard_pids_stay_isolated() {
        let (a, b) = cross_shard_pair();
        let mac = [7u8; 16];
        let mut shared = SharedVerifyCache::new();
        shared.pid_cache(a).record_call(0x1000, b"enc", &mac);
        shared.pid_cache(b).record_call(0x1000, b"enc", &mac);
        shared.drop_pid(a);
        assert!(shared.get(a).is_none());
        assert!(shared.pid_cache(b).check_call(0x1000, b"enc", &mac));
        let agg = shared.stats();
        assert_eq!(agg.hits, 1);
        assert_eq!(
            shared.shard_stats(shared.shard_of(b)).hits,
            1,
            "hit attributed to b's shard"
        );
        assert_eq!(shared.shard_stats(shared.shard_of(a)).hits, 0);
    }

    #[test]
    fn detach_attach_roundtrip_preserves_namespace() {
        let mut shared = SharedVerifyCache::new();
        let mac = [7u8; 16];
        shared.pid_cache(3).record_call(0x1000, b"enc", &mac);
        shared
            .pid_cache(3)
            .record_state(0x3000, [3u8; POLICY_STATE_LEN], 5);
        let probes_before = shared.probes();
        let mut local = shared.detach_pid(3);
        assert!(shared.get(3).is_none(), "namespace left the family");
        assert!(local.check_call(0x1000, b"enc", &mac));
        local.record_blob(0x2000, &mac, b"/etc/motd");
        shared.attach_pid(3, local);
        assert_eq!(
            shared.probes() - probes_before,
            2,
            "one detach + one attach"
        );
        assert!(shared.pid_cache(3).check_blob(0x2000, &mac, b"/etc/motd"));
        assert_eq!(shared.pid_cache(3).state_epoch(), Some(5));
        // Detaching a pid with no namespace yields a fresh one, exactly
        // like pid_cache's create-on-first-use.
        let fresh = shared.detach_pid(99);
        assert!(fresh.is_empty());
        shared.attach_pid(99, fresh);
        assert_eq!(shared.pids(), vec![3, 99]);
    }

    #[test]
    fn prop_counter_bump_invalidates_state_entry() {
        asc_testkit::check(0x5EED_0CAC, 200, |rng| {
            let mut c = VerifyCache::new();
            let epoch = rng.range_u64(0, 1 << 40);
            let ptr = rng.next_u32();
            let mut bytes = [0u8; POLICY_STATE_LEN];
            for b in bytes.iter_mut() {
                *b = rng.byte();
            }
            c.record_state(ptr, bytes, epoch);
            assert!(c.check_state(ptr, &bytes, epoch), "same epoch: hit");
            let bumped = epoch + rng.range_u64(1, 64);
            assert!(
                !c.check_state(ptr, &bytes, bumped),
                "any counter bump invalidates the entry"
            );
        });
    }

    #[test]
    fn prop_warm_accepts_exactly_the_recorded_pairs() {
        // Model check: under random interleavings of record / check /
        // epoch-bump, a cache hit occurs exactly when the same (key,
        // bytes, tag) tuple was recorded since the last clear and (for
        // state) the epoch is unchanged. Since only cold-verified pairs are
        // ever recorded, this makes the warm accept set equal to the cold
        // one. At capacity 3 the shadow model also drops everything before
        // any record that finds the cache full, re-records of a present key
        // included, and every counter must follow it.
        for capacity in [VerifyCache::DEFAULT_CAPACITY, 3] {
            asc_testkit::check(0x5EED_ACCE, 300, |rng| {
                let sites = [0x1000u32, 0x1008, 0x1010];
                let encs: [&[u8]; 3] = [b"alpha", b"bravo", b"charlie"];
                let macs = [[1u8; 16], [2u8; 16], [3u8; 16]];
                let ptrs = [0x3000u32, 0x3004];
                let mut shadow_calls: HashMap<u32, (Vec<u8>, Mac)> = HashMap::new();
                let mut shadow_blobs: HashMap<u32, (Vec<u8>, Mac)> = HashMap::new();
                let mut shadow_state: Option<(u32, [u8; POLICY_STATE_LEN], u64)> = None;
                let mut shadow_stats = CacheStats::default();
                let mut epoch = 0u64;
                let mut c = VerifyCache::with_capacity(capacity);
                for _ in 0..rng.range_usize(1, 40) {
                    let op = rng.range_u32(0, 8);
                    let live = shadow_calls.len() + shadow_blobs.len();
                    if matches!(op, 0 | 1 | 3) && live >= capacity {
                        // Every record into a full cache drops it first.
                        shadow_stats.evictions += live as u64;
                        shadow_calls.clear();
                        shadow_blobs.clear();
                        shadow_state = None;
                    }
                    match op {
                        0 | 1 => {
                            let (s, e, m) = (*rng.pick(&sites), *rng.pick(&encs), *rng.pick(&macs));
                            c.record_call(s, e, &m);
                            shadow_calls.insert(s, (e.to_vec(), m));
                        }
                        2 => {
                            let (s, e, m) = (*rng.pick(&sites), *rng.pick(&encs), *rng.pick(&macs));
                            let present = shadow_calls.contains_key(&s);
                            let expect = shadow_calls.get(&s) == Some(&(e.to_vec(), m));
                            shadow_stats.hits += u64::from(expect);
                            shadow_stats.misses += u64::from(!expect);
                            shadow_stats.stale_misses += u64::from(present && !expect);
                            assert_eq!(c.check_call(s, e, &m), expect, "call accept set diverged");
                        }
                        3 => {
                            let (a, e, m) = (*rng.pick(&ptrs), *rng.pick(&encs), *rng.pick(&macs));
                            c.record_blob(a, &m, e);
                            shadow_blobs.insert(a, (e.to_vec(), m));
                        }
                        4 => {
                            let (a, e, m) = (*rng.pick(&ptrs), *rng.pick(&encs), *rng.pick(&macs));
                            let present = shadow_blobs.contains_key(&a);
                            let expect = shadow_blobs.get(&a) == Some(&(e.to_vec(), m));
                            shadow_stats.blob_hits += u64::from(expect);
                            shadow_stats.stale_misses += u64::from(present && !expect);
                            assert_eq!(c.check_blob(a, &m, e), expect, "blob accept set diverged");
                        }
                        5 => {
                            let ptr = *rng.pick(&ptrs);
                            let bytes = [rng.byte(); POLICY_STATE_LEN];
                            c.record_state(ptr, bytes, epoch);
                            shadow_state = Some((ptr, bytes, epoch));
                        }
                        6 => {
                            // The in-kernel counter advances (control-flow
                            // update): every older state recording is stale.
                            epoch += rng.range_u64(1, 4);
                        }
                        _ => {
                            let ptr = *rng.pick(&ptrs);
                            let bytes = shadow_state.map_or([0u8; POLICY_STATE_LEN], |(_, b, _)| b);
                            let expect = shadow_state == Some((ptr, bytes, epoch));
                            let present = shadow_state.is_some();
                            shadow_stats.state_hits += u64::from(expect);
                            shadow_stats.stale_misses += u64::from(present && !expect);
                            assert_eq!(
                                c.check_state(ptr, &bytes, epoch),
                                expect,
                                "state accept set diverged"
                            );
                        }
                    }
                    assert_eq!(c.stats(), shadow_stats, "counters diverged");
                    assert_eq!(c.len(), shadow_calls.len() + shadow_blobs.len());
                }
            });
        }
    }

    #[test]
    fn re_recording_one_key_keeps_the_arena_bounded() {
        // Every re-record of a present key strands its old bytes; the
        // arena bound clears them before they pass `capacity × MAX_AS_LEN`.
        let (mac, long) = ([5u8; 16], vec![1u8; MAX_AS_LEN as usize]);
        let mut c = VerifyCache::new();
        for i in 0..10_000 {
            let bytes: &[u8] = if i % 2 == 0 { &long } else { b"/etc/motd" };
            c.record_blob(0x2000, &mac, bytes);
            assert!(c.arena.len() <= c.capacity * MAX_AS_LEN as usize);
            assert_eq!(c.len(), 1);
        }
        assert!(c.check_blob(0x2000, &mac, b"/etc/motd"));
        // The bound fired, and each clear counted the one live entry.
        assert!(c.stats().evictions > 1);
    }
}
