//! Kernel-side system call checking (§3.4).
//!
//! [`verify_call`] implements the three checks the paper adds to the trap
//! handler — call MAC, authenticated-string integrity, control flow — plus
//! the §5 extensions (patterns with proof hints, capability bits). It is
//! written against the small [`UserMemory`] abstraction so it can be tested
//! exhaustively here and reused verbatim by the simulated kernel.
//!
//! Like the paper's check, it works on the process's memory in place:
//! [`UserMemory`] lends the bytes it reads instead of copying them, the
//! encoded call is built in a fixed buffer
//! ([`Encoding`](crate::encoding::Encoding)), and the predecessor set is
//! scanned where it lies. Only a pattern argument's parse and a recording
//! meter allocate; the verified-call cache copies bytes, into its arena,
//! when it records a miss.
//!
//! The function also *meters* the cryptographic work it performs
//! ([`VerifyOutcome::aes_blocks`]): the kernel's cycle model charges
//! verification cost from these counts, which is how the simulator
//! reproduces the paper's ≈4,000-cycle per-call overhead from first
//! principles instead of hard-coding it. The counts are *measured* — the
//! key's AES block counter is snapshotted around the verification — so a
//! call the verified-call cache serves is charged only for the blocks it
//! actually ran.

use asc_crypto::{MacKey, MemoryChecker, PolicyState, MAC_LEN, POLICY_STATE_LEN};
use asc_trace::{CacheDecision, CallMeter, CheckKind, CheckRecord, ReasonCode};

use crate::cache::{CacheStats, VerifyCache};
use crate::descriptor::PolicyDescriptor;
use crate::encoding::{encode_call, EncodedArg, EncodedCall};
use crate::pattern::Pattern;
use crate::policy::MAX_ARGS;

/// Longest string / predecessor set / pattern the kernel will read from
/// user space (defence against the attacker-chosen-length DoS of §3.2).
pub const MAX_AS_LEN: u32 = 4096;

/// Header bytes preceding the contents of an authenticated string in
/// memory: `len (4)` + `mac (16)`.
const AS_HEADER: u32 = 20;

/// Most proof-hint words one pattern argument may supply.
const MAX_HINT_WORDS: u32 = 64;

/// The register file of an authenticated call, as seen by the trap handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuthCallRegs {
    /// `R0`: system call number.
    pub nr: u32,
    /// The PC of the `syscall` instruction (the kernel derives this from
    /// the trap, not from a register — it cannot be forged).
    pub call_site: u32,
    /// `R1..=R6`: the ordinary arguments.
    pub args: [u32; MAX_ARGS],
    /// `R7`: the policy descriptor.
    pub pol_des: u32,
    /// `R8`: the basic block id of this call.
    pub block_id: u32,
    /// `R9`: pointer to the predecessor-set AS contents.
    pub pred_set_ptr: u32,
    /// `R10`: pointer to the policy-state cell (`lastBlock ‖ lbMAC`).
    pub lb_ptr: u32,
    /// `R11`: pointer to the 16-byte call MAC.
    pub call_mac_ptr: u32,
    /// `R12`: pointer to the pattern extras block (pattern AS pointers and
    /// proof hints), 0 when no pattern arguments exist.
    pub hint_ptr: u32,
}

/// Read/write access to the trapping process's memory.
pub trait UserMemory {
    /// Reads a 32-bit little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::MemoryFault`] if the address is not mapped.
    fn read_u32(&self, addr: u32) -> Result<u32, Violation>;

    /// Lends the `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::MemoryFault`] if the range is not mapped.
    fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], Violation>;

    /// Writes bytes (used for the policy-state update).
    ///
    /// # Errors
    ///
    /// Returns [`Violation::MemoryFault`] if the range is not mapped.
    fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Violation>;

    /// Lends a NUL-terminated string of at most `max` bytes, without the
    /// terminator. The default scans byte by byte through
    /// [`UserMemory::read_bytes`], so a fault names what the first
    /// unreadable byte's read names; an override must answer the same.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::MemoryFault`] on unmapped memory or a missing
    /// terminator.
    fn read_cstr(&self, addr: u32, max: u32) -> Result<&[u8], Violation> {
        for i in 0..max {
            if self.read_bytes(addr.wrapping_add(i), 1)?[0] == 0 {
                return self.read_bytes(addr, i);
            }
        }
        Err(Violation::MemoryFault {
            addr: addr.wrapping_add(max),
        })
    }
}

/// Why the kernel rejected a system call. Any of these terminates the
/// process (the paper's fail-stop behaviour) and is logged for the
/// administrator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The call MAC did not match the encoded call: the call was forged or
    /// some MAC-covered property (number, site, descriptor, constrained
    /// argument, AS tuple, block id, state pointer) was tampered with.
    BadCallMac,
    /// The policy descriptor carries conflicting constraint kinds.
    BadDescriptor,
    /// An authenticated string argument's contents did not match its MAC
    /// (e.g. the non-control-data attack that rewrites `/bin/ls` into
    /// `/bin/sh`).
    BadStringMac {
        /// Index of the offending argument.
        arg: usize,
    },
    /// A string/pattern/predecessor-set length field exceeded
    /// [`MAX_AS_LEN`].
    StringTooLong {
        /// Index of the offending argument (`usize::MAX` for the
        /// predecessor set).
        arg: usize,
    },
    /// The pattern AS failed verification or did not parse.
    BadPattern {
        /// Index of the offending argument.
        arg: usize,
    },
    /// The argument did not match its pattern under the supplied hint.
    PatternMismatch {
        /// Index of the offending argument.
        arg: usize,
    },
    /// The predecessor-set bytes were not a whole number of block ids.
    MalformedPredecessorSet,
    /// The policy-state MAC (`lbMAC`) did not verify against the in-kernel
    /// counter: the state was tampered with or replayed.
    BadPolicyState,
    /// `lastBlock` was not in the predecessor set: the program executed
    /// system calls in an order its call graph does not allow (mimicry /
    /// Frankenstein attacks land here).
    NotInPredecessorSet {
        /// The (authentic) last block observed.
        last_block: u32,
    },
    /// A capability-tracked argument was not an active capability.
    CapabilityViolation {
        /// Index of the offending argument.
        arg: usize,
        /// The file descriptor presented.
        fd: u32,
    },
    /// User memory could not be read/written where the call claimed data
    /// lived.
    MemoryFault {
        /// The faulting address.
        addr: u32,
    },
    /// The `(last syscall, this syscall)` transition is not an edge of the
    /// installed syscall-flow digraph (the SFIP tier's check): system
    /// calls executed in an order the program's call graph never produces.
    BadFlowEdge {
        /// Syscall number of the previously verified call
        /// ([`crate::flow::FLOW_START`] at program start).
        from: u16,
        /// Raw trapped syscall number of this call.
        to: u16,
    },
    /// The trap originated from a pc the installer never rewrote: the
    /// `SYSCALL` instruction is a raw gadget outside the authenticated
    /// site set (`.ascsites`), so no per-call policy even exists for it.
    /// Killed before the MAC path — `SYSCALL` is a privilege of rewritten
    /// sites, not a right of arbitrary code.
    UnrewrittenSite {
        /// The pc of the trapping `SYSCALL` instruction.
        pc: u32,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::BadCallMac => write!(f, "call MAC mismatch"),
            Violation::BadDescriptor => write!(f, "malformed policy descriptor"),
            Violation::BadStringMac { arg } => write!(f, "string MAC mismatch on argument {arg}"),
            Violation::StringTooLong { arg } if *arg == usize::MAX => {
                write!(f, "oversized predecessor set")
            }
            Violation::StringTooLong { arg } => write!(f, "oversized string on argument {arg}"),
            Violation::BadPattern { arg } => write!(f, "bad pattern on argument {arg}"),
            Violation::PatternMismatch { arg } => write!(f, "pattern mismatch on argument {arg}"),
            Violation::MalformedPredecessorSet => write!(f, "malformed predecessor set"),
            Violation::BadPolicyState => write!(f, "policy state MAC mismatch"),
            Violation::NotInPredecessorSet { last_block } => {
                write!(
                    f,
                    "control-flow violation: last block {last_block} not a predecessor"
                )
            }
            Violation::CapabilityViolation { arg, fd } => {
                write!(f, "capability violation: argument {arg} fd {fd} not active")
            }
            Violation::MemoryFault { addr } => write!(f, "memory fault at {addr:#x}"),
            Violation::BadFlowEdge { from, to } => {
                write!(
                    f,
                    "flow violation: syscall transition {from} -> {to} not in digraph"
                )
            }
            Violation::UnrewrittenSite { pc } => {
                write!(f, "origin violation: trap from unrewritten site {pc:#x}")
            }
        }
    }
}

impl std::error::Error for Violation {}

impl Violation {
    /// The machine-readable [`ReasonCode`] for this violation (argument
    /// details folded away) — what campaigns and tests classify on instead
    /// of substring-matching the [`Display`](std::fmt::Display) rendering.
    pub fn reason_code(&self) -> ReasonCode {
        match self {
            Violation::BadCallMac => ReasonCode::BadCallMac,
            Violation::BadDescriptor => ReasonCode::BadDescriptor,
            Violation::BadStringMac { .. } => ReasonCode::BadStringMac,
            Violation::StringTooLong { arg } if *arg == usize::MAX => {
                ReasonCode::OversizedPredecessorSet
            }
            Violation::StringTooLong { .. } => ReasonCode::StringTooLong,
            Violation::BadPattern { .. } => ReasonCode::BadPattern,
            Violation::PatternMismatch { .. } => ReasonCode::PatternMismatch,
            Violation::MalformedPredecessorSet => ReasonCode::MalformedPredecessorSet,
            Violation::BadPolicyState => ReasonCode::BadPolicyState,
            Violation::NotInPredecessorSet { .. } => ReasonCode::NotInPredecessorSet,
            Violation::CapabilityViolation { .. } => ReasonCode::CapabilityViolation,
            Violation::MemoryFault { .. } => ReasonCode::MemoryFault,
            Violation::BadFlowEdge { .. } => ReasonCode::BadFlowEdge,
            Violation::UnrewrittenSite { .. } => ReasonCode::UnrewrittenSite,
        }
    }
}

/// Metering data from a successful verification, consumed by the kernel's
/// cycle model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// AES block-cipher invocations actually performed across all MAC
    /// computations (measured, not estimated — cache hits skip blocks and
    /// are charged accordingly).
    pub aes_blocks: u64,
    /// Total bytes read from user space for string/pattern/set checks.
    pub bytes_checked: u64,
    /// Whether the policy state was updated (control-flow policies only).
    pub state_updated: bool,
    /// Whether the call MAC was accepted from the verified-call cache
    /// (the warm path) rather than recomputed.
    pub cache_hit: bool,
}

/// Reads the `{len, mac}` header preceding AS contents at `addr`.
fn read_as_header(
    mem: &dyn UserMemory,
    addr: u32,
    arg: usize,
) -> Result<(u32, [u8; MAC_LEN]), Violation> {
    let header_addr = addr.wrapping_sub(AS_HEADER);
    let len = mem.read_u32(header_addr)?;
    let mut mac = [0u8; MAC_LEN];
    mac.copy_from_slice(mem.read_bytes(header_addr.wrapping_add(4), MAC_LEN as u32)?);
    if len > MAX_AS_LEN {
        return Err(Violation::StringTooLong { arg });
    }
    Ok((len, mac))
}

/// Derives the per-check cache decision from the cache's counter deltas
/// around the check (`None` stats means no cache was attached).
fn cache_decision(
    hit: bool,
    before: Option<CacheStats>,
    after: Option<CacheStats>,
) -> CacheDecision {
    match (before, after) {
        (Some(b), Some(a)) => {
            if hit {
                CacheDecision::Hit
            } else if a.scrubs > b.scrubs {
                CacheDecision::Scrub
            } else if a.stale_misses > b.stale_misses {
                CacheDecision::Fallback
            } else {
                CacheDecision::Cold
            }
        }
        _ => CacheDecision::Disabled,
    }
}

/// Verifies one authenticated system call against its embedded policy.
///
/// Implements §3.4's three steps in order: (1) reconstruct the encoded call
/// from runtime values and check the call MAC; (2) check the integrity of
/// every authenticated string argument (and pattern, and the predecessor
/// set); (3) check and update the control-flow policy state. `cap_check`
/// is consulted for capability-tracked arguments (§5.3); pass `None` when
/// the kernel has capability tracking disabled.
///
/// With a `cache` (the warm path), MAC checks whose `(message, tag)` pair
/// byte-matches an earlier fully verified pair are accepted without AES
/// work; every mismatch falls back to the full CMAC computation, so the
/// accept set is identical to `cache: None` (see the [`crate::cache`]
/// module docs for the soundness argument).
///
/// When `meter` is recording, every check pushes one [`CheckRecord`] —
/// kind, pass/fail, *measured* AES blocks (snapshotted around the check,
/// so the records of one call partition [`VerifyOutcome::aes_blocks`]
/// exactly), bytes compared, and the cache decision. Metering never
/// changes what is verified or what the outcome meters charge.
///
/// On success the policy state in user memory has been advanced and the
/// returned [`VerifyOutcome`] reports the cryptographic work done. On
/// failure the state is untouched and the process must be terminated.
///
/// # Errors
///
/// Returns the first [`Violation`] encountered; the caller logs it and
/// kills the process. The failed check's record is pushed before the
/// early return, so a recording meter always ends with the check that
/// killed the call.
pub fn verify_call(
    key: &MacKey,
    checker: &mut MemoryChecker,
    mut cache: Option<&mut VerifyCache>,
    mem: &mut dyn UserMemory,
    regs: &AuthCallRegs,
    mut cap_check: Option<&mut dyn FnMut(u32) -> bool>,
    meter: &mut CallMeter,
) -> Result<VerifyOutcome, Violation> {
    let metering = meter.is_recording();
    // Begins one check: the key's AES block counter and the cache's
    // counters as they stand, so the check's record can charge the deltas.
    macro_rules! begin_check {
        () => {
            (key.block_ops(), cache.as_deref().map(|c| c.stats()))
        };
    }
    // Records one check begun at `$begun`: AES blocks are the key's
    // block-counter delta since then, and the cache decision comes from the
    // stats delta (a `None` snapshot for checks the cache never serves).
    macro_rules! meter_check {
        ($kind:expr, $begun:expr, $passed:expr, $hit:expr, $bytes:expr) => {
            if metering {
                let (blocks0, stats0) = $begun;
                meter.record(CheckRecord {
                    kind: $kind,
                    passed: $passed,
                    aes_blocks: key.block_ops().wrapping_sub(blocks0),
                    bytes: $bytes,
                    cache: cache_decision($hit, stats0, cache.as_deref().map(|c| c.stats())),
                });
            }
        };
    }
    let blocks_at_entry = key.block_ops();
    let mut outcome = VerifyOutcome::default();
    let descriptor = PolicyDescriptor::from_bits(regs.pol_des);
    if descriptor.validate().is_err() {
        return Err(Violation::BadDescriptor);
    }

    // --- Step 1: reconstruct the encoded call and check the call MAC. ---
    let mut call_mac = [0u8; MAC_LEN];
    call_mac.copy_from_slice(mem.read_bytes(regs.call_mac_ptr, MAC_LEN as u32)?);

    let control_flow = descriptor.control_flow_constrained();
    let mut encoded = EncodedCall {
        syscall_nr: regs.nr as u16,
        descriptor,
        call_site: regs.call_site,
        block_id: regs.block_id,
        args: [None; MAX_ARGS],
        pred_set: None,
        lb_ptr: control_flow.then_some(regs.lb_ptr),
    };
    // Pattern extras block: for each pattern argument in ascending order,
    // {pattern_as_ptr u32, hint_len u32, hint[hint_len] u32}. Each
    // argument's hint words stay lent here until step 2 matches them.
    let mut extras_cursor = regs.hint_ptr;
    let mut hints: [&[u8]; MAX_ARGS] = [&[]; MAX_ARGS];
    for (i, arg) in encoded.args.iter_mut().enumerate() {
        *arg = if descriptor.arg_is_immediate(i) {
            Some(EncodedArg::Immediate(regs.args[i]))
        } else if descriptor.arg_is_string(i) {
            let addr = regs.args[i];
            let (len, mac) = read_as_header(mem, addr, i)?;
            Some(EncodedArg::AuthString { addr, len, mac })
        } else if descriptor.arg_is_pattern(i) {
            let pat_ptr = mem.read_u32(extras_cursor)?;
            let hint_len = mem.read_u32(extras_cursor.wrapping_add(4))?;
            if hint_len > MAX_HINT_WORDS {
                return Err(Violation::BadPattern { arg: i });
            }
            // Word by word first, so a fault names the first unreadable
            // word; then the whole run is lent at once.
            let hint_addr = extras_cursor.wrapping_add(8);
            for h in 0..hint_len {
                mem.read_u32(hint_addr.wrapping_add(4 * h))?;
            }
            hints[i] = mem.read_bytes(hint_addr, 4 * hint_len)?;
            extras_cursor = hint_addr.wrapping_add(4 * hint_len);
            let (len, mac) = read_as_header(mem, pat_ptr, i)?;
            Some(EncodedArg::Pattern {
                addr: pat_ptr,
                len,
                mac,
            })
        } else if descriptor.arg_is_capability(i) {
            Some(EncodedArg::Capability)
        } else {
            None
        };
    }
    if control_flow {
        let (len, mac) = read_as_header(mem, regs.pred_set_ptr, usize::MAX)?;
        encoded.pred_set = Some((regs.pred_set_ptr, len, mac));
    }

    let encoding = encode_call(&encoded);
    let begun = begin_check!();
    let call_cached = cache
        .as_deref_mut()
        .is_some_and(|c| c.check_call(regs.call_site, &encoding, &call_mac));
    if !call_cached {
        if !key.verify(&encoding, &call_mac) {
            meter_check!(CheckKind::CallMac, begun, false, false, 0);
            return Err(Violation::BadCallMac);
        }
        if let Some(c) = cache.as_deref_mut() {
            c.record_call(regs.call_site, &encoding, &call_mac);
        }
    }
    outcome.cache_hit = call_cached;
    meter_check!(CheckKind::CallMac, begun, true, call_cached, 0);

    // --- Step 2: check the integrity of authenticated strings. ---
    for (i, arg) in encoded.args.iter().enumerate() {
        match *arg {
            Some(EncodedArg::AuthString { addr, len, mac }) => {
                let contents = mem.read_bytes(addr, len)?;
                let n = contents.len() as u64;
                outcome.bytes_checked += n;
                let begun = begin_check!();
                let cached = cache
                    .as_deref_mut()
                    .is_some_and(|c| c.check_blob(addr, &mac, contents));
                if !cached {
                    if !key.verify(contents, &mac) {
                        meter_check!(CheckKind::AuthString { arg: i }, begun, false, false, n);
                        return Err(Violation::BadStringMac { arg: i });
                    }
                    if let Some(c) = cache.as_deref_mut() {
                        c.record_blob(addr, &mac, contents);
                    }
                }
                meter_check!(CheckKind::AuthString { arg: i }, begun, true, cached, n);
            }
            Some(EncodedArg::Pattern { addr, len, mac }) => {
                let pattern_text = mem.read_bytes(addr, len)?;
                let mut n = pattern_text.len() as u64;
                outcome.bytes_checked += n;
                // One record covers the whole pattern check: AS integrity,
                // parse, and the hinted match against the live argument.
                let begun = begin_check!();
                let cached = cache
                    .as_deref_mut()
                    .is_some_and(|c| c.check_blob(addr, &mac, pattern_text));
                if !cached {
                    if !key.verify(pattern_text, &mac) {
                        meter_check!(CheckKind::Pattern { arg: i }, begun, false, false, n);
                        return Err(Violation::BadPattern { arg: i });
                    }
                    if let Some(c) = cache.as_deref_mut() {
                        c.record_blob(addr, &mac, pattern_text);
                    }
                }
                let parsed = std::str::from_utf8(pattern_text)
                    .ok()
                    .and_then(|text| Pattern::parse(text).ok());
                let Some(pattern) = parsed else {
                    meter_check!(CheckKind::Pattern { arg: i }, begun, false, cached, n);
                    return Err(Violation::BadPattern { arg: i });
                };
                // The actual argument is a C string in user memory.
                let value = mem.read_cstr(regs.args[i], MAX_AS_LEN)?;
                outcome.bytes_checked += value.len() as u64;
                n += value.len() as u64;
                let mut hint = [0u32; MAX_HINT_WORDS as usize];
                for (word, bytes) in hint.iter_mut().zip(hints[i].chunks_exact(4)) {
                    *word = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
                }
                let matched = pattern.match_with_hint(value, &hint[..hints[i].len() / 4]);
                meter_check!(CheckKind::Pattern { arg: i }, begun, matched, cached, n);
                if !matched {
                    return Err(Violation::PatternMismatch { arg: i });
                }
            }
            Some(EncodedArg::Immediate(_) | EncodedArg::Capability) | None => {}
        }
    }

    // --- Capability checks (§5.3). ---
    for i in 0..MAX_ARGS {
        if descriptor.arg_is_capability(i) {
            let fd = regs.args[i];
            let ok = cap_check.as_mut().is_none_or(|f| f(fd));
            // Capability checks are table lookups: no AES, no bytes, and the
            // verify cache never applies, so the record is always `Disabled`.
            let begun = (key.block_ops(), None);
            meter_check!(CheckKind::Capability { arg: i }, begun, ok, false, 0);
            if !ok {
                return Err(Violation::CapabilityViolation { arg: i, fd });
            }
        }
    }

    // --- Step 3: control-flow policy. ---
    if let Some((addr, len, mac)) = encoded.pred_set {
        let contents = mem.read_bytes(addr, len)?;
        let n = contents.len() as u64;
        outcome.bytes_checked += n;
        let begun = begin_check!();
        let cached = cache
            .as_deref_mut()
            .is_some_and(|c| c.check_blob(addr, &mac, contents));
        if !cached {
            if !key.verify(contents, &mac) {
                meter_check!(CheckKind::PredecessorSet, begun, false, false, n);
                return Err(Violation::MalformedPredecessorSet);
            }
            if let Some(c) = cache.as_deref_mut() {
                c.record_blob(addr, &mac, contents);
            }
        }
        // The set is a run of little-endian block ids.
        let whole = contents.len().is_multiple_of(4);
        meter_check!(CheckKind::PredecessorSet, begun, whole, cached, n);
        if !whole {
            return Err(Violation::MalformedPredecessorSet);
        }

        let state_bytes = mem.read_bytes(regs.lb_ptr, POLICY_STATE_LEN as u32)?;
        let state = PolicyState::parse(state_bytes).expect("exact length read");
        let begun = begin_check!();
        // The state entry is only valid for the current counter epoch: the
        // kernel wrote these exact bytes itself after the last update, so
        // re-verifying them would be redundant AES work. Any divergence —
        // tampered bytes, a different cell, or an advanced counter — takes
        // the full verification below, where forgery and replay die.
        let state_cached = cache
            .as_deref_mut()
            .is_some_and(|c| c.check_state(regs.lb_ptr, state_bytes, checker.counter()));
        if !state_cached && !checker.verify(key, &state) {
            meter_check!(CheckKind::PolicyState, begun, false, false, 0);
            return Err(Violation::BadPolicyState);
        }
        let is_pred = contents
            .chunks_exact(4)
            .any(|id| u32::from_le_bytes(id.try_into().expect("4 bytes")) == state.last_block);
        if !is_pred {
            meter_check!(CheckKind::PolicyState, begun, false, state_cached, 0);
            return Err(Violation::NotInPredecessorSet {
                last_block: state.last_block,
            });
        }
        // The counter must advance on every successful control-flow check
        // (it is the anti-replay nonce), so the update always runs.
        let new_state = checker.update(key, regs.block_id);
        mem.write_bytes(regs.lb_ptr, &new_state.to_bytes())?;
        if let Some(c) = cache.as_deref_mut() {
            c.record_state(regs.lb_ptr, new_state.to_bytes(), checker.counter());
        }
        outcome.state_updated = true;
        meter_check!(CheckKind::PolicyState, begun, true, state_cached, 0);
    }

    outcome.aes_blocks = key.block_ops().wrapping_sub(blocks_at_entry);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asc_crypto::AuthenticatedString;

    /// A flat mock memory for testing the verifier in isolation: only the
    /// bytes put there are mapped, and a fault names the first unmapped
    /// byte of the access.
    #[derive(Clone, Default)]
    struct MockMem {
        bytes: Vec<u8>,
        mapped: Vec<bool>,
    }

    impl MockMem {
        fn put(&mut self, addr: u32, data: &[u8]) {
            let range = addr as usize..addr as usize + data.len();
            if self.bytes.len() < range.end {
                self.bytes.resize(range.end, 0);
                self.mapped.resize(range.end, false);
            }
            self.bytes[range.clone()].copy_from_slice(data);
            self.mapped[range].fill(true);
        }
    }

    impl UserMemory for MockMem {
        fn read_u32(&self, addr: u32) -> Result<u32, Violation> {
            let b = self.read_bytes(addr, 4)?;
            Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
        }
        fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], Violation> {
            let range = addr as usize..addr as usize + len as usize;
            if let Some(hole) = range
                .clone()
                .find(|&a| !self.mapped.get(a).is_some_and(|&m| m))
            {
                return Err(Violation::MemoryFault { addr: hole as u32 });
            }
            self.bytes.get(range).ok_or(Violation::MemoryFault { addr })
        }
        fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Violation> {
            self.read_bytes(addr, bytes.len() as u32)?;
            self.put(addr, bytes);
            Ok(())
        }
    }

    /// [`verify_call`] under the test key, without a recording meter.
    fn verify(
        checker: &mut MemoryChecker,
        cache: Option<&mut VerifyCache>,
        mem: &mut MockMem,
        regs: &AuthCallRegs,
        cap_check: Option<&mut dyn FnMut(u32) -> bool>,
    ) -> Result<VerifyOutcome, Violation> {
        let mut meter = CallMeter::disabled();
        verify_call(&key(), checker, cache, mem, regs, cap_check, &mut meter)
    }

    fn key() -> MacKey {
        MacKey::from_seed(1234)
    }

    const MAC_ADDR: u32 = 0x9000;
    const AS_ADDR: u32 = 0x9100; // contents address (header 20 bytes before)
    const PS_ADDR: u32 = 0x9200; // predecessor-set contents address
    const LB_ADDR: u32 = 0x9300;
    const EXTRA_ADDR: u32 = 0x9400;
    const PAT_ADDR: u32 = 0x9500;

    /// Install an AS blob so that its *contents* start at `contents_addr`.
    fn put_as(mem: &mut MockMem, contents_addr: u32, s: &AuthenticatedString) {
        mem.put(contents_addr - AS_HEADER, &s.to_bytes());
    }

    /// Installs `encoded`'s call MAC at `MAC_ADDR` and returns the registers
    /// of the call it describes, with `args` in R1..R6 and `hint_ptr` in R12.
    fn install(
        mem: &mut MockMem,
        encoded: &EncodedCall,
        args: [u32; 6],
        hint_ptr: u32,
    ) -> AuthCallRegs {
        mem.put(MAC_ADDR, &encoded.mac(&key()));
        AuthCallRegs {
            nr: u32::from(encoded.syscall_nr),
            call_site: encoded.call_site,
            args,
            pol_des: encoded.descriptor.bits(),
            block_id: encoded.block_id,
            pred_set_ptr: encoded.pred_set.map_or(0, |(addr, ..)| addr),
            lb_ptr: encoded.lb_ptr.unwrap_or(0),
            call_mac_ptr: MAC_ADDR,
            hint_ptr,
        }
    }

    /// Builds a fully authenticated open("/etc/motd", 0) call with control
    /// flow {0, 7}, block 9, site 0x1040, installing everything into the
    /// mock memory the way the installer would into the binary.
    fn setup_call(mem: &mut MockMem) -> AuthCallRegs {
        let k = key();
        let path = AuthenticatedString::build(&k, b"/etc/motd".to_vec());
        put_as(mem, AS_ADDR, &path);
        let preds: Vec<u8> = [0u32, 7].iter().flat_map(|p| p.to_le_bytes()).collect();
        let ps = AuthenticatedString::build(&k, preds);
        put_as(mem, PS_ADDR, &ps);
        let state = MemoryChecker::initial_state(&k);
        mem.put(LB_ADDR, &state.to_bytes());

        let descriptor = PolicyDescriptor::new()
            .with_call_site()
            .with_control_flow()
            .with_string_arg(0)
            .with_immediate_arg(1);
        let mut args = [None; MAX_ARGS];
        args[0] = Some(EncodedArg::AuthString {
            addr: AS_ADDR,
            len: 9,
            mac: *path.mac(),
        });
        args[1] = Some(EncodedArg::Immediate(0));
        let encoded = EncodedCall {
            syscall_nr: 5,
            descriptor,
            call_site: 0x1040,
            block_id: 9,
            args,
            pred_set: Some((PS_ADDR, 8, *ps.mac())),
            lb_ptr: Some(LB_ADDR),
        };
        install(mem, &encoded, [AS_ADDR, 0, 0, 0, 0, 0], 0)
    }

    #[test]
    fn compliant_call_passes_and_updates_state() {
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let outcome = verify(&mut checker, None, &mut mem, &regs, None).unwrap();
        assert!(outcome.state_updated);
        assert!(outcome.aes_blocks >= 5);
        assert_eq!(checker.counter(), 1);
        // State now holds block 9.
        let state = PolicyState::parse(mem.read_bytes(LB_ADDR, 20).unwrap()).unwrap();
        assert_eq!(state.last_block, 9);
        assert!(checker.verify(&key(), &state));
    }

    #[test]
    fn second_call_respects_new_state() {
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let mut checker = MemoryChecker::new();
        verify(&mut checker, None, &mut mem, &regs, None).unwrap();
        // Re-running the same call: its predecessor set {0, 7} does not
        // contain 9 (the block we just recorded) -> control-flow violation.
        let err = verify(&mut checker, None, &mut mem, &regs, None).unwrap_err();
        assert_eq!(err, Violation::NotInPredecessorSet { last_block: 9 });
    }

    #[test]
    fn tampered_syscall_number_fails() {
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        regs.nr = 11; // try to turn open into execve
        let err = verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None).unwrap_err();
        assert_eq!(err, Violation::BadCallMac);
    }

    #[test]
    fn tampered_call_site_fails() {
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        regs.call_site += 8; // call from a different (injected) location
        assert_eq!(
            verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None),
            Err(Violation::BadCallMac)
        );
    }

    #[test]
    fn tampered_immediate_arg_fails() {
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        regs.args[1] = 2; // open flags O_RDWR instead of O_RDONLY
        assert_eq!(
            verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None),
            Err(Violation::BadCallMac)
        );
    }

    #[test]
    fn relaxed_descriptor_fails() {
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        // Attacker clears all constraint bits hoping for a free pass.
        regs.pol_des = PolicyDescriptor::new().with_call_site().bits();
        assert_eq!(
            verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None),
            Err(Violation::BadCallMac)
        );
    }

    #[test]
    fn non_control_data_attack_fails() {
        // Overwrite the string contents in memory (the AS header stays).
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        mem.put(AS_ADDR, b"/etc/pass"); // same length, different contents
        assert_eq!(
            verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None),
            Err(Violation::BadStringMac { arg: 0 })
        );
    }

    #[test]
    fn retargeted_string_pointer_fails() {
        // Point the argument at a *different* valid AS (here: the pred
        // set, which is also a valid AS): the call MAC covers the address,
        // so this fails at step 1.
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        regs.args[0] = PS_ADDR;
        assert_eq!(
            verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None),
            Err(Violation::BadCallMac)
        );
    }

    #[test]
    fn oversized_length_field_rejected_before_reading() {
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        // Attacker rewrites the AS length field to a huge value (DoS try).
        mem.put(AS_ADDR - AS_HEADER, &(MAX_AS_LEN + 1).to_le_bytes());
        assert_eq!(
            verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None),
            Err(Violation::StringTooLong { arg: 0 })
        );
    }

    #[test]
    fn replayed_policy_state_fails() {
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let snapshot = mem.read_bytes(LB_ADDR, 20).unwrap().to_vec();
        verify(&mut checker, None, &mut mem, &regs, None).unwrap();
        // Attacker restores the pre-call state and replays the call.
        mem.put(LB_ADDR, &snapshot);
        assert_eq!(
            verify(&mut checker, None, &mut mem, &regs, None),
            Err(Violation::BadPolicyState)
        );
    }

    #[test]
    fn forged_last_block_fails() {
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let mut checker = MemoryChecker::new();
        // Attacker writes lastBlock = 7 (which IS in the pred set) without
        // being able to recompute lbMAC.
        let mut state_bytes = mem.read_bytes(LB_ADDR, 20).unwrap().to_vec();
        state_bytes[0] = 7;
        mem.put(LB_ADDR, &state_bytes);
        assert_eq!(
            verify(&mut checker, None, &mut mem, &regs, None),
            Err(Violation::BadPolicyState)
        );
    }

    #[test]
    fn capability_check_consulted() {
        let mut mem = MockMem::default();
        // read(fd=4, buf, n) with fd capability-tracked.
        let descriptor = PolicyDescriptor::new()
            .with_call_site()
            .with_capability_arg(0);
        let encoded = EncodedCall {
            syscall_nr: 3,
            descriptor,
            call_site: 0x2000,
            block_id: 1,
            args: [Some(EncodedArg::Capability), None, None, None, None, None],
            pred_set: None,
            lb_ptr: None,
        };
        let regs = install(&mut mem, &encoded, [4, 0, 0, 0, 0, 0], 0);
        let mut consulted = Vec::new();
        let mut allowed = |fd: u32| {
            consulted.push(fd);
            fd == 4
        };
        verify(
            &mut MemoryChecker::new(),
            None,
            &mut mem,
            &regs,
            Some(&mut allowed),
        )
        .unwrap();
        assert_eq!(consulted, vec![4]);

        let mut regs2 = regs;
        regs2.args[0] = 5;
        let mut allowed = |fd: u32| fd == 4;
        assert_eq!(
            verify(
                &mut MemoryChecker::new(),
                None,
                &mut mem,
                &regs2,
                Some(&mut allowed)
            ),
            Err(Violation::CapabilityViolation { arg: 0, fd: 5 })
        );
    }

    /// The runtime argument of the pattern fixture (dynamic, not MAC'd).
    const ARG_ADDR: u32 = 0x9600;

    /// Builds an authenticated call whose argument 0 must match the pattern
    /// `/tmp/{foo,bar}*baz`, with `/tmp/foofoobaz` as the argument and the
    /// proof hint {0, 3} in the extras block.
    fn setup_pattern_call(mem: &mut MockMem) -> AuthCallRegs {
        let k = key();
        let pattern = AuthenticatedString::build(&k, b"/tmp/{foo,bar}*baz".to_vec());
        put_as(mem, PAT_ADDR, &pattern);
        mem.put(ARG_ADDR, b"/tmp/foofoobaz\0");
        // Extras block: pattern ptr, hint_len=2, hint {0, 3}.
        let extras: Vec<u8> = [PAT_ADDR, 2, 0, 3]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        mem.put(EXTRA_ADDR, &extras);

        let descriptor = PolicyDescriptor::new().with_call_site().with_pattern_arg(0);
        let mut args = [None; MAX_ARGS];
        args[0] = Some(EncodedArg::Pattern {
            addr: PAT_ADDR,
            len: 18,
            mac: *pattern.mac(),
        });
        let encoded = EncodedCall {
            syscall_nr: 5,
            descriptor,
            call_site: 0x3000,
            block_id: 2,
            args,
            pred_set: None,
            lb_ptr: None,
        };
        install(mem, &encoded, [ARG_ADDR, 0, 0, 0, 0, 0], EXTRA_ADDR)
    }

    #[test]
    fn pattern_argument_verifies_with_hint() {
        let mut mem = MockMem::default();
        let regs = setup_pattern_call(&mut mem);
        verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None).unwrap();

        // A non-matching argument fails even with a "creative" hint.
        mem.put(ARG_ADDR, b"/etc/passwd\0\0\0\0");
        let err = verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None).unwrap_err();
        assert_eq!(err, Violation::PatternMismatch { arg: 0 });
    }

    #[test]
    fn conflicting_descriptor_rejected() {
        let mut mem = MockMem::default();
        let regs = AuthCallRegs {
            nr: 1,
            call_site: 0,
            args: [0; 6],
            pol_des: PolicyDescriptor::new()
                .with_immediate_arg(0)
                .with_string_arg(0)
                .bits(),
            block_id: 0,
            pred_set_ptr: 0,
            lb_ptr: 0,
            call_mac_ptr: 0,
            hint_ptr: 0,
        };
        assert_eq!(
            verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None),
            Err(Violation::BadDescriptor)
        );
    }

    #[test]
    fn oversized_hint_length_rejected() {
        // An attacker-controlled extras block claiming a gigantic hint
        // must be rejected before the kernel loops over it.
        let mut mem = MockMem::default();
        let k = key();
        let pattern = AuthenticatedString::build(&k, b"/tmp/*".to_vec());
        put_as(&mut mem, PAT_ADDR, &pattern);
        let mut extras = Vec::new();
        extras.extend_from_slice(&PAT_ADDR.to_le_bytes());
        extras.extend_from_slice(&1000u32.to_le_bytes()); // absurd hint_len
        mem.put(EXTRA_ADDR, &extras);
        let descriptor = PolicyDescriptor::new().with_call_site().with_pattern_arg(0);
        let regs = AuthCallRegs {
            nr: 5,
            call_site: 0x3000,
            args: [0x9600, 0, 0, 0, 0, 0],
            pol_des: descriptor.bits(),
            block_id: 2,
            pred_set_ptr: 0,
            lb_ptr: 0,
            call_mac_ptr: MAC_ADDR,
            hint_ptr: EXTRA_ADDR,
        };
        mem.put(MAC_ADDR, &[0u8; 16]);
        assert_eq!(
            verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None),
            Err(Violation::BadPattern { arg: 0 })
        );
    }

    #[test]
    fn high_bits_of_syscall_number_are_harmless() {
        // R0 = 0x7_0005: both the encoding and the dispatcher truncate to
        // u16, so the MAC still matches and the *same* call executes — no
        // confusion is possible between verification and dispatch.
        let mut mem = MockMem::default();
        let mut regs = setup_call(&mut mem);
        regs.nr = 0x0007_0005;
        let out = verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None);
        assert!(out.is_ok(), "{out:?}");
    }

    #[test]
    fn swapped_as_headers_detected() {
        // Attacker swaps the {len,mac} header of the path AS with the one
        // from the predecessor set (both authentic, wrong pairing).
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let ps_header = mem.read_bytes(PS_ADDR - AS_HEADER, 20).unwrap().to_vec();
        mem.put(AS_ADDR - AS_HEADER, &ps_header);
        let err = verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None).unwrap_err();
        // The call MAC covers the (addr, len, mac) tuple, so the forgery
        // dies at step 1.
        assert_eq!(err, Violation::BadCallMac);
    }

    /// A repeatable (no control flow) call: getpid-style with one
    /// authenticated string argument, so both the call MAC and a blob are
    /// exercised on every verification.
    fn setup_repeatable_call(mem: &mut MockMem) -> AuthCallRegs {
        let k = key();
        let path = AuthenticatedString::build(&k, b"/etc/motd".to_vec());
        put_as(mem, AS_ADDR, &path);
        let descriptor = PolicyDescriptor::new().with_call_site().with_string_arg(0);
        let mut args = [None; MAX_ARGS];
        args[0] = Some(EncodedArg::AuthString {
            addr: AS_ADDR,
            len: 9,
            mac: *path.mac(),
        });
        let encoded = EncodedCall {
            syscall_nr: 5,
            descriptor,
            call_site: 0x1040,
            block_id: 9,
            args,
            pred_set: None,
            lb_ptr: None,
        };
        install(mem, &encoded, [AS_ADDR, 0, 0, 0, 0, 0], 0)
    }

    #[test]
    fn warm_path_skips_all_aes_for_repeated_call() {
        let mut mem = MockMem::default();
        let regs = setup_repeatable_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let mut cache = VerifyCache::new();
        let cold = verify(&mut checker, Some(&mut cache), &mut mem, &regs, None).unwrap();
        assert!(!cold.cache_hit);
        assert!(cold.aes_blocks >= 2, "call MAC + string MAC");
        let warm = verify(&mut checker, Some(&mut cache), &mut mem, &regs, None).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.aes_blocks, 0, "identical call: no AES at all");
        assert_eq!(
            warm.bytes_checked, cold.bytes_checked,
            "memory is still re-read"
        );
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().blob_hits, 1);
    }

    #[test]
    fn warm_path_still_catches_rewritten_string() {
        // The non-control-data attack performed *after* the cache is warm:
        // the blob comparison misses, the full CMAC runs, and the call
        // dies exactly like the cold path.
        let mut mem = MockMem::default();
        let regs = setup_repeatable_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let mut cache = VerifyCache::new();
        verify(&mut checker, Some(&mut cache), &mut mem, &regs, None).unwrap();
        mem.put(AS_ADDR, b"/etc/pass");
        assert_eq!(
            verify(&mut checker, Some(&mut cache), &mut mem, &regs, None),
            Err(Violation::BadStringMac { arg: 0 })
        );
    }

    #[test]
    fn warm_path_still_catches_tampered_registers() {
        let mut mem = MockMem::default();
        let regs = setup_repeatable_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let mut cache = VerifyCache::new();
        verify(&mut checker, Some(&mut cache), &mut mem, &regs, None).unwrap();
        let mut forged = regs;
        forged.nr = 11; // execve from the cached open site
        assert_eq!(
            verify(&mut checker, Some(&mut cache), &mut mem, &forged, None),
            Err(Violation::BadCallMac)
        );
    }

    /// Builds an authenticated control-flow-only call (nr 20, block 9,
    /// site 0x1040) whose predecessor set holds exactly `preds`.
    fn setup_control_flow_call(mem: &mut MockMem, preds: &[u8]) -> AuthCallRegs {
        let k = key();
        let ps = AuthenticatedString::build(&k, preds.to_vec());
        put_as(mem, PS_ADDR, &ps);
        mem.put(LB_ADDR, &MemoryChecker::initial_state(&k).to_bytes());
        let descriptor = PolicyDescriptor::new().with_call_site().with_control_flow();
        let encoded = EncodedCall {
            syscall_nr: 20,
            descriptor,
            call_site: 0x1040,
            block_id: 9,
            args: [None; MAX_ARGS],
            pred_set: Some((PS_ADDR, preds.len() as u32, *ps.mac())),
            lb_ptr: Some(LB_ADDR),
        };
        install(mem, &encoded, [0; 6], 0)
    }

    #[test]
    fn control_flow_warm_path_charges_only_the_update() {
        // A self-loop so the same call is control-flow-legal twice.
        let mut mem = MockMem::default();
        let preds: Vec<u8> = [0u32, 9].iter().flat_map(|p| p.to_le_bytes()).collect();
        let regs = setup_control_flow_call(&mut mem, &preds);
        let mut checker = MemoryChecker::new();
        let mut cache = VerifyCache::new();
        let cold = verify(&mut checker, Some(&mut cache), &mut mem, &regs, None).unwrap();
        assert!(
            cold.aes_blocks >= 4,
            "call MAC, pred set, state verify, state update"
        );
        let warm = verify(&mut checker, Some(&mut cache), &mut mem, &regs, None).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(
            warm.aes_blocks, 1,
            "only the counter-advancing state update runs AES"
        );
        assert!(
            warm.aes_blocks * 2 <= cold.aes_blocks,
            "warm is at least 50% cheaper"
        );
        assert_eq!(cache.stats().state_hits, 1);
    }

    #[test]
    fn ragged_predecessor_set_is_malformed() {
        // An authentic set that is not a whole number of block ids dies,
        // cold and then warm, although its first id is the last block (0).
        let mut mem = MockMem::default();
        let regs = setup_control_flow_call(&mut mem, &[0, 0, 0, 0, 7]);
        let mut cache = VerifyCache::new();
        for _ in 0..2 {
            assert_eq!(
                verify(
                    &mut MemoryChecker::new(),
                    Some(&mut cache),
                    &mut mem,
                    &regs,
                    None
                ),
                Err(Violation::MalformedPredecessorSet)
            );
        }
        assert_eq!(cache.stats().blob_hits, 1, "the second call was warm");
    }

    #[test]
    fn cached_and_cold_paths_agree_on_acceptance() {
        // Differential check: for the standard call and a pile of forgeries,
        // a warm cache and no cache must return the same verdict.
        let tamper: &[fn(&mut MockMem, &mut AuthCallRegs)] = &[
            |_, r| r.nr = 11,
            |_, r| r.call_site ^= 4,
            |_, r| r.block_id ^= 1,
            |m, _| m.put(AS_ADDR, b"/etc/pass"),
            |m, _| m.put(MAC_ADDR, &[0xff; 16]),
            |_, _| {}, // the untampered call
        ];
        for f in tamper {
            let mut cold_mem = MockMem::default();
            let mut regs = setup_call(&mut cold_mem);
            // Warm the cache with one legitimate call on a copy, so both
            // runs below see the same control-flow position.
            let mut cache = VerifyCache::new();
            let mut checker = MemoryChecker::new();
            verify(
                &mut checker,
                Some(&mut cache),
                &mut cold_mem.clone(),
                &regs,
                None,
            )
            .unwrap();
            f(&mut cold_mem, &mut regs);
            let mut warm_mem = cold_mem.clone();
            let cold = verify(&mut MemoryChecker::new(), None, &mut cold_mem, &regs, None);
            let cache = Some(&mut cache);
            let warm = verify(&mut MemoryChecker::new(), cache, &mut warm_mem, &regs, None);
            assert_eq!(cold.is_ok(), warm.is_ok(), "verdicts diverged");
            assert_eq!(cold.err(), warm.err(), "violations diverged");
        }
    }

    #[test]
    fn stale_cache_replay_of_old_state_still_dies() {
        // The stale-cache exploit: warm the cache, snapshot the policy
        // state, let the counter advance, restore the snapshot, replay.
        // The cached state entry is epoch-bound, so the comparison misses
        // and the full check rejects the replayed bytes.
        let mut mem = MockMem::default();
        let regs = setup_call(&mut mem);
        let mut checker = MemoryChecker::new();
        let mut cache = VerifyCache::new();
        let snapshot = mem.read_bytes(LB_ADDR, 20).unwrap().to_vec();
        verify(&mut checker, Some(&mut cache), &mut mem, &regs, None).unwrap();
        mem.put(LB_ADDR, &snapshot);
        assert_eq!(
            verify(&mut checker, Some(&mut cache), &mut mem, &regs, None),
            Err(Violation::BadPolicyState)
        );
    }

    #[test]
    fn unmapped_mac_pointer_is_memory_fault() {
        let mut mem = MockMem::default();
        let regs = AuthCallRegs {
            nr: 1,
            call_site: 0,
            args: [0; 6],
            pol_des: PolicyDescriptor::new().with_call_site().bits(),
            block_id: 0,
            pred_set_ptr: 0,
            lb_ptr: 0,
            call_mac_ptr: 0xdead_0000,
            hint_ptr: 0,
        };
        assert!(matches!(
            verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None),
            Err(Violation::MemoryFault { .. })
        ));
    }

    #[test]
    fn hostile_memory_sweep_never_panics_and_paths_agree() {
        // Seeded hostile inputs over the string + control-flow fixture and
        // the pattern fixture: one bit flipped in a MAC-covered or hinted
        // byte or in a MAC-covered register, or one pointer register
        // retargeted at unmapped memory, the top of the address space, or
        // below an AS header. The verifier must not panic (overflow checks
        // are on in tests), the cold path and a warm cache must return the
        // same verdict, and every covered flip must be rejected.
        type Setup = fn(&mut MockMem) -> AuthCallRegs;
        type Targets = &'static [(u32, u32, bool)];
        // Per fixture: `(addr, len, MAC-covered)` flip targets, and which
        // of R1, R9, R10, R11 and R12 it reads (retargeting one must kill).
        let fixtures: [(Setup, Targets, [bool; 5]); 2] = [
            (
                setup_call,
                &[
                    (MAC_ADDR, 16, true),
                    (AS_ADDR - AS_HEADER, AS_HEADER, true),
                    (AS_ADDR, 9, true),
                    (PS_ADDR - AS_HEADER, AS_HEADER, true),
                    (PS_ADDR, 8, true),
                    (LB_ADDR, 20, true),
                ],
                [true, true, true, true, false],
            ),
            (
                setup_pattern_call,
                // The extras block: the pattern pointer is in the encoding,
                // the hint length and the hint words are not.
                &[
                    (MAC_ADDR, 16, true),
                    (PAT_ADDR - AS_HEADER, AS_HEADER, true),
                    (PAT_ADDR, 18, true),
                    (EXTRA_ADDR, 4, true),
                    (EXTRA_ADDR + 4, 12, false),
                ],
                [true, false, false, true, true],
            ),
        ];
        asc_testkit::check(0x5EED_4057, 2000, |rng| {
            let &(setup, targets, reads) = rng.pick(&fixtures);
            let mut mem = MockMem::default();
            let mut regs = setup(&mut mem);
            // Warm the cache with the untouched call, as the kernel would.
            let mut cache = VerifyCache::new();
            let (mut warm, checker) = (mem.clone(), &mut MemoryChecker::new());
            verify(checker, Some(&mut cache), &mut warm, &regs, None).expect("untouched call");
            let must_reject = match rng.range_u32(0, 3) {
                0 => {
                    let &(addr, len, covered) = rng.pick(targets);
                    let at = addr + rng.range_u32(0, len);
                    let byte = mem.read_bytes(at, 1).expect("fixture byte")[0];
                    mem.put(at, &[byte ^ (1 << rng.range_u32(0, 8))]);
                    covered
                }
                1 => {
                    // The encoding keeps only the low 16 bits of R0.
                    let reg = rng.range_usize(0, 4);
                    let bit = 1 << rng.range_u32(0, if reg == 0 { 16 } else { 32 });
                    *[
                        &mut regs.nr,
                        &mut regs.pol_des,
                        &mut regs.block_id,
                        &mut regs.call_site,
                    ][reg] ^= bit;
                    true
                }
                _ => {
                    let value = match rng.range_u32(0, 4) {
                        0 => rng.range_u32(0x100, 0x8000),
                        1 => rng.range_u32(0x1_0000, u32::MAX - 64),
                        2 => u32::MAX - rng.range_u32(0, 64),
                        _ => rng.range_u32(0, AS_HEADER),
                    };
                    let reg = rng.range_usize(0, 5);
                    *[
                        &mut regs.args[0],
                        &mut regs.pred_set_ptr,
                        &mut regs.lb_ptr,
                        &mut regs.call_mac_ptr,
                        &mut regs.hint_ptr,
                    ][reg] = value;
                    reads[reg]
                }
            };
            let mut warm = mem.clone();
            let cold = verify(&mut MemoryChecker::new(), None, &mut mem, &regs, None);
            assert!(!must_reject || cold.is_err(), "accepted: {cold:?}");
            let cache = Some(&mut cache);
            let warm = verify(&mut MemoryChecker::new(), cache, &mut warm, &regs, None);
            assert_eq!(cold.err(), warm.err(), "cold and warm paths diverged");
        });
    }
}
