//! AES-128 block cipher (encryption only — all MAC constructions in this
//! crate only ever encrypt).
//!
//! The rounds are word-wise, in the table-driven style of the Gladman AES
//! the paper's prototype linked (DESIGN.md §21). The state is four
//! big-endian `u32` columns and the key schedule is 44 such words. In each
//! of rounds 1–9 an output column is four lookups into `TE` XORed with the
//! round key: the tables fold `SubBytes` and `MixColumns` together, and
//! which input column each lookup reads is `ShiftRows`. The last round has
//! no `MixColumns` and reads the S-box directly. The tables are computed
//! at compile time from the S-box.
//!
//! On an x86-64 CPU with AES-NI the rounds run in hardware instead: nine
//! `AESENC` and one `AESENCLAST` over the same schedule, in constant time.
//! [`Aes128::new`] asks the CPU once per key, and the table rounds are what
//! a CPU without AES-NI runs (DESIGN.md §21). The call into the hardware
//! rounds is the crate's one `unsafe` block.
//!
//! Every block goes through one crate-private function,
//! `Aes128::encrypt_words`, which is also where blocks are counted, once
//! whichever rounds run it. The byte-wise FIPS-197 rounds live on only in
//! this crate's tests, as the reference that the FIPS-197 vectors and the
//! differential tests check both backends against.

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for the AES-128 key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// `TE[r][x]` is what a byte `x` in row `r` of a column contributes to
/// that column after `SubBytes` and `MixColumns`: for `s = SBOX[x]`,
/// `TE[0][x]` is the big-endian word `(2·s, s, s, 3·s)` and `TE[r]` is
/// `TE[0]` rotated right by `8·r` bits. Four 1 KiB tables.
static TE: [[u32; 256]; 4] = te_tables();

const fn te_tables() -> [[u32; 256]; 4] {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        // Doubling in GF(2^8), reducing by x^8 + x^4 + x^3 + x + 1.
        let s2 = (s << 1) ^ if s & 0x80 != 0 { 0x1b } else { 0 };
        let word = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        let mut r = 0;
        while r < 4 {
            te[r][x] = word.rotate_right(8 * r as u32);
            r += 1;
        }
        x += 1;
    }
    te
}

/// An expanded AES-128 key (44 schedule words, four per round key).
///
/// Construct once with [`Aes128::new`] and reuse; key expansion is the
/// expensive part of short-message MACs, so the schedule is precomputed here
/// and every MAC construction in the crate shares it.
///
/// The cipher also counts its own block invocations (see
/// [`Aes128::block_ops`]): the simulated kernel charges verification cycles
/// from *measured* block operations rather than from per-call-site estimates,
/// which keeps the cycle model honest when a cached fast path skips work.
pub struct Aes128 {
    round_keys: [u32; 44],
    /// The same schedule as AES-NI loads it, present only when the CPU
    /// has AES-NI; `encrypt_words` then runs the hardware rounds.
    ni: Option<ni::RoundKeys>,
    blocks: std::rc::Rc<std::cell::Cell<u64>>,
}

impl Clone for Aes128 {
    fn clone(&self) -> Self {
        // A clone copies the expanded schedule and *meters independently*:
        // the count carries over but lives in a fresh counter cell. Use
        // [`Aes128::shared_schedule`] to keep metering through the original
        // counter instead.
        Aes128 {
            round_keys: self.round_keys,
            ni: self.ni,
            blocks: std::rc::Rc::new(std::cell::Cell::new(self.blocks.get())),
        }
    }
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never leak key material through Debug output, in either form.
        f.debug_struct("Aes128")
            .field("round_keys", &"<redacted>")
            .finish()
    }
}

impl Aes128 {
    /// Expands `key` into the 11 round keys of AES-128, and runs its
    /// blocks through AES-NI when the CPU has it.
    pub fn new(key: &[u8; 16]) -> Self {
        let mut aes = Aes128::with_table_rounds(key);
        aes.ni = ni::RoundKeys::detect(&aes.round_keys);
        aes
    }

    /// Expands `key` for the table rounds, whatever the CPU has: what
    /// [`Aes128::new`] builds on a CPU without AES-NI.
    pub(crate) fn with_table_rounds(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        w[..4].copy_from_slice(&load_block(key));
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ (u32::from(RCON[i / 4 - 1]) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 {
            round_keys: w,
            ni: None,
            blocks: std::rc::Rc::new(std::cell::Cell::new(0)),
        }
    }

    /// Whether this key's blocks run through AES-NI.
    #[cfg(test)]
    pub(crate) fn uses_aes_ni(&self) -> bool {
        self.ni.is_some()
    }

    /// A second handle to the *same* expanded key: the round keys are
    /// copied (they are immutable after expansion) and block operations
    /// keep metering into the shared counter.
    ///
    /// This is the measured form of key-schedule reuse: constructing a
    /// handle performs zero AES block operations and zero key expansions,
    /// whereas a fresh [`Aes128::new`] re-runs the schedule (and a fresh
    /// CMAC instance additionally burns one block operation deriving
    /// subkeys). A fleet of kernels sharing one installer key holds one
    /// schedule and one fleet-wide `block_ops` meter.
    pub fn shared_schedule(&self) -> Aes128 {
        Aes128 {
            round_keys: self.round_keys,
            ni: self.ni,
            blocks: std::rc::Rc::clone(&self.blocks),
        }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        *block = store_block(self.encrypt_words(load_block(block)));
    }

    /// Encrypts one block, returning the ciphertext.
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }

    /// Encrypts one block held as four big-endian column words (see
    /// [`load_block`]). Every block of the crate goes through here, and
    /// this is where it is counted, once.
    pub(crate) fn encrypt_words(&self, block: [u32; 4]) -> [u32; 4] {
        self.blocks.set(self.blocks.get().wrapping_add(1));
        match &self.ni {
            Some(keys) => keys.encrypt(block),
            None => self.table_rounds(block),
        }
    }

    /// The word-wise T-table rounds.
    fn table_rounds(&self, block: [u32; 4]) -> [u32; 4] {
        let rk = &self.round_keys;
        let mut s = [
            block[0] ^ rk[0],
            block[1] ^ rk[1],
            block[2] ^ rk[2],
            block[3] ^ rk[3],
        ];
        for round in 1..10 {
            let k = &rk[4 * round..4 * round + 4];
            s = [
                te_column(s[0], s[1], s[2], s[3]) ^ k[0],
                te_column(s[1], s[2], s[3], s[0]) ^ k[1],
                te_column(s[2], s[3], s[0], s[1]) ^ k[2],
                te_column(s[3], s[0], s[1], s[2]) ^ k[3],
            ];
        }
        [
            last_column(s[0], s[1], s[2], s[3]) ^ rk[40],
            last_column(s[1], s[2], s[3], s[0]) ^ rk[41],
            last_column(s[2], s[3], s[0], s[1]) ^ rk[42],
            last_column(s[3], s[0], s[1], s[2]) ^ rk[43],
        ]
    }

    /// Total block-cipher invocations performed by this instance since
    /// construction (clones restart from the count at clone time).
    ///
    /// Callers meter a computation by snapshotting before and after; the
    /// counter wraps rather than panicking, so deltas stay correct.
    pub fn block_ops(&self) -> u64 {
        self.blocks.get()
    }
}

/// A block as four big-endian column words: word `c` holds rows 0–3 of
/// column `c`, row 0 in the most significant byte.
pub(crate) fn load_block(block: &[u8; 16]) -> [u32; 4] {
    let (columns, _) = block.as_chunks::<4>();
    std::array::from_fn(|c| u32::from_be_bytes(columns[c]))
}

/// The inverse of [`load_block`].
pub(crate) fn store_block(words: [u32; 4]) -> [u8; 16] {
    let mut block = [0u8; 16];
    let (columns, _) = block.as_chunks_mut::<4>();
    for (column, word) in columns.iter_mut().zip(words) {
        *column = word.to_be_bytes();
    }
    block
}

/// The S-box applied to each byte of a word.
fn sub_word(w: u32) -> u32 {
    u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]))
}

/// One output column of rounds 1–9 before its round key. `ShiftRows`
/// takes row `r` from input column `c + r`, so the caller passes the
/// columns starting at `c`: `a` supplies row 0, `b` row 1, and so on.
#[inline(always)]
fn te_column(a: u32, b: u32, c: u32, d: u32) -> u32 {
    TE[0][(a >> 24) as usize]
        ^ TE[1][(b >> 16) as u8 as usize]
        ^ TE[2][(c >> 8) as u8 as usize]
        ^ TE[3][d as u8 as usize]
}

/// One output column of the last round (no `MixColumns`) before its
/// round key, with the same argument order as [`te_column`].
#[inline(always)]
fn last_column(a: u32, b: u32, c: u32, d: u32) -> u32 {
    u32::from_be_bytes([
        SBOX[(a >> 24) as usize],
        SBOX[(b >> 16) as u8 as usize],
        SBOX[(c >> 8) as u8 as usize],
        SBOX[d as u8 as usize],
    ])
}

/// The AES-NI rounds (x86-64 only).
#[cfg(target_arch = "x86_64")]
mod ni {
    use std::arch::x86_64::{
        _mm_aesenc_si128, _mm_aesenclast_si128, _mm_cvtsi128_si64, _mm_set_epi64x,
        _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// The 11 round keys as AES-NI loads them: each the low and high
    /// halves of a register whose low byte is the round key's first byte.
    /// [`RoundKeys::detect`] is the only constructor, so a value exists
    /// only on a CPU that has AES-NI.
    #[derive(Clone, Copy)]
    pub(super) struct RoundKeys([[u64; 2]; 11]);

    impl RoundKeys {
        /// The word schedule `w` in AES-NI's form, or `None` when this CPU
        /// has no AES-NI.
        pub(super) fn detect(w: &[u32; 44]) -> Option<Self> {
            if !std::arch::is_x86_feature_detected!("aes") {
                return None;
            }
            Some(RoundKeys(std::array::from_fn(|r| {
                halves([w[4 * r], w[4 * r + 1], w[4 * r + 2], w[4 * r + 3]])
            })))
        }

        /// Encrypts one block of big-endian column words.
        #[allow(unsafe_code)]
        pub(super) fn encrypt(&self, block: [u32; 4]) -> [u32; 4] {
            // SAFETY: `rounds` needs the CPU's AES-NI. `self` was built by
            // `detect`, its type's only constructor, which returns a value
            // only after `is_x86_feature_detected!("aes")` said this CPU
            // has it.
            unsafe { rounds(&self.0, block) }
        }
    }

    /// Whitening, nine full rounds and the last round, in registers.
    #[target_feature(enable = "aes")]
    fn rounds(keys: &[[u64; 2]; 11], block: [u32; 4]) -> [u32; 4] {
        let load = |[lo, hi]: [u64; 2]| _mm_set_epi64x(hi as i64, lo as i64);
        let mut s = _mm_xor_si128(load(halves(block)), load(keys[0]));
        for &key in &keys[1..10] {
            s = _mm_aesenc_si128(s, load(key));
        }
        let s = _mm_aesenclast_si128(s, load(keys[10]));
        let hi = _mm_unpackhi_epi64(s, s);
        words([_mm_cvtsi128_si64(s) as u64, _mm_cvtsi128_si64(hi) as u64])
    }

    /// Four big-endian column words as the low and high halves of a
    /// register: bytes 0–7 of the block little-endian, then bytes 8–15.
    #[inline(always)]
    fn halves(w: [u32; 4]) -> [u64; 2] {
        [
            ((u64::from(w[0]) << 32) | u64::from(w[1])).swap_bytes(),
            ((u64::from(w[2]) << 32) | u64::from(w[3])).swap_bytes(),
        ]
    }

    /// The inverse of [`halves`].
    #[inline(always)]
    fn words([lo, hi]: [u64; 2]) -> [u32; 4] {
        let (lo, hi) = (lo.swap_bytes(), hi.swap_bytes());
        [(lo >> 32) as u32, lo as u32, (hi >> 32) as u32, hi as u32]
    }
}

/// Off x86-64 there is no AES-NI, and no value of `RoundKeys`.
#[cfg(not(target_arch = "x86_64"))]
mod ni {
    #[derive(Clone, Copy)]
    pub(super) enum RoundKeys {}

    impl RoundKeys {
        pub(super) fn detect(_: &[u32; 44]) -> Option<Self> {
            None
        }

        pub(super) fn encrypt(&self, _: [u32; 4]) -> [u32; 4] {
            match *self {}
        }
    }
}

/// The byte-wise FIPS-197 cipher the word-wise rounds replaced, kept as
/// the reference the tests check both backends against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{RCON, SBOX};

    /// AES-128 with the state as 16 bytes and the round keys as 11
    /// 16-byte blocks.
    pub(crate) struct ByteAes {
        round_keys: [[u8; 16]; 11],
    }

    impl ByteAes {
        pub(crate) fn new(key: &[u8; 16]) -> Self {
            let mut w = [[0u8; 4]; 44];
            for (i, chunk) in key.chunks_exact(4).enumerate() {
                w[i].copy_from_slice(chunk);
            }
            for i in 4..44 {
                let mut temp = w[i - 1];
                if i % 4 == 0 {
                    temp.rotate_left(1);
                    for b in &mut temp {
                        *b = SBOX[*b as usize];
                    }
                    temp[0] ^= RCON[i / 4 - 1];
                }
                for j in 0..4 {
                    w[i][j] = w[i - 4][j] ^ temp[j];
                }
            }
            let mut round_keys = [[0u8; 16]; 11];
            for (r, rk) in round_keys.iter_mut().enumerate() {
                for c in 0..4 {
                    rk[c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
                }
            }
            ByteAes { round_keys }
        }

        pub(crate) fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
            let mut state = *block;
            add_round_key(&mut state, &self.round_keys[0]);
            for round in 1..10 {
                sub_bytes(&mut state);
                shift_rows(&mut state);
                mix_columns(&mut state);
                add_round_key(&mut state, &self.round_keys[round]);
            }
            sub_bytes(&mut state);
            shift_rows(&mut state);
            add_round_key(&mut state, &self.round_keys[10]);
            state
        }
    }

    fn xtime(b: u8) -> u8 {
        let hi = b & 0x80;
        let mut r = b << 1;
        if hi != 0 {
            r ^= 0x1b;
        }
        r
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// State is column-major: byte `state[c*4 + r]` is row `r`, column `c`.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[c * 4 + r] = s[((c + r) % 4) * 4 + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[c * 4],
                state[c * 4 + 1],
                state[c * 4 + 2],
                state[c * 4 + 3],
            ];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            for r in 0..4 {
                state[c * 4 + r] = col[r] ^ t ^ xtime(col[r] ^ col[(r + 1) % 4]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn block(s: &str) -> [u8; 16] {
        hex(s).try_into().unwrap()
    }

    #[test]
    fn fips197_appendix_a1_key_expansion() {
        let aes = Aes128::new(&block("2b7e151628aed2a6abf7158809cf4f3c"));
        assert_eq!(
            &aes.round_keys[..4],
            &[0x2b7e1516, 0x28aed2a6, 0xabf71588, 0x09cf4f3c]
        );
        assert_eq!(aes.round_keys[4], 0xa0fafe17, "w[4]");
        assert_eq!(
            &aes.round_keys[40..],
            &[0xd014f9a8, 0xc9ee2589, 0xe13f0cc8, 0xb6630ca6]
        );
    }

    #[test]
    fn encrypt_block_matches_encrypt() {
        let aes = Aes128::new(&[7u8; 16]);
        let block = [42u8; 16];
        let mut in_place = block;
        aes.encrypt_block(&mut in_place);
        assert_eq!(in_place, aes.encrypt(&block));
    }

    #[test]
    fn different_keys_differ() {
        let a = Aes128::new(&[1u8; 16]).encrypt(&[0u8; 16]);
        let b = Aes128::new(&[2u8; 16]).encrypt(&[0u8; 16]);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_redacts_the_schedule_in_both_forms() {
        let key = [9u8; 16];
        for aes in [Aes128::with_table_rounds(&key), Aes128::new(&key)] {
            let shown = format!("{aes:?}");
            assert!(shown.contains("<redacted>"), "{shown}");
            for w in aes.round_keys {
                assert!(
                    !shown.contains(&format!("{w:x}")) && !shown.contains(&w.to_string()),
                    "{shown} shows schedule word {w:08x}"
                );
            }
        }
    }

    #[test]
    fn block_ops_counts_each_invocation() {
        let aes = Aes128::new(&[3u8; 16]);
        assert_eq!(aes.block_ops(), 0);
        aes.encrypt(&[0u8; 16]);
        assert_eq!(aes.block_ops(), 1);
        let mut b = [1u8; 16];
        aes.encrypt_block(&mut b);
        aes.encrypt_block(&mut b);
        assert_eq!(aes.block_ops(), 3);
        aes.encrypt_words([0; 4]);
        assert_eq!(aes.block_ops(), 4);
    }

    #[test]
    fn clone_carries_count_then_diverges() {
        let aes = Aes128::new(&[5u8; 16]);
        aes.encrypt(&[0u8; 16]);
        let copy = aes.clone();
        assert_eq!(copy.block_ops(), 1);
        copy.encrypt(&[0u8; 16]);
        assert_eq!(copy.block_ops(), 2);
        assert_eq!(aes.block_ops(), 1, "clones meter independently");
    }

    #[test]
    fn shared_schedule_shares_key_and_meter() {
        let aes = Aes128::new(&[5u8; 16]);
        aes.encrypt(&[0u8; 16]);
        let handle = aes.shared_schedule();
        assert_eq!(
            aes.block_ops(),
            1,
            "constructing a handle performs no block operations"
        );
        assert_eq!(handle.encrypt(&[1u8; 16]), aes.encrypt(&[1u8; 16]));
        assert_eq!(aes.block_ops(), 3, "handles meter into one counter");
        assert_eq!(handle.block_ops(), 3);
    }
}
