//! AES-CMAC (OMAC1), the one-key CBC MAC of Iwata–Kurosawa used by the
//! paper's prototype ("AES-CBC-OMAC", producing a 128-bit code).
//!
//! The chaining value and the K1/K2 subkeys stay in the cipher's word
//! layout from the first block to the last; the tag becomes bytes once.
//! Validated against the RFC 4493 test vectors, and in the tests below
//! against a byte-wise CMAC over the byte-wise reference cipher.

use crate::aes::{load_block, store_block, Aes128};

/// Length in bytes of every MAC produced by this crate.
pub const MAC_LEN: usize = 16;

/// A 128-bit message authentication code.
pub type Mac = [u8; MAC_LEN];

/// A CMAC (OMAC1) instance with precomputed subkeys.
///
/// In the simulated system exactly one of these exists inside the trusted
/// installer and one inside the kernel; the untrusted application never holds
/// one.
#[derive(Clone)]
pub struct Cmac {
    aes: Aes128,
    k1: [u32; 4],
    k2: [u32; 4],
}

impl std::fmt::Debug for Cmac {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The subkeys are derived from the key: never print them either.
        f.debug_struct("Cmac")
            .field("aes", &self.aes)
            .field("k1", &"<redacted>")
            .field("k2", &"<redacted>")
            .finish()
    }
}

/// Doubling in GF(2^128): a one-bit left shift of the big-endian block,
/// folding the carry back in as `0x87`.
fn dbl(k: [u32; 4]) -> [u32; 4] {
    let carry = k[0] >> 31;
    [
        (k[0] << 1) | (k[1] >> 31),
        (k[1] << 1) | (k[2] >> 31),
        (k[2] << 1) | (k[3] >> 31),
        (k[3] << 1) ^ (0x87 * carry),
    ]
}

fn xor(a: [u32; 4], b: [u32; 4]) -> [u32; 4] {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

impl Cmac {
    /// Creates a CMAC instance for `key`, deriving the two subkeys.
    pub fn new(key: &[u8; 16]) -> Self {
        Cmac::with_cipher(Aes128::new(key))
    }

    /// A CMAC instance over an expanded key, deriving the two subkeys.
    fn with_cipher(aes: Aes128) -> Self {
        let l = aes.encrypt_words([0; 4]);
        let k1 = dbl(l);
        let k2 = dbl(k1);
        Cmac { aes, k1, k2 }
    }

    /// Computes the CMAC of `msg`.
    pub fn mac(&self, msg: &[u8]) -> Mac {
        // Every block but the last chains as is; the last (possibly empty
        // or partial) one is padded and masked with a subkey.
        let full_blocks = msg.len().saturating_sub(1) / 16;
        let (body, tail) = msg.split_at(full_blocks * 16);
        let mut x = [0u32; 4];
        for block in body.as_chunks::<16>().0 {
            x = self.aes.encrypt_words(xor(x, load_block(block)));
        }
        let mut last = [0u8; 16];
        last[..tail.len()].copy_from_slice(tail);
        let subkey = if tail.len() == 16 {
            self.k1
        } else {
            last[tail.len()] = 0x80;
            self.k2
        };
        let x = xor(x, load_block(&last));
        store_block(self.aes.encrypt_words(xor(x, subkey)))
    }

    /// Verifies `tag` against `msg` in constant shape (full comparison).
    pub fn verify(&self, msg: &[u8], tag: &Mac) -> bool {
        let computed = self.mac(msg);
        // Avoid early exit: fold all byte differences.
        let mut diff = 0u8;
        for i in 0..MAC_LEN {
            diff |= computed[i] ^ tag[i];
        }
        diff == 0
    }

    /// Number of AES block-cipher invocations `mac` performs for a message of
    /// `len` bytes. Used by the kernel's cycle-accounting model so that
    /// simulated verification cost reflects the cryptographic work actually
    /// done.
    pub fn blocks_for_len(len: usize) -> u64 {
        if len == 0 {
            1
        } else {
            len.div_ceil(16) as u64
        }
    }

    /// AES block operations performed through this instance so far (the
    /// subkey derivation in [`Cmac::new`] counts as one). See
    /// [`Aes128::block_ops`].
    pub fn block_ops(&self) -> u64 {
        self.aes.block_ops()
    }

    /// A second handle to the same key material: the expanded AES schedule
    /// and the K1/K2 subkeys are reused (no key expansion, no derivation
    /// block operation) and all handles meter into one shared `block_ops`
    /// counter. See [`Aes128::shared_schedule`].
    pub fn shared_schedule(&self) -> Cmac {
        Cmac {
            aes: self.aes.shared_schedule(),
            k1: self.k1,
            k2: self.k2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aes::reference::ByteAes;
    use asc_testkit::Rng;

    /// CMAC as RFC 4493 writes it, byte by byte over the byte-wise
    /// reference cipher.
    fn reference_cmac(key: &[u8; 16], msg: &[u8]) -> Mac {
        fn dbl(block: &[u8; 16]) -> [u8; 16] {
            let mut out = [0u8; 16];
            for i in 0..15 {
                out[i] = (block[i] << 1) | (block[i + 1] >> 7);
            }
            out[15] = block[15] << 1;
            if block[0] >> 7 == 1 {
                out[15] ^= 0x87;
            }
            out
        }
        let aes = ByteAes::new(key);
        let k1 = dbl(&aes.encrypt(&[0u8; 16]));
        let k2 = dbl(&k1);
        let n = msg.len();
        let full_blocks = if n == 0 { 0 } else { (n - 1) / 16 };
        let mut x = [0u8; 16];
        for i in 0..full_blocks {
            for j in 0..16 {
                x[j] ^= msg[i * 16 + j];
            }
            x = aes.encrypt(&x);
        }
        let tail = &msg[full_blocks * 16..];
        let mut last = [0u8; 16];
        if tail.len() == 16 {
            for j in 0..16 {
                last[j] = tail[j] ^ k1[j];
            }
        } else {
            last[..tail.len()].copy_from_slice(tail);
            last[tail.len()] = 0x80;
            for j in 0..16 {
                last[j] ^= k2[j];
            }
        }
        for j in 0..16 {
            x[j] ^= last[j];
        }
        aes.encrypt(&x)
    }

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn rfc4493_cmac() -> Cmac {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        Cmac::new(&key)
    }

    #[test]
    fn rfc4493_subkeys() {
        let c = rfc4493_cmac();
        assert_eq!(
            store_block(c.k1).to_vec(),
            hex("fbeed618357133667c85e08f7236a8de")
        );
        assert_eq!(
            store_block(c.k2).to_vec(),
            hex("f7ddac306ae266ccf90bc11ee46d513b")
        );
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let c = rfc4493_cmac();
        let tag = c.mac(b"hello world");
        assert!(c.verify(b"hello world", &tag));
        assert!(!c.verify(b"hello worle", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!c.verify(b"hello world", &bad));
    }

    #[test]
    fn block_ops_matches_blocks_for_len() {
        let c = rfc4493_cmac();
        for len in [0usize, 1, 15, 16, 17, 32, 40, 64, 100] {
            let msg = vec![0xabu8; len];
            let before = c.block_ops();
            c.mac(&msg);
            assert_eq!(
                c.block_ops() - before,
                Cmac::blocks_for_len(len),
                "measured blocks disagree with the model for len {len}"
            );
        }
    }

    fn block(s: &str) -> [u8; 16] {
        hex(s).try_into().unwrap()
    }

    /// Every known-answer and differential check, run over the rounds
    /// that `new` expands a key for.
    fn every_vector(new: fn(&[u8; 16]) -> Aes128) {
        // FIPS-197 appendices B and C.1, also holding the reference to them.
        for (key, pt, ct) in [
            (
                "2b7e151628aed2a6abf7158809cf4f3c",
                "3243f6a8885a308d313198a2e0370734",
                "3925841d02dc09fbdc118597196a0b32",
            ),
            (
                "000102030405060708090a0b0c0d0e0f",
                "00112233445566778899aabbccddeeff",
                "69c4e0d86a7b0430d8cdb78070b4c55a",
            ),
        ] {
            let (key, pt, ct) = (block(key), block(pt), block(ct));
            assert_eq!(new(&key).encrypt(&pt), ct, "FIPS-197, key {key:02x?}");
            assert_eq!(ByteAes::new(&key).encrypt(&pt), ct, "reference");
        }

        // RFC 4493 section 4's four examples.
        let c = Cmac::with_cipher(new(&block("2b7e151628aed2a6abf7158809cf4f3c")));
        let msg = hex(concat!(
            "6bc1bee22e409f96e93d7e117393172a",
            "ae2d8a571e03ac9c9eb76fac45af8e51",
            "30c81c46a35ce411e5fbc1191a0a52ef",
            "f69f2445df4f9b17ad2b417be66c3710"
        ));
        for (len, tag) in [
            (0, "bb1d6929e95937287fa37d129b756746"),
            (16, "070a16b46b4d4144f79bdd9dd04a287c"),
            (40, "dfa66747de9ae63030ca32611497c827"),
            (64, "51f0bebf7e3b9d92fc49741779363cfe"),
        ] {
            assert_eq!(c.mac(&msg[..len]).to_vec(), hex(tag), "RFC 4493, len {len}");
        }

        let mut rng = Rng::new(0xAE5_0128);
        for pair in 0..10_000 {
            let key: [u8; 16] = std::array::from_fn(|_| rng.byte());
            let pt: [u8; 16] = std::array::from_fn(|_| rng.byte());
            assert_eq!(
                new(&key).encrypt(&pt),
                ByteAes::new(&key).encrypt(&pt),
                "pair {pair}: key {key:02x?}, block {pt:02x?}"
            );
        }

        let mut rng = Rng::new(0xC3AC_4493);
        for _ in 0..4 {
            let key: [u8; 16] = std::array::from_fn(|_| rng.byte());
            let c = Cmac::with_cipher(new(&key));
            let msg: Vec<u8> = (0..256).map(|_| rng.byte()).collect();
            for len in 0..=256 {
                let before = c.block_ops();
                let tag = c.mac(&msg[..len]);
                assert_eq!(
                    c.block_ops() - before,
                    Cmac::blocks_for_len(len),
                    "blocks metered at len {len}"
                );
                assert_eq!(
                    tag,
                    reference_cmac(&key, &msg[..len]),
                    "key {key:02x?}, len {len}"
                );
            }
        }
    }

    #[test]
    fn table_rounds_pass_every_vector() {
        let aes = Aes128::with_table_rounds(&[0; 16]);
        assert!(!aes.uses_aes_ni());
        every_vector(Aes128::with_table_rounds);
    }

    #[test]
    fn aes_ni_rounds_pass_every_vector() {
        if !Aes128::new(&[0; 16]).uses_aes_ni() {
            // Written past the test harness's capture, so a host without
            // AES-NI shows that this backend went unchecked.
            use std::io::Write;
            let _ = writeln!(
                std::io::stderr(),
                "aes_ni_rounds_pass_every_vector: skipped, this CPU has no AES-NI"
            );
            return;
        }
        every_vector(Aes128::new);
    }

    #[test]
    fn blocks_for_len_boundaries() {
        assert_eq!(Cmac::blocks_for_len(0), 1);
        assert_eq!(Cmac::blocks_for_len(1), 1);
        assert_eq!(Cmac::blocks_for_len(16), 1);
        assert_eq!(Cmac::blocks_for_len(17), 2);
        assert_eq!(Cmac::blocks_for_len(32), 2);
        assert_eq!(Cmac::blocks_for_len(33), 3);
        assert_eq!(Cmac::blocks_for_len(4096), 256);
    }
}
