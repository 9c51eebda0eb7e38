//! A seeded byte-mutation sweep over the one sealed-set decoder,
//! `SortedSet::open`, for both entry types the installer seals: `u32`
//! (the `.ascsites` registry) and `(u16, u16)` (the `.ascflow` digraph).
//!
//! Every mutated input must give a set or a `SealError`, never a panic;
//! whenever it gives a set, sealing that set again under the same key
//! must open back equal. Mutations: every single-bit flip, truncation at
//! every length, a count word of `u32::MAX` or of one entry past the
//! bytes present, and splices of two valid seals. Where the outcome is
//! known it is pinned: a flip in the entries or the MAC is `BadMac`, a
//! cut before the MAC's end is `Truncated`, and a flip in the padding
//! opens the original set.

use std::fmt::Debug;

use asc_crypto::{Entry, MacKey, SealError, SortedSet, MAC_LEN};
use asc_testkit::{check, Rng};

/// Opens `bytes`; a set it returns must survive a second seal and open.
fn open_and_reseal<T: Entry + Debug>(bytes: &[u8], key: &MacKey) -> Option<SortedSet<T>> {
    match SortedSet::<T>::open(bytes, key) {
        Ok(set) => {
            assert_eq!(SortedSet::open(&set.seal(key), key), Ok(set.clone()));
            Some(set)
        }
        Err(SealError::Truncated | SealError::BadMac) => None,
    }
}

fn sweep<T: Entry + Debug>(seed: u64, draw: fn(&mut Rng) -> T) {
    let key = MacKey::from_seed(seed);
    let empty = SortedSet::<T>::new();
    assert_eq!(SortedSet::open(&empty.seal(&key), &key), Ok(empty));
    check(seed, 24, |rng| {
        let a: SortedSet<T> = (0..rng.range_usize(0, 12)).map(|_| draw(rng)).collect();
        let b: SortedSet<T> = (0..rng.range_usize(0, 12)).map(|_| draw(rng)).collect();
        let sealed_len = 4 + T::WIDTH * a.len() + MAC_LEN;
        // Section padding after the MAC, which opening ignores.
        let sealed = [a.seal(&key), rng.bytes(0, 9)].concat();
        let wrong = MacKey::from_seed(!seed);
        assert_eq!(
            SortedSet::<T>::open(&sealed, &wrong),
            Err(SealError::BadMac)
        );

        for bit in 0..sealed.len() * 8 {
            let mut flipped = sealed.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let opened = open_and_reseal::<T>(&flipped, &key);
            if bit / 8 < 4 {
                assert_eq!(opened, None, "bit {bit} of the count flipped");
            } else if bit / 8 < sealed_len {
                assert_eq!(
                    SortedSet::<T>::open(&flipped, &key),
                    Err(SealError::BadMac),
                    "bit {bit} of the entries or the MAC flipped"
                );
            } else {
                assert_eq!(
                    opened.as_ref(),
                    Some(&a),
                    "bit {bit} of the padding flipped"
                );
            }
        }

        for cut in 0..sealed.len() {
            let opened = SortedSet::<T>::open(&sealed[..cut], &key);
            if cut < sealed_len {
                assert_eq!(opened, Err(SealError::Truncated), "cut at {cut}");
            } else {
                assert_eq!(opened.as_ref(), Ok(&a), "cut at {cut}");
            }
        }

        let room = (sealed.len() - 4) / T::WIDTH;
        for count in [u32::MAX, room as u32 + 1, a.len() as u32 + 1] {
            let mut claimed = sealed.clone();
            claimed[..4].copy_from_slice(&count.to_le_bytes());
            let opened = SortedSet::<T>::open(&claimed, &key);
            if count as usize > room {
                assert_eq!(opened, Err(SealError::Truncated), "count {count}");
            } else {
                assert!(opened.is_err(), "count {count}");
            }
        }

        let other = b.seal(&key);
        for _ in 0..16 {
            let i = rng.range_usize(0, sealed.len() + 1);
            let j = rng.range_usize(0, other.len() + 1);
            open_and_reseal::<T>(&[&sealed[..i], &other[j..]].concat(), &key);
        }
        let both = [&sealed[..sealed_len], &other].concat();
        assert_eq!(open_and_reseal::<T>(&both, &key), Some(a));
    });
}

#[test]
fn site_registry_bytes_never_panic_and_reseal_equal() {
    sweep::<u32>(0x5173, |rng| rng.range_u32(0, 64) * 8);
}

#[test]
fn flow_digraph_bytes_never_panic_and_reseal_equal() {
    sweep::<(u16, u16)>(0xF10, |rng| {
        (rng.range_u32(0, 8) as u16, rng.range_u32(0, 8) as u16)
    });
}
