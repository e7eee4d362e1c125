//! The session's one host-side store: an ordered delta over the immutable
//! index image — one entry per key, the value (`None` = deleted) and a
//! [`Home`] tag. Every host-side read is "overlay, then [`cpu::lookup`] on
//! the image", every host-side write is one rule (present → update / delete,
//! absent → miss / insert; a delete leaves a tombstone only where the image
//! holds the key), and a range is [`range_query`] on the image with the
//! overlay's interval laid over it. What a session keeps here and why is
//! told on [`CuartSession`](crate::CuartSession); `image ⊕ overlay → new
//! image, clear overlay` is the remap this pair is shaped for.

use crate::buffers::CuartBuffers;
use crate::cpu;
use crate::insert::insert_status;
use crate::range::range_query;
use crate::update::{status, DELETE};
use cuart_gpu_sim::batch::NOT_FOUND;
use std::collections::BTreeMap;
use std::ops::Bound;

/// Why the overlay holds a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Home {
    /// The host is the key's only home: a host-routed class (shorter than
    /// the LUT span, long under CpuRoute), unpackable at the device stride,
    /// or an insert the device spilled.
    Host,
    /// The entry shadows a mutation of a device-eligible key — applied by
    /// the device, or by the CPU engine standing in for it — so the device
    /// may hold the key in an older state after a recovery re-upload.
    Shadow,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    value: Option<u64>,
    home: Home,
}

impl Entry {
    /// A live entry the device will never answer for.
    fn parks(&self) -> bool {
        self.home == Home::Host && self.value.is_some()
    }
}

/// One ordered delta over an immutable [`CuartBuffers`] image.
#[derive(Debug)]
pub(crate) struct HostOverlay<'a> {
    image: &'a CuartBuffers,
    entries: BTreeMap<Vec<u8>, Entry>,
    /// Live [`Home::Host`] entries of device-eligible keys: the inserts the
    /// device could not take.
    parked: usize,
}

impl<'a> HostOverlay<'a> {
    /// An empty overlay: every key reads as `image` has it.
    pub(crate) fn new(image: &'a CuartBuffers) -> Self {
        HostOverlay {
            image,
            entries: BTreeMap::new(),
            parked: 0,
        }
    }

    /// Device-eligible keys parked host-side (spilled or unpackable
    /// inserts). While zero, no device-eligible key needs a map probe.
    pub(crate) fn parked(&self) -> usize {
        self.parked
    }

    /// Is `key` live here with the host as its only home?
    pub(crate) fn is_parked(&self, key: &[u8]) -> bool {
        self.entries.get(key).is_some_and(Entry::parks)
    }

    fn in_image(&self, key: &[u8]) -> bool {
        cpu::lookup(self.image, key).is_some()
    }

    /// Must `key` be answered here rather than by a device that was
    /// re-uploaded from the image: it has an entry, and the device either
    /// may hold the key (`Shadow`) or does, through the image.
    pub(crate) fn preempts(&self, key: &[u8]) -> bool {
        self.entries
            .get(key)
            .is_some_and(|e| e.home == Home::Shadow || self.in_image(key))
    }

    /// Store `value` (`None` = deleted) for `key` under `home`, whatever
    /// was there. A deletion is kept as a tombstone only where the image
    /// holds the key; elsewhere forgetting the key says the same.
    pub(crate) fn set(&mut self, key: &[u8], value: Option<u64>, home: Home) {
        let entry = Entry { value, home };
        let old = if value.is_some() || self.in_image(key) {
            // A key already held is overwritten in place: a batch that
            // rewrites the keys it wrote before allocates nothing here.
            match self.entries.get_mut(key) {
                Some(held) => Some(std::mem::replace(held, entry)),
                None => self.entries.insert(key.to_vec(), entry),
            }
        } else {
            self.entries.remove(key)
        };
        let was = old.is_some_and(|e| e.parks());
        if was != entry.parks() && !self.image.is_host_routed(key) {
            if was {
                self.parked -= 1;
            } else {
                self.parked += 1;
            }
        }
    }

    /// The host-side write: present → `value` replaces it, absent → stored
    /// only if `create`. Returns whether the key was present. A live entry
    /// keeps its home (a parked key written by the CPU engine stays
    /// parked); anything else is stored under `home`.
    fn put(&mut self, key: &[u8], value: Option<u64>, create: bool, home: Home) -> bool {
        let entry = self.entries.get(key);
        let present = match entry {
            Some(entry) => entry.value.is_some(),
            None => self.in_image(key),
        };
        let home = entry.filter(|_| present).map_or(home, |e| e.home);
        if present || create {
            self.set(key, value, home);
        }
        present
    }

    /// Answer a lookup host-side: the overlay, then the image.
    pub(crate) fn lookup(&self, key: &[u8]) -> u64 {
        match self.entries.get(key) {
            Some(entry) => entry.value,
            None => cpu::lookup(self.image, key),
        }
        .unwrap_or(NOT_FOUND)
    }

    /// Apply an update (or, with [`DELETE`], a delete) host-side; answers
    /// an [`update::status`](crate::update::status).
    pub(crate) fn update(&mut self, key: &[u8], value: u64, home: Home) -> u64 {
        if self.put(key, (value != DELETE).then_some(value), false, home) {
            status::APPLIED
        } else {
            status::MISS
        }
    }

    /// Apply an insert host-side; answers an [`insert_status`]. A fresh key
    /// answers `SPILLED` exactly when it lands parked, i.e. when it counts
    /// towards [`parked`](Self::parked).
    pub(crate) fn insert(&mut self, key: &[u8], value: u64, home: Home) -> u64 {
        if self.put(key, Some(value), true, home) {
            insert_status::UPDATED
        } else if home == Home::Host && !self.image.is_host_routed(key) {
            insert_status::SPILLED
        } else {
            insert_status::INSERTED
        }
    }

    /// Every live `(key, value)` row of the inclusive interval `[lo, hi]`,
    /// sorted by key: the image's rows with this overlay's entries laid
    /// over them. Inverted bounds yield nothing.
    pub(crate) fn range(&self, lo: &[u8], hi: &[u8]) -> Vec<(Vec<u8>, u64)> {
        if lo > hi {
            return Vec::new();
        }
        let rows = range_query(self.image, lo, hi);
        let bounds = (Bound::Included(lo), Bound::Included(hi));
        let mut delta = self.entries.range::<[u8], _>(bounds).peekable();
        if delta.peek().is_none() {
            return rows;
        }
        let live = |(key, entry): (&Vec<u8>, &Entry)| entry.value.map(|v| (key.clone(), v));
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            while let Some(before) = delta.next_if(|(key, _)| **key < row.0) {
                out.extend(live(before));
            }
            match delta.next_if(|(key, _)| **key == row.0) {
                Some(over) => out.extend(live(over)),
                None => out.push(row),
            }
        }
        out.extend(delta.filter_map(live));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::{CuartConfig, LongKeyPolicy};
    use crate::mapper::map_art;
    use cuart_art::Art;

    const SHORT: &[u8] = b"ab"; // shorter than the 3-byte LUT span
    const LONG: &[u8] = &[9u8; 40]; // longer than the device maximum
    const DEVICE: &[u8] = b"device_resident";

    /// An image holding one key of each class.
    fn image() -> CuartBuffers {
        let mut art = Art::new();
        art.insert(SHORT, 1).unwrap();
        art.insert(LONG, 2).unwrap();
        art.insert(DEVICE, 3).unwrap();
        map_art(
            &art,
            &CuartConfig {
                lut_span: 3,
                long_key_policy: LongKeyPolicy::CpuRoute,
                multi_layer_nodes: false,
                single_leaf_class: false,
            },
        )
    }

    /// The write rule, per kind × {absent, live, tombstoned, in-image}, for
    /// a key of each home.
    #[test]
    fn write_rule_per_kind_and_state() {
        let image = image();
        for (home, fresh, held, inserted) in [
            (Home::Host, b"zz".as_slice(), SHORT, insert_status::INSERTED),
            (Home::Host, b"parked-key", DEVICE, insert_status::SPILLED),
            (Home::Shadow, b"cpu-insert", DEVICE, insert_status::INSERTED),
        ] {
            let mut o = HostOverlay::new(&image);
            // Absent: updates and deletes miss and store nothing.
            assert_eq!(o.update(fresh, 5, home), status::MISS);
            assert_eq!(o.update(fresh, DELETE, home), status::MISS);
            assert!(o.entries.is_empty());
            assert_eq!(o.insert(fresh, 6, home), inserted);
            // Live in the overlay.
            assert_eq!(o.insert(fresh, 7, home), insert_status::UPDATED);
            assert_eq!(o.update(fresh, 8, home), status::APPLIED);
            assert_eq!(o.lookup(fresh), 8);
            // Deleting a key the image does not hold forgets it.
            assert_eq!(o.update(fresh, DELETE, home), status::APPLIED);
            assert!(o.entries.is_empty());
            assert_eq!(o.lookup(fresh), NOT_FOUND);
            // In the image only.
            assert_eq!(o.insert(held, 9, home), insert_status::UPDATED);
            assert_eq!(o.update(held, 10, home), status::APPLIED);
            // Deleting a key the image holds leaves a tombstone …
            assert_eq!(o.update(held, DELETE, home), status::APPLIED);
            assert!(o.entries.get(held).is_some_and(|e| e.value.is_none()));
            assert_eq!(o.lookup(held), NOT_FOUND);
            // … over which the key is absent again.
            assert_eq!(o.update(held, 11, home), status::MISS);
            assert_eq!(o.update(held, DELETE, home), status::MISS);
            assert_ne!(o.insert(held, 12, home), insert_status::UPDATED);
            assert_eq!(o.lookup(held), 12);
        }
    }

    #[test]
    fn a_live_entry_keeps_its_home() {
        let image = image();
        let mut o = HostOverlay::new(&image);
        o.set(b"parked-key", Some(1), Home::Host);
        // The CPU engine, standing in for the device, writes a parked key.
        assert_eq!(o.update(b"parked-key", 2, Home::Shadow), status::APPLIED);
        assert!(o.is_parked(b"parked-key"));
        // A device mutation the session shadows replaces whatever was there.
        o.set(b"parked-key", Some(3), Home::Shadow);
        assert!(!o.is_parked(b"parked-key"));
        assert_eq!(o.parked(), 0);
    }

    #[test]
    fn parked_counts_live_device_eligible_host_entries() {
        let image = image();
        let mut o = HostOverlay::new(&image);
        let key = b"parked-key".as_slice();
        o.set(key, Some(1), Home::Host); // park
        o.set(b"zz", Some(1), Home::Host); // host-routed class
        o.set(b"shadowed", Some(1), Home::Shadow);
        assert_eq!(o.parked(), 1);
        o.update(key, 2, Home::Host);
        o.insert(key, 3, Home::Host);
        assert_eq!(o.parked(), 1, "rewrites do not double-count");
        o.update(key, DELETE, Home::Host);
        assert_eq!(o.parked(), 0);
        o.set(key, Some(4), Home::Host); // re-park
        assert_eq!(o.parked(), 1);
        // A device key deleted (shadowed tombstone), then spilled on re-insert.
        o.set(DEVICE, None, Home::Shadow);
        assert!(o.preempts(DEVICE) && !o.is_parked(DEVICE));
        o.set(DEVICE, Some(5), Home::Host);
        assert_eq!(o.parked(), 2);
        assert!(o.preempts(DEVICE), "the image still holds it");
        assert!(!o.preempts(key) && !o.preempts(b"absent"));
        assert!(o.preempts(b"shadowed"));
    }

    #[test]
    fn range_lays_the_overlay_over_the_image() {
        let mut art = Art::new();
        let mut model = BTreeMap::new();
        for i in 0..200u64 {
            let key = format!("row-{:04}", i * 3).into_bytes();
            art.insert(&key, i).unwrap();
            model.insert(key, i);
        }
        let image = map_art(&art, &CuartConfig::for_tests());
        let mut o = HostOverlay::new(&image);
        for i in 0..600u64 {
            let key = format!("row-{i:04}").into_bytes();
            match i % 7 {
                0 => {
                    o.update(&key, DELETE, Home::Shadow);
                    model.remove(&key);
                }
                1 | 2 => {
                    o.insert(&key, 1000 + i, Home::Host);
                    model.insert(key, 1000 + i);
                }
                _ => {}
            }
        }
        let row = |i: u64| format!("row-{i:04}").into_bytes();
        for (lo, hi) in [
            (vec![], vec![0xFF; 40]),   // everything, bounds far outside
            (vec![0u8], vec![b'a']),    // nothing: below every key
            (row(30), row(31)),         // a handful
            (row(302), row(302)),       // a point that is overlay-only
            (row(0), row(0)),           // a point the overlay deleted
            (row(500), row(100)),       // inverted
            (row(590), vec![0xFF; 12]), // the tail past the image's last key
        ] {
            let want: Vec<(Vec<u8>, u64)> = if lo > hi {
                Vec::new()
            } else {
                model
                    .range(lo.clone()..=hi.clone())
                    .map(|(k, v)| (k.clone(), *v))
                    .collect()
            };
            assert_eq!(o.range(&lo, &hi), want, "{lo:?}..={hi:?}");
        }
    }
}
