//! Generational slot table: the one id-keyed store behind every object
//! handle.
//!
//! An [`ObjId`] encodes `(generation << 32) | slot`. A lookup indexes
//! the slot and compares the generation, so a handle freed and then
//! reused for a new object stays dead: the slot's generation moved on.
//! A table is used in one of two roles:
//!
//! * **Issuing** ([`SlotTable::insert_with`]): the catalog hands out ids. A
//!   freed slot is reused last-in first-out with its generation bumped,
//!   so the table grows with peak live objects, not with every
//!   allocation ever made, and the id sequence is a pure function of
//!   the alloc/free sequence (traces stay byte-reproducible).
//! * **Mirroring** ([`SlotTable::install`]): shard managers and the
//!   shard-map table store their entry at the catalog's id.

use crate::object::ObjId;

#[derive(Debug)]
struct Slot<T> {
    generation: u32,
    /// True while the slot sits on the free stack, so a mirroring table
    /// (which never inserts) lists each slot at most once.
    listed: bool,
    value: Option<T>,
}

impl<T> Slot<T> {
    const VACANT: Slot<T> = Slot {
        generation: 0,
        listed: false,
        value: None,
    };
}

/// Generational id → `T` table (see the module docs).
#[derive(Debug)]
pub(crate) struct SlotTable<T> {
    slots: Vec<Slot<T>>,
    /// Vacant slots [`SlotTable::insert_with`] reuses, most recently freed on
    /// top.
    free: Vec<u32>,
    len: usize,
}

/// Slots a table starts with. Most apps never hold more objects live,
/// so their tables never reallocate mid-run. Growing from empty instead
/// reallocates each table several times while the large data buffers
/// are being allocated, leaving freed holes between them; on a 4-shard
/// device that cost about 2 MB of peak RSS.
const INITIAL_SLOTS: usize = 128;

impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        SlotTable {
            slots: Vec::with_capacity(INITIAL_SLOTS),
            free: Vec::new(),
            len: 0,
        }
    }
}

impl<T> SlotTable<T> {
    /// Stores `make(id)` in the most recently freed slot (or a new one)
    /// and returns its id.
    pub(crate) fn insert_with(&mut self, make: impl FnOnce(ObjId) -> T) -> ObjId {
        while let Some(s) = self.free.pop() {
            let slot = &mut self.slots[s as usize];
            slot.listed = false;
            // Skip a slot a mirroring install has filled since it was
            // listed.
            if slot.value.is_none() {
                let id = ObjId::from_parts(s, slot.generation);
                slot.value = Some(make(id));
                self.len += 1;
                return id;
            }
        }
        let s = u32::try_from(self.slots.len()).expect("at most 2^32 object slots");
        let id = ObjId::from_parts(s, 0);
        self.slots.push(Slot {
            value: Some(make(id)),
            ..Slot::VACANT
        });
        self.len += 1;
        id
    }

    /// Stores `value` under an id another table issued.
    ///
    /// # Panics
    ///
    /// If the id's slot is live: slots are reused, so a second install
    /// would silently replace another object.
    pub(crate) fn install(&mut self, id: ObjId, value: T) {
        let s = id.slot();
        if s >= self.slots.len() {
            self.slots.resize_with(s + 1, || Slot::VACANT);
        }
        let slot = &mut self.slots[s];
        assert!(slot.value.is_none(), "install over live {id}");
        slot.generation = id.generation();
        slot.value = Some(value);
        self.len += 1;
    }

    /// Removes and returns the entry for `id`; `None` if it is not live.
    /// The slot's generation moves on, so `id` stays dead after the slot
    /// is reused. A slot whose generation is exhausted is retired.
    pub(crate) fn remove(&mut self, id: ObjId) -> Option<T> {
        let s = id.slot();
        let slot = self.slots.get_mut(s)?;
        if slot.generation != id.generation() {
            return None;
        }
        let value = slot.value.take()?;
        self.len -= 1;
        if let Some(next) = slot.generation.checked_add(1) {
            slot.generation = next;
            if !slot.listed {
                slot.listed = true;
                self.free.push(s as u32);
            }
        }
        Some(value)
    }

    /// The entry for `id`, if live.
    pub(crate) fn get(&self, id: ObjId) -> Option<&T> {
        let slot = self.slots.get(id.slot())?;
        if slot.generation == id.generation() {
            slot.value.as_ref()
        } else {
            None
        }
    }

    /// The entry for `id`, mutably, if live.
    pub(crate) fn get_mut(&mut self, id: ObjId) -> Option<&mut T> {
        let slot = self.slots.get_mut(id.slot())?;
        if slot.generation == id.generation() {
            slot.value.as_mut()
        } else {
            None
        }
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Slots allocated, live or vacant.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_slots_number_sequentially() {
        let mut t = SlotTable::default();
        let ids: Vec<ObjId> = (0..4).map(|i| t.insert_with(|_| i)).collect();
        assert_eq!(ids, (0..4).map(ObjId).collect::<Vec<_>>());
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn reuse_is_lifo_and_bumps_the_generation() {
        let mut t = SlotTable::default();
        let a = t.insert_with(|_| 'a');
        let b = t.insert_with(|_| 'b');
        assert_eq!(t.remove(a), Some('a'));
        assert_eq!(t.remove(b), Some('b'));
        let c = t.insert_with(|_| 'c');
        let d = t.insert_with(|_| 'd');
        assert_eq!((c.slot(), c.generation()), (b.slot(), 1));
        assert_eq!((d.slot(), d.generation()), (a.slot(), 1));
        assert_eq!(t.get(a), None);
        assert_eq!(t.get(b), None);
        assert_eq!(t.get(c), Some(&'c'));
        assert_eq!(t.slots(), 2);
    }

    #[test]
    fn mirror_follows_the_issuing_table() {
        let (mut issuer, mut mirror) = (SlotTable::default(), SlotTable::default());
        for round in 0..1000 {
            let id = issuer.insert_with(|_| round);
            mirror.install(id, round);
            assert_eq!(mirror.get(id), Some(&round));
            if round % 3 != 0 {
                issuer.remove(id);
                assert_eq!(mirror.remove(id), Some(round));
                assert_eq!(mirror.get(id), None);
            }
        }
        assert_eq!(mirror.len(), issuer.len());
        assert!(mirror.free.len() <= mirror.slots());
    }

    #[test]
    fn exhausted_generation_retires_the_slot() {
        let mut t = SlotTable::default();
        let a = t.insert_with(|_| 1);
        t.slots[a.slot()].generation = u32::MAX;
        let last = ObjId::from_parts(a.slot() as u32, u32::MAX);
        assert_eq!(t.remove(last), Some(1));
        let b = t.insert_with(|_| 2);
        assert_ne!(b.slot(), a.slot(), "a retired slot is never reissued");
        assert_eq!(t.get(last), None);
    }
}
