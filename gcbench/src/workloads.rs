//! The three workloads, each modelled on one of the paper's programs and
//! rebuilt as a loop of operations.  Every workload keeps a plain-Rust
//! shadow of what each long-lived slot must hold, checks every probe
//! against it, and checks every slot again at the end of each session.

use otf_gc::{AllocError, ObjShape, ObjectRef};
use otf_support::rand::{RngCore, RngExt, StdRng};

use crate::probe::Timed;

/// Mismatches between the heap and a shadow model.
#[derive(Default)]
pub struct Check {
    pub mismatches: u64,
    pub first: Vec<String>,
}

impl Check {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches += 1;
            if self.first.len() < 8 {
                self.first.push(what());
            }
        }
    }
}

/// One workload: builds its long-lived structure, then runs operations.
pub trait Workload: Sized {
    /// Builds and roots the long-lived structure from seeded inputs.
    fn build(t: &mut Timed, rng: &mut StdRng) -> Result<Self, AllocError>;
    /// One operation.  An `Err` abandons the operation, which counts as
    /// failed; the shadow is only updated for stores that happened.
    fn op(&mut self, t: &mut Timed, rng: &mut StdRng, check: &mut Check) -> Result<(), AllocError>;
    /// Checks every long-lived slot against the shadow.
    fn check_all(&self, t: &Timed, check: &mut Check);
}

/// References per spine chunk of the chunked arrays.
const CHUNK: usize = 1024;
/// Salt mixed into payload words, so a word read from the wrong object
/// (or a freed and reused granule) fails the comparison.
const SALT: u64 = 0x5EED_0FC0_FFEE_0001;

fn array(len: usize) -> ObjShape {
    ObjShape::new(len, 0).with_class(1)
}

fn data(words: usize) -> ObjShape {
    ObjShape::new(0, words).with_class(2)
}

fn node(refs: usize, words: usize) -> ObjShape {
    ObjShape::new(refs, words).with_class(3)
}

/// Think time standing in for the program's own computation, as in the
/// `otf-workloads` models (`toolkit::mix`): without it a compiled loop
/// allocates far faster than the paper's programs did, and the collector
/// would take a far larger share of the run than theirs.
#[inline]
fn mix(mut x: u64, rounds: u32) -> u64 {
    for _ in 0..rounds {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
    }
    std::hint::black_box(x)
}

/// Allocates a chunked array of `n` reference slots (a spine of chunks),
/// roots the spine and returns it.
fn chunked(t: &mut Timed, n: usize) -> Result<ObjectRef, AllocError> {
    let spine = t.alloc(&array(n.div_ceil(CHUNK)))?;
    t.m.root_push(spine);
    for c in 0..n.div_ceil(CHUNK) {
        let chunk = t.alloc(&array(CHUNK.min(n - c * CHUNK)))?;
        t.write_ref(spine, c, chunk);
    }
    Ok(spine)
}

#[inline]
fn slot_of(t: &Timed, spine: ObjectRef, i: usize) -> (ObjectRef, usize) {
    (t.read_ref(spine, i / CHUNK), i % CHUNK)
}

/// The first `N` data words of `obj`, or `None` for a null reference
/// (which no checked slot may hold).
fn words<const N: usize>(t: &Timed, obj: ObjectRef) -> Option<[u64; N]> {
    (!obj.is_null()).then(|| std::array::from_fn(|k| t.m.read_data(obj, k)))
}

// ----- young_churn ------------------------------------------------------

/// Anagram-shaped: a long-lived dictionary that is never written again,
/// and bursts of short strings that die as soon as they have been probed.
pub struct YoungChurn {
    dict: ObjectRef,
    /// Shadow: the key of every dictionary word.
    words: Vec<u64>,
}

// The constants of the workloads are those of the calibrated
// `otf-workloads` models (`Anagram::new`, `Jess::new`, `Db::new`), which
// reproduce the paper's generational signatures; only `large_index`'s
// record count is set apart (see README.md).

/// Dictionary words (`Anagram::dict_size`).
const DICT_WORDS: usize = 120_000;
/// Strings per operation, one input's permutations
/// (`Anagram::permutations_per_input`); each is split into two fragments
/// that probe the dictionary.
const BURST: usize = 24;
/// Think-time rounds per permuted string, and per fragment's probe.
const PERMUTE_MIX: u32 = 192;
const PROBE_MIX: u32 = 8;

fn word_payload(key: u64, i: u64) -> [u64; 3] {
    [key, key.rotate_left(17) ^ SALT, i]
}

impl Workload for YoungChurn {
    fn build(t: &mut Timed, rng: &mut StdRng) -> Result<Self, AllocError> {
        let dict = chunked(t, DICT_WORDS)?;
        let mut words = Vec::with_capacity(DICT_WORDS);
        for i in 0..DICT_WORDS {
            let key = rng.next_u64();
            let w = t.alloc(&data(3))?;
            for (k, v) in word_payload(key, i as u64).into_iter().enumerate() {
                t.m.write_data(w, k, v);
            }
            let (chunk, j) = slot_of(t, dict, i);
            t.write_ref(chunk, j, w);
            words.push(key);
        }
        Ok(YoungChurn { dict, words })
    }

    fn op(&mut self, t: &mut Timed, rng: &mut StdRng, check: &mut Check) -> Result<(), AllocError> {
        let frame = t.m.root_len();
        let r = self.burst(t, rng, check, frame);
        t.m.root_truncate(frame);
        t.cooperate();
        r
    }

    fn check_all(&self, t: &Timed, check: &mut Check) {
        for (i, &key) in self.words.iter().enumerate() {
            self.check_word(t, i, key, check);
        }
    }
}

impl YoungChurn {
    fn check_word(&self, t: &Timed, i: usize, key: u64, check: &mut Check) {
        let (chunk, j) = slot_of(t, self.dict, i);
        let want = word_payload(key, i as u64);
        let got = words::<3>(t, t.read_ref(chunk, j));
        check.expect(got == Some(want), || {
            format!("young_churn: dictionary word {i} holds {got:x?}, shadow {want:x?}")
        });
    }

    fn burst(
        &self,
        t: &mut Timed,
        rng: &mut StdRng,
        check: &mut Check,
        frame: usize,
    ) -> Result<(), AllocError> {
        let mut text = [0u64; BURST];
        for s_text in text.iter_mut() {
            *s_text = rng.next_u64();
            let s = t.alloc(&data(3))?;
            t.m.write_data(s, 0, *s_text);
            t.m.write_data(s, 1, !*s_text);
            t.m.write_data(s, 2, *s_text ^ SALT);
            t.m.root_push(s);
            // "Permute the characters", then probe both halves.
            let h = mix(*s_text, PERMUTE_MIX);
            for half in 0..2u64 {
                let frag = t.alloc(&data(2))?;
                t.m.write_data(frag, 0, h ^ half);
                let probe = (mix(h ^ half, PROBE_MIX) % DICT_WORDS as u64) as usize;
                self.check_word(t, probe, self.words[probe], check);
            }
        }
        // The burst's strings, rooted across every allocation above,
        // still hold what was written into them.
        for (p, &v) in text.iter().enumerate() {
            let got = words::<3>(t, t.m.root_get(frame + p));
            check.expect(got == Some([v, !v, v ^ SALT]), || {
                format!("young_churn: rooted string {p} holds {got:x?}, wrote {v:x}")
            });
        }
        Ok(())
    }
}

// ----- old_writes -------------------------------------------------------

/// Jess-shaped: thousands of small long-lived buckets spread across the
/// old generation, into whose slots fresh facts are asserted.  Hot-slot
/// facts die young; cold-slot facts outlive a partial collection, are
/// promoted, and then die.
pub struct OldWrites {
    spine: ObjectRef,
    /// Shadow: the id of the fact last asserted into each bucket slot
    /// (0 = never asserted, the slot is null).
    slots: Vec<[u64; 2]>,
    next_id: u64,
}

/// Working-memory buckets (`Jess::buckets`).
const BUCKETS: usize = 2500;
/// A short-lived pad of 1 to 5 words follows every `PAD_EVERY`-th bucket.
const PAD_EVERY: usize = 7;
/// Facts asserted and slots probed per operation.  A jess round asserts
/// 4,000 facts and probes 64 slots; an operation keeps that ratio at a
/// 64th of the size.
const ASSERTS: usize = 64;
const PROBES: usize = 1;
/// Percentage of asserts that go to a bucket's cold slot
/// (`Jess::cold_percent`).
const COLD_PERCENT: u32 = 3;
/// Think-time rounds per asserted fact (rule-network evaluation).
const RULE_MIX: u32 = 256;

impl Workload for OldWrites {
    fn build(t: &mut Timed, rng: &mut StdRng) -> Result<Self, AllocError> {
        let spine = chunked(t, BUCKETS)?;
        for b in 0..BUCKETS {
            let bucket = t.alloc(&node(2, 1))?;
            t.m.write_data(bucket, 0, b as u64 ^ SALT);
            let (chunk, j) = slot_of(t, spine, b);
            t.write_ref(chunk, j, bucket);
            // Short-lived padding between buckets, so the buckets are
            // not perfectly contiguous (jess's dirty objects are spread).
            if b % PAD_EVERY == 0 {
                let _pad = t.alloc(&data(rng.random_range(1..6)))?;
            }
        }
        Ok(OldWrites {
            spine,
            slots: vec![[0; 2]; BUCKETS],
            next_id: 1,
        })
    }

    fn op(&mut self, t: &mut Timed, rng: &mut StdRng, check: &mut Check) -> Result<(), AllocError> {
        let r = self.assert_facts(t, rng);
        for _ in 0..PROBES {
            let b = rng.random_range(0..BUCKETS);
            let slot = usize::from(rng.random_range(0..100) < 50);
            self.check_slot(t, b, slot, check);
        }
        t.cooperate();
        r
    }

    fn check_all(&self, t: &Timed, check: &mut Check) {
        for b in 0..BUCKETS {
            for slot in 0..2 {
                self.check_slot(t, b, slot, check);
            }
        }
    }
}

impl OldWrites {
    fn assert_facts(&mut self, t: &mut Timed, rng: &mut StdRng) -> Result<(), AllocError> {
        for _ in 0..ASSERTS {
            let id = self.next_id;
            self.next_id += 1;
            let fact = t.alloc(&node(1, 2))?;
            t.m.write_data(fact, 0, id);
            t.m.write_data(fact, 1, id ^ SALT);
            t.m.root_push(fact);
            let detail = t.alloc(&data(2));
            t.m.root_pop();
            let detail = detail?;
            t.m.write_data(detail, 0, id.wrapping_mul(3));
            t.m.write_data(detail, 1, !id);
            t.write_ref(fact, 0, detail);
            // Rule-network evaluation for the new fact.
            mix(id, RULE_MIX);
            let slot = usize::from(rng.random_range(0..100) < COLD_PERCENT);
            let b = rng.random_range(0..BUCKETS);
            let (chunk, j) = slot_of(t, self.spine, b);
            let bucket = t.read_ref(chunk, j);
            t.write_ref(bucket, slot, fact);
            self.slots[b][slot] = id;
        }
        Ok(())
    }

    fn check_slot(&self, t: &Timed, b: usize, slot: usize, check: &mut Check) {
        let (chunk, j) = slot_of(t, self.spine, b);
        let bucket = t.read_ref(chunk, j);
        let tag = words::<1>(t, bucket);
        check.expect(tag == Some([b as u64 ^ SALT]), || {
            format!("old_writes: bucket {b} holds tag {tag:x?}")
        });
        if tag.is_none() {
            return;
        }
        let id = self.slots[b][slot];
        let fact = t.read_ref(bucket, slot);
        if id == 0 {
            check.expect(fact.is_null(), || {
                format!("old_writes: bucket {b} slot {slot} should be null")
            });
            return;
        }
        let got = words::<2>(t, fact);
        let got_detail = got.and_then(|_| words::<2>(t, t.read_ref(fact, 0)));
        check.expect(
            got == Some([id, id ^ SALT]) && got_detail == Some([id.wrapping_mul(3), !id]),
            || {
                format!(
                    "old_writes: bucket {b} slot {slot} holds fact {got:x?}/{got_detail:x?}, \
                     shadow id {id}"
                )
            },
        );
    }
}

// ----- large_index ------------------------------------------------------

/// Db-shaped: queries probe a long-lived index of records several
/// megabytes in size, allocating a small temporary per lookup; a share of
/// lookups replace the record's value (an old-to-young store).
pub struct LargeIndex {
    index: ObjectRef,
    /// Shadow: every record's current value tag.
    values: Vec<u64>,
}

/// Records in the index.  `Db::records` is 40,000; 100,000 makes the
/// old generation large enough for its full trace to show.
const RECORDS: usize = 100_000;
/// Lookups per query (one operation).
const LOOKUPS: usize = 16;
/// Percentage of lookups that replace the record's value
/// (`Db::update_percent`).
const UPDATE_PERCENT: u32 = 3;
/// Think-time rounds per lookup, spent filling its cursor.
const CURSOR_MIX: u32 = 192;

fn value_payload(tag: u64) -> [u64; 2] {
    [tag, tag.rotate_left(23) ^ SALT]
}

impl Workload for LargeIndex {
    fn build(t: &mut Timed, rng: &mut StdRng) -> Result<Self, AllocError> {
        let index = chunked(t, RECORDS)?;
        let mut values = Vec::with_capacity(RECORDS);
        for r in 0..RECORDS {
            let rec = t.alloc(&node(1, 2))?;
            t.m.write_data(rec, 0, r as u64);
            t.m.write_data(rec, 1, r as u64 ^ SALT);
            // Store the record before allocating its value: allocation is
            // a safe point, and an unrooted, unstored ref does not
            // survive one.
            let (chunk, j) = slot_of(t, index, r);
            t.write_ref(chunk, j, rec);
            let tag = rng.next_u64();
            let v = t.alloc(&data(2))?;
            for (k, w) in value_payload(tag).into_iter().enumerate() {
                t.m.write_data(v, k, w);
            }
            t.write_ref(rec, 0, v);
            values.push(tag);
        }
        Ok(LargeIndex { index, values })
    }

    fn op(&mut self, t: &mut Timed, rng: &mut StdRng, check: &mut Check) -> Result<(), AllocError> {
        for _ in 0..LOOKUPS {
            let r = rng.random_range(0..RECORDS);
            let rec = self.record(t, r, check);
            let Some(rec) = rec else { continue };
            // The query's cursor: a temporary that dies at once.
            let cursor = t.alloc(&data(2))?;
            t.m.write_data(cursor, 0, mix(r as u64, CURSOR_MIX));
            if rng.random_range(0..100) < UPDATE_PERCENT {
                let tag = rng.next_u64();
                let v = t.alloc(&data(2))?;
                for (k, w) in value_payload(tag).into_iter().enumerate() {
                    t.m.write_data(v, k, w);
                }
                t.write_ref(rec, 0, v);
                self.values[r] = tag;
            } else {
                self.check_value(t, rec, r, check);
            }
        }
        t.cooperate();
        Ok(())
    }

    fn check_all(&self, t: &Timed, check: &mut Check) {
        for r in 0..RECORDS {
            if let Some(rec) = self.record(t, r, check) {
                self.check_value(t, rec, r, check);
            }
        }
    }
}

impl LargeIndex {
    /// Record `r`, checked against its key; `None` (a mismatch) if the
    /// index slot is null.
    fn record(&self, t: &Timed, r: usize, check: &mut Check) -> Option<ObjectRef> {
        let (chunk, j) = slot_of(t, self.index, r);
        let rec = t.read_ref(chunk, j);
        let got = words::<2>(t, rec);
        check.expect(got == Some([r as u64, r as u64 ^ SALT]), || {
            format!("large_index: record {r} holds key {got:x?}")
        });
        got.map(|_| rec)
    }

    fn check_value(&self, t: &Timed, rec: ObjectRef, r: usize, check: &mut Check) {
        let got = words::<2>(t, t.read_ref(rec, 0));
        let want = value_payload(self.values[r]);
        check.expect(got == Some(want), || {
            format!("large_index: record {r} value holds {got:x?}, shadow {want:x?}")
        });
    }
}
