//! Sparse, word-granularity data memory.

use bfetch_snapshot::{Decoder, Encoder, SnapshotError};
use std::collections::HashMap;

/// Words per page (4 KiB pages of 8-byte words).
const PAGE_WORDS: usize = 512;
const PAGE_SHIFT: u64 = 12;
const OFFSET_MASK: u64 = (1 << PAGE_SHIFT) - 1;
/// Word indices (addresses divided by 8) live in a 61-bit space that wraps
/// exactly as byte addresses do.
const WORD_INDEX_MASK: u64 = (1 << 61) - 1;

type Page = [u64; PAGE_WORDS];

fn zero_page() -> Box<Page> {
    Box::new([0; PAGE_WORDS])
}

/// A sparse 64-bit address space storing 8-byte words, allocated lazily in
/// 4 KiB pages.
///
/// Accesses are aligned down to an 8-byte boundary; uninitialized memory
/// reads as zero. This models data values only — timing is the concern of
/// the cache hierarchy in `bfetch-mem`.
///
/// # Example
///
/// ```
/// use bfetch_isa::SparseMemory;
/// let mut m = SparseMemory::new();
/// m.store(0x1000, 42);
/// assert_eq!(m.load(0x1000), 42);
/// assert_eq!(m.load(0x1004), 42); // same word, aligned down
/// assert_eq!(m.load(0xdead_beef), 0); // untouched memory is zero
/// ```
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    pages: HashMap<u64, Box<Page>>,
}

impl SparseMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(addr: u64) -> (u64, usize) {
        let page = addr >> PAGE_SHIFT;
        let word = ((addr & OFFSET_MASK) >> 3) as usize;
        (page, word)
    }

    /// Reads the 8-byte word containing `addr`.
    #[inline]
    pub fn load(&self, addr: u64) -> u64 {
        let (page, word) = Self::split(addr);
        self.pages.get(&page).map_or(0, |p| p[word])
    }

    /// Writes the 8-byte word containing `addr`.
    #[inline]
    pub fn store(&mut self, addr: u64, value: u64) {
        let (page, word) = Self::split(addr);
        self.pages.entry(page).or_insert_with(zero_page)[word] = value;
    }

    /// Writes `words` consecutively starting at `base` (8 bytes apart), one
    /// page run at a time. Addresses wrap at the top of the address space,
    /// as [`ArchState::effective_address`](crate::ArchState::effective_address)
    /// does, so this equals a [`store`](Self::store) of word `i` at
    /// `base.wrapping_add(8 * i)` in every build profile.
    pub fn store_words(&mut self, base: u64, words: &[u64]) {
        let mut addr = base;
        let mut rest = words;
        while !rest.is_empty() {
            let (page, word) = Self::split(addr);
            let n = rest.len().min(PAGE_WORDS - word);
            let dst = self.pages.entry(page).or_insert_with(zero_page);
            dst[word..word + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            addr = addr.wrapping_add(n as u64 * 8);
        }
    }

    /// Number of resident (lazily allocated) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

/// Fills `out` with page `page` of the memory that storing each
/// `(base, words)` segment of `image` in order (as
/// [`SparseMemory::store_words`] does) leaves behind: zeros where no segment
/// reaches, and the last segment's word where segments overlap.
fn image_page(image: &[(u64, Vec<u64>)], page: u64, out: &mut Page) {
    out.fill(0);
    let first = page << (PAGE_SHIFT - 3);
    for (base, words) in image {
        let start = base >> 3;
        // Either the page starts inside the segment, or the segment starts
        // inside the page (both distances modulo the wrapping word space).
        let into = first.wrapping_sub(start) & WORD_INDEX_MASK;
        let at = start.wrapping_sub(first) & WORD_INDEX_MASK;
        if into < words.len() as u64 {
            let from = into as usize;
            let n = (words.len() - from).min(PAGE_WORDS);
            out[..n].copy_from_slice(&words[from..from + n]);
        } else if at < PAGE_WORDS as u64 {
            let at = at as usize;
            let n = words.len().min(PAGE_WORDS - at);
            out[at..at + n].copy_from_slice(&words[..n]);
        }
    }
}

// The snapshot encoding is a delta against a program's initial data image
// (`Program::data`), so a checkpoint does not carry a second copy of the
// image the program section already holds. Comparing against the image at
// save time, rather than tracking dirty pages, keeps the encoding a pure
// function of (image, contents) and leaves `store` untouched.
impl SparseMemory {
    /// Appends every page whose contents differ from `image`, sorted by
    /// page number. A page the image does not reach differs unless it is
    /// all zeros.
    pub fn save_delta(&self, image: &[(u64, Vec<u64>)], w: &mut Encoder) {
        let mut scratch = zero_page();
        let mut delta: Vec<(u64, &Page)> = self.pages.iter().map(|(&k, p)| (k, &**p)).collect();
        delta.sort_unstable_by_key(|&(k, _)| k);
        delta.retain(|&(k, p)| {
            image_page(image, k, &mut scratch);
            *p != *scratch
        });
        w.put_usize(delta.len());
        for (k, p) in delta {
            w.put_u64(k);
            w.put_u64s(p);
        }
    }

    /// Overlays pages written by [`save_delta`](Self::save_delta) onto this
    /// memory, which must hold exactly `image` (as after
    /// [`Program::load_data`](crate::Program::load_data) into an empty
    /// memory). Pages decode in place into their resident page.
    pub fn load_delta(
        &mut self,
        image: &[(u64, Vec<u64>)],
        r: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        let n = r.take_len()?;
        let mut scratch = zero_page();
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let k = r.take_u64()?;
            if prev.is_some_and(|p| p >= k) {
                return Err(SnapshotError::Invalid { what: "memory pages not strictly sorted" });
            }
            prev = Some(k);
            let page = self.pages.entry(k).or_insert_with(zero_page);
            r.take_u64s(&mut page[..])?;
            // a delta page equal to the image is not canonical
            image_page(image, k, &mut scratch);
            if **page == *scratch {
                return Err(SnapshotError::Invalid { what: "memory delta page equals the image" });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_write() {
        let m = SparseMemory::new();
        assert_eq!(m.load(0), 0);
        assert_eq!(m.load(u64::MAX - 7), 0);
    }

    #[test]
    fn write_then_read() {
        let mut m = SparseMemory::new();
        m.store(0x8000, 0xdead_beef);
        assert_eq!(m.load(0x8000), 0xdead_beef);
    }

    #[test]
    fn unaligned_access_aligns_down() {
        let mut m = SparseMemory::new();
        m.store(0x1003, 7); // aligned to 0x1000
        assert_eq!(m.load(0x1000), 7);
        assert_eq!(m.load(0x1007), 7);
        assert_eq!(m.load(0x1008), 0);
    }

    #[test]
    fn adjacent_words_independent() {
        let mut m = SparseMemory::new();
        m.store(0x0, 1);
        m.store(0x8, 2);
        assert_eq!(m.load(0x0), 1);
        assert_eq!(m.load(0x8), 2);
    }

    #[test]
    fn page_boundary() {
        let mut m = SparseMemory::new();
        m.store(0xff8, 11);
        m.store(0x1000, 22);
        assert_eq!(m.load(0xff8), 11);
        assert_eq!(m.load(0x1000), 22);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn store_words_bulk() {
        let mut m = SparseMemory::new();
        m.store_words(0x2000, &[5, 6, 7]);
        assert_eq!(m.load(0x2000), 5);
        assert_eq!(m.load(0x2008), 6);
        assert_eq!(m.load(0x2010), 7);
    }

    /// The reference semantics of `store_words`: one `store` per word.
    fn per_word(segments: &[(u64, Vec<u64>)]) -> SparseMemory {
        let mut m = SparseMemory::new();
        for (base, words) in segments {
            for (i, w) in words.iter().enumerate() {
                m.store(base.wrapping_add(i as u64 * 8), *w);
            }
        }
        m
    }

    fn bulk(segments: &[(u64, Vec<u64>)]) -> SparseMemory {
        let mut m = SparseMemory::new();
        for (base, words) in segments {
            m.store_words(*base, words);
        }
        m
    }

    fn ramp(n: usize, seed: u64) -> Vec<u64> {
        (0..n as u64).map(|i| seed.wrapping_mul(0x9E37_79B9).wrapping_add(i) | 1).collect()
    }

    #[test]
    fn store_words_wraps_at_the_top_of_the_address_space() {
        // Runs in debug and release alike: the old `base + i * 8` panicked
        // on overflow in debug builds and wrapped in release.
        let segs = vec![(u64::MAX - 7, vec![1, 2, 3]), (u64::MAX - 0x1003, ramp(600, 5))];
        let m = bulk(&segs);
        assert_eq!(m.pages, per_word(&segs).pages);
        let m = bulk(&segs[..1]);
        assert_eq!(m.load(u64::MAX - 7), 1);
        assert_eq!(m.load(0), 2);
        assert_eq!(m.load(8), 3);
    }

    #[test]
    fn store_words_equals_per_word_stores() {
        let cases: Vec<Vec<(u64, Vec<u64>)>> = vec![
            // unaligned bases align down word by word
            vec![(0x1003, ramp(5, 1)), (0x2ff9, ramp(3, 2))],
            // segments crossing one and several pages
            vec![(0xff0, ramp(4, 3)), (0x7_0008, ramp(3 * PAGE_WORDS + 17, 4))],
            // overlapping segments: the last write wins
            vec![(0x4000, ramp(1000, 5)), (0x4ff8, ramp(700, 6)), (0x4100, vec![0; 3])],
            vec![],
            vec![(0x9000, vec![])],
        ];
        for segs in &cases {
            assert_eq!(bulk(segs).pages, per_word(segs).pages, "{segs:?}");
        }
    }

    #[test]
    fn image_page_reproduces_the_loaded_image() {
        let segs = vec![
            (0x4000, ramp(1000, 5)),
            (0x4ff8, ramp(700, 6)),
            (0x1003, ramp(5, 1)),
            (u64::MAX - 0x1003, ramp(600, 7)),
        ];
        let m = per_word(&segs);
        let mut out = zero_page();
        for (&k, page) in &m.pages {
            image_page(&segs, k, &mut out);
            assert_eq!(**page, *out, "page {k:#x}");
        }
        image_page(&segs, 0x77_7777, &mut out);
        assert!(out.iter().all(|&w| w == 0));
    }

    fn delta_bytes(m: &SparseMemory, image: &[(u64, Vec<u64>)]) -> Vec<u8> {
        let mut w = Encoder::new();
        m.save_delta(image, &mut w);
        w.into_bytes()
    }

    #[test]
    fn delta_holds_only_changed_pages_and_round_trips() {
        let image = vec![(0x10_0000, ramp(4 * PAGE_WORDS, 9)), (0x20_0003, ramp(3, 8))];
        let mut m = bulk(&image);
        // an untouched image encodes to an empty delta
        assert_eq!(delta_bytes(&m, &image), 0u64.to_le_bytes());
        m.store(0x10_1010, 42); // inside the image
        m.store(0x90_0000, 7); // a fresh page
        m.store(0xA0_0000, 0); // a fresh page that stays all zero
        let bytes = delta_bytes(&m, &image);
        assert_eq!(bytes.len(), 8 + 2 * (8 + PAGE_WORDS * 8));

        let mut back = bulk(&image);
        let mut r = Decoder::new(&bytes);
        back.load_delta(&image, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back.load(0x10_1010), 42);
        assert_eq!(back.load(0x90_0000), 7);
        // the same contents re-encode to the same bytes
        assert_eq!(delta_bytes(&back, &image), bytes);
    }

    #[test]
    fn non_canonical_deltas_are_typed_errors() {
        let image = vec![(0x10_0000, ramp(PAGE_WORDS, 9))];
        let mut w = Encoder::new();
        w.put_usize(1);
        w.put_u64(0x100);
        w.put_u64s(&ramp(PAGE_WORDS, 9));
        let same = w.into_bytes();
        assert_eq!(
            bulk(&image).load_delta(&image, &mut Decoder::new(&same)),
            Err(SnapshotError::Invalid { what: "memory delta page equals the image" })
        );

        let mut w = Encoder::new();
        w.put_usize(2);
        for k in [0x300u64, 0x200] {
            w.put_u64(k);
            w.put_u64s(&[1; PAGE_WORDS]);
        }
        let unsorted = w.into_bytes();
        assert_eq!(
            bulk(&image).load_delta(&image, &mut Decoder::new(&unsorted)),
            Err(SnapshotError::Invalid { what: "memory pages not strictly sorted" })
        );
        assert!(matches!(
            bulk(&image).load_delta(&image, &mut Decoder::new(&unsorted[..100])),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}
