//! Flat little-endian memory model.

use std::cell::RefCell;
use std::fmt;

/// Error for accesses outside the configured memory size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemError {
    /// Faulting byte address.
    pub addr: u32,
    /// Access size in bytes.
    pub size: u32,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "out-of-bounds memory access of {} byte(s) at {:#010x}", self.size, self.addr)
    }
}

impl std::error::Error for MemError {}

/// Bytes per page of a memory's dirty map.
const PAGE_BYTES: usize = 4096;

/// Buffers a thread keeps for its next [`Memory::new`].
const POOL_BUFFERS: usize = 2;

thread_local! {
    /// Zero-filled buffers of dropped memories, ready for reuse.
    static POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// A flat byte-addressable memory starting at address zero.
///
/// All multi-byte accesses are little-endian. Misaligned accesses are
/// permitted (RV32 allows implementations to support them; modelling traps
/// would add nothing to the evaluation).
///
/// A simulation builds one memory per session, so a dropped memory hands
/// its buffer to a small per-thread pool instead of freeing it: every
/// write marks its pages dirty, and only those pages are zeroed before the
/// buffer is reused. A fresh memory reads zero everywhere either way.
///
/// # Examples
///
/// ```
/// use rv32::mem::Memory;
/// let mut m = Memory::new(1024);
/// m.write_u32(0x10, 0xdead_beef)?;
/// assert_eq!(m.read_u16(0x10)?, 0xbeef);
/// # Ok::<(), rv32::mem::MemError>(())
/// ```
#[derive(Clone)]
pub struct Memory {
    data: Vec<u8>,
    /// One bit per [`PAGE_BYTES`] page that may hold a nonzero byte.
    dirty: Vec<u64>,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory").field("size", &self.data.len()).finish()
    }
}

impl Memory {
    /// Creates a zero-filled memory of `size` bytes.
    pub fn new(size: usize) -> Memory {
        let pooled = POOL.try_with(|pool| {
            let mut pool = pool.try_borrow_mut().ok()?;
            let i = pool.iter().position(|buffer| buffer.len() == size)?;
            Some(pool.swap_remove(i))
        });
        let data = pooled.ok().flatten().unwrap_or_else(|| vec![0; size]);
        Memory { data, dirty: vec![0; size.div_ceil(PAGE_BYTES).div_ceil(64)] }
    }

    /// Marks the pages of the in-bounds range `[i, i + len)` dirty.
    #[inline]
    fn mark(&mut self, i: usize, len: usize) {
        if len == 0 {
            return;
        }
        for page in i / PAGE_BYTES..=(i + len - 1) / PAGE_BYTES {
            self.dirty[page / 64] |= 1 << (page % 64);
        }
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.data.len()
    }

    fn check(&self, addr: u32, size: u32) -> Result<usize, MemError> {
        if size == 0 {
            return Ok(addr.min(self.data.len() as u32) as usize);
        }
        let end = addr as u64 + size as u64;
        if end <= self.data.len() as u64 {
            Ok(addr as usize)
        } else {
            Err(MemError { addr, size })
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if `addr` is out of bounds.
    pub fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        let i = self.check(addr, 1)?;
        Ok(self.data[i])
    }

    /// Reads a little-endian half-word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the 2-byte range is out of bounds.
    pub fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        let i = self.check(addr, 2)?;
        Ok(u16::from_le_bytes([self.data[i], self.data[i + 1]]))
    }

    /// Reads a little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the 4-byte range is out of bounds.
    pub fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        let i = self.check(addr, 4)?;
        Ok(u32::from_le_bytes([self.data[i], self.data[i + 1], self.data[i + 2], self.data[i + 3]]))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if `addr` is out of bounds.
    pub fn write_u8(&mut self, addr: u32, v: u8) -> Result<(), MemError> {
        let i = self.check(addr, 1)?;
        self.mark(i, 1);
        self.data[i] = v;
        Ok(())
    }

    /// Writes a little-endian half-word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the 2-byte range is out of bounds.
    pub fn write_u16(&mut self, addr: u32, v: u16) -> Result<(), MemError> {
        let i = self.check(addr, 2)?;
        self.mark(i, 2);
        self.data[i..i + 2].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Writes a little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the 4-byte range is out of bounds.
    pub fn write_u32(&mut self, addr: u32, v: u32) -> Result<(), MemError> {
        let i = self.check(addr, 4)?;
        self.mark(i, 4);
        self.data[i..i + 4].copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Copies `bytes` into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is out of bounds.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        let i = self.check(addr, bytes.len() as u32)?;
        self.mark(i, bytes.len());
        self.data[i..i + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Returns a view of `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is out of bounds.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<&[u8], MemError> {
        let i = self.check(addr, len)?;
        Ok(&self.data[i..i + len as usize])
    }

    /// Reads `count` consecutive little-endian words.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is out of bounds.
    pub fn read_words(&self, addr: u32, count: u32) -> Result<Vec<u32>, MemError> {
        (0..count).map(|i| self.read_u32(addr + 4 * i)).collect()
    }

    /// Writes consecutive little-endian words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is out of bounds.
    pub fn write_words(&mut self, addr: u32, words: &[u32]) -> Result<(), MemError> {
        for (i, w) in words.iter().enumerate() {
            self.write_u32(addr + 4 * i as u32, *w)?;
        }
        Ok(())
    }
}

impl Drop for Memory {
    fn drop(&mut self) {
        let mut data = std::mem::take(&mut self.data);
        let dirty = &self.dirty;
        // A thread that is exiting has no pool left; its buffer is freed.
        let _ = POOL.try_with(|pool| {
            let Ok(mut pool) = pool.try_borrow_mut() else { return };
            if pool.len() == POOL_BUFFERS {
                return;
            }
            let len = data.len();
            for (word, &bits) in dirty.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let start = (word * 64 + bits.trailing_zeros() as usize) * PAGE_BYTES;
                    data[start..(start + PAGE_BYTES).min(len)].fill(0);
                    bits &= bits - 1;
                }
            }
            pool.push(data);
        });
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    #[test]
    fn little_endian_round_trip() {
        let mut m = Memory::new(64);
        m.write_u32(0, 0x0403_0201).unwrap();
        assert_eq!(m.read_u8(0).unwrap(), 0x01);
        assert_eq!(m.read_u8(3).unwrap(), 0x04);
        assert_eq!(m.read_u16(1).unwrap(), 0x0302, "misaligned read allowed");
    }

    #[test]
    fn bounds() {
        let mut m = Memory::new(8);
        assert!(m.read_u32(5).is_err());
        assert!(m.read_u32(4).is_ok());
        assert!(m.write_u8(8, 0).is_err());
        assert_eq!(m.read_u32(u32::MAX).unwrap_err(), MemError { addr: u32::MAX, size: 4 });
    }

    #[test]
    fn bulk_access() {
        let mut m = Memory::new(32);
        m.write_words(4, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_words(4, 3).unwrap(), vec![1, 2, 3]);
        m.write_bytes(0, b"abcd").unwrap();
        assert_eq!(m.read_bytes(0, 4).unwrap(), b"abcd");
    }

    /// One write of a random width at a random address, clamped in range.
    fn write(m: &mut Memory, kind: u8, addr: u32, value: u32) {
        let size = m.size() as u32;
        match kind % 4 {
            0 => m.write_u8(addr % size, value as u8).unwrap(),
            1 => m.write_u16(addr % (size - 1), value as u16).unwrap(),
            2 => m.write_u32(addr % (size - 3), value).unwrap(),
            _ => {
                let bytes = [value as u8 | 1; 9];
                m.write_bytes(addr % (size - 8), &bytes).unwrap();
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn a_reused_buffer_reads_zero_everywhere(
            writes in proptest::collection::vec((0u8..4, 0u32..u32::MAX, 1u32..u32::MAX), 1..40),
            straddle in 1u32..4,
        ) {
            // Three pages and a partial fourth, so the last page is short.
            let size = 3 * PAGE_BYTES + 100;
            let mut m = Memory::new(size);
            for &(kind, addr, value) in &writes {
                write(&mut m, kind, addr, value);
            }
            m.write_u32(PAGE_BYTES as u32 - straddle, u32::MAX).unwrap();
            m.write_u8(size as u32 - 1, 0xff).unwrap();
            let copy = m.clone();
            drop(m);
            let fresh = Memory::new(size);
            prop_assert!(fresh.read_bytes(0, size as u32).unwrap().iter().all(|&b| b == 0));
            prop_assert_eq!(copy.read_u8(size as u32 - 1).unwrap(), 0xff, "a clone keeps its own bytes");
            let mut clone_of_fresh = fresh.clone();
            clone_of_fresh.write_u8(7, 1).unwrap();
            prop_assert_eq!(fresh.read_u8(7).unwrap(), 0, "a clone shares no page");
            drop((copy, clone_of_fresh, fresh));
            // Every pooled buffer, and one fresh allocation past them.
            let again: Vec<Memory> = (0..=POOL_BUFFERS).map(|_| Memory::new(size)).collect();
            for m in &again {
                prop_assert!(m.read_bytes(0, size as u32).unwrap().iter().all(|&b| b == 0));
            }
        }
    }
}
