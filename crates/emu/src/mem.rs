//! Flat segmented memory with W⊕X enforcement.
//!
//! The address space mirrors the paper's Linux target: an executable,
//! read-only text segment at the image base; a writable data segment; and a
//! writable stack below `0x0BF0_0000`. The text segment is never writable
//! and the data/stack segments are never executable — the W⊕X policy
//! (paper §2.1) that forces attackers into code reuse in the first place.

//!
//! Segment contents start out `Arc`-shared with the image: a fresh
//! address space for a seed run borrows the image's text and data
//! buffers instead of copying them. The first write to a segment (data
//! stores, or an attack simulation's unchecked write into text) copies
//! just that segment into a plain owned buffer, and every later access
//! to it is an ordinary slice access: no reference count is touched
//! after the first write. The stack is owned from the start. Reads and
//! instruction fetches never copy.

use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Size of the stack segment in bytes (1 MiB).
pub const STACK_SIZE: u32 = 1 << 20;

/// A memory access fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Address not mapped by any segment.
    Unmapped {
        /// Faulting address.
        addr: u32,
    },
    /// Write to a non-writable segment (the text section).
    WriteProtected {
        /// Faulting address.
        addr: u32,
    },
    /// Execution from a non-executable segment (W⊕X violation).
    NotExecutable {
        /// Faulting address.
        addr: u32,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::Unmapped { addr } => write!(f, "unmapped address {addr:#010x}"),
            Fault::WriteProtected { addr } => {
                write!(f, "write to protected address {addr:#010x}")
            }
            Fault::NotExecutable { addr } => {
                write!(f, "execute from non-executable address {addr:#010x}")
            }
        }
    }
}

impl Error for Fault {}

/// A segment's bytes: shared with the loaded image until the first
/// write, owned from then on.
enum Bytes {
    Shared(Arc<Vec<u8>>),
    Owned(Vec<u8>),
}

impl Bytes {
    #[inline]
    fn get(&self) -> &[u8] {
        match self {
            Bytes::Shared(b) => b,
            Bytes::Owned(b) => b,
        }
    }

    /// The bytes for writing, un-sharing them on the first write.
    #[inline]
    fn get_mut(&mut self) -> &mut [u8] {
        if let Bytes::Shared(b) = self {
            *self = Bytes::Owned(b.to_vec());
        }
        match self {
            Bytes::Owned(b) => b,
            Bytes::Shared(_) => unreachable!("un-shared above"),
        }
    }
}

struct Segment {
    base: u32,
    /// Length of `bytes`, kept beside `base` so that finding the segment
    /// of an address reads no pointer.
    len: usize,
    bytes: Bytes,
    writable: bool,
    executable: bool,
}

impl Segment {
    fn new(base: u32, bytes: Bytes, writable: bool, executable: bool) -> Segment {
        Segment {
            base,
            len: bytes.get().len(),
            bytes,
            writable,
            executable,
        }
    }

    /// The offsets of `[addr, addr + len)` within this segment, if the
    /// whole range lies inside it. Computed in `usize`, so a range that
    /// wraps past the top of the address space is never inside.
    #[inline]
    fn range(&self, addr: u32, len: u32) -> Option<Range<usize>> {
        let off = addr.wrapping_sub(self.base) as usize;
        let end = off + len as usize;
        (end <= self.len).then_some(off..end)
    }
}

/// The emulated 32-bit address space.
pub struct Memory {
    /// Text, data, stack: the search order when segments overlap.
    segments: [Segment; 3],
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Memory({} segments)", self.segments.len())
    }
}

impl Memory {
    /// Builds the address space for a program image: text (R+X), data
    /// (R+W, extended by `extra_data` zero bytes of headroom), and a stack
    /// segment ending at `stack_top` (R+W).
    pub fn new(
        text_base: u32,
        text: impl Into<Arc<Vec<u8>>>,
        data_base: u32,
        data: impl Into<Arc<Vec<u8>>>,
        stack_top: u32,
    ) -> Memory {
        let data = data.into();
        // Give the data segment a little headroom so zero-length data
        // sections still accept counter-free programs writing globals.
        let data = if data.is_empty() {
            Bytes::Owned(vec![0; 4])
        } else {
            Bytes::Shared(data)
        };
        Memory {
            segments: [
                Segment::new(text_base, Bytes::Shared(text.into()), false, true),
                Segment::new(data_base, data, true, false),
                Segment::new(
                    stack_top - STACK_SIZE,
                    Bytes::Owned(vec![0; STACK_SIZE as usize]),
                    true,
                    false,
                ),
            ],
        }
    }

    /// The first segment holding all of `[addr, addr + len)`, with the
    /// range's offsets in it.
    #[inline]
    fn find(&self, addr: u32, len: u32) -> Option<(usize, Range<usize>)> {
        self.segments
            .iter()
            .enumerate()
            .find_map(|(i, s)| Some((i, s.range(addr, len)?)))
    }

    /// Reads a 32-bit little-endian word.
    ///
    /// # Errors
    ///
    /// Faults if the range is unmapped.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> Result<u32, Fault> {
        let (si, r) = self.find(addr, 4).ok_or(Fault::Unmapped { addr })?;
        let word = self.segments[si].bytes.get()[r]
            .try_into()
            .expect("4 bytes");
        Ok(u32::from_le_bytes(word))
    }

    /// Writes a 32-bit little-endian word.
    ///
    /// # Errors
    ///
    /// Faults if the range is unmapped or not writable.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), Fault> {
        self.write_bytes(addr, &value.to_le_bytes())
    }

    /// Returns up to `len` bytes starting at `addr` from an *executable*
    /// segment, for instruction fetch.
    ///
    /// # Errors
    ///
    /// Faults if `addr` is unmapped or the segment is not executable
    /// (W⊕X).
    pub fn fetch(&self, addr: u32, len: u32) -> Result<&[u8], Fault> {
        let (si, r) = self.find(addr, 1).ok_or(Fault::Unmapped { addr })?;
        let s = &self.segments[si];
        if !s.executable {
            return Err(Fault::NotExecutable { addr });
        }
        let bytes = s.bytes.get();
        Ok(&bytes[r.start..(r.start + len as usize).min(bytes.len())])
    }

    /// Writes raw bytes, honoring write protection.
    ///
    /// # Errors
    ///
    /// Faults if the range is unmapped or not writable.
    #[inline]
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Fault> {
        let (si, r) = self
            .find(addr, bytes.len() as u32)
            .ok_or(Fault::Unmapped { addr })?;
        let s = &mut self.segments[si];
        if !s.writable {
            return Err(Fault::WriteProtected { addr });
        }
        s.bytes.get_mut()[r].copy_from_slice(bytes);
        Ok(())
    }

    /// Writes raw bytes, *bypassing* write protection. Used by attack
    /// simulations to model a memory-corruption primitive, and by the
    /// loader.
    ///
    /// # Errors
    ///
    /// Faults if the range is unmapped.
    pub fn write_bytes_unchecked(&mut self, addr: u32, bytes: &[u8]) -> Result<(), Fault> {
        let (si, r) = self
            .find(addr, bytes.len() as u32)
            .ok_or(Fault::Unmapped { addr })?;
        self.segments[si].bytes.get_mut()[r].copy_from_slice(bytes);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(0x1000, vec![0xC3; 16], 0x8000, vec![0; 64], 0x10_0000)
    }

    #[test]
    fn data_round_trip() {
        let mut m = mem();
        m.write_u32(0x8000, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read_u32(0x8000).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn stack_is_writable() {
        let mut m = mem();
        m.write_u32(0x10_0000 - 4, 7).unwrap();
        assert_eq!(m.read_u32(0x10_0000 - 4).unwrap(), 7);
    }

    #[test]
    fn text_is_write_protected() {
        let mut m = mem();
        assert_eq!(
            m.write_u32(0x1000, 0),
            Err(Fault::WriteProtected { addr: 0x1000 })
        );
        // …but fetchable.
        assert_eq!(m.fetch(0x1000, 1).unwrap(), &[0xC3]);
    }

    #[test]
    fn wxorx_blocks_stack_execution() {
        let m = mem();
        let sp = 0x10_0000 - 64;
        assert_eq!(m.fetch(sp, 1), Err(Fault::NotExecutable { addr: sp }));
        assert_eq!(
            m.fetch(0x8000, 1),
            Err(Fault::NotExecutable { addr: 0x8000 })
        );
    }

    #[test]
    fn unmapped_faults() {
        let m = mem();
        assert_eq!(
            m.read_u32(0x4000_0000),
            Err(Fault::Unmapped { addr: 0x4000_0000 })
        );
    }

    #[test]
    fn ranges_wrapping_past_the_top_of_memory_are_unmapped() {
        let mut m = mem();
        for addr in [u32::MAX, u32::MAX - 2] {
            assert_eq!(m.read_u32(addr), Err(Fault::Unmapped { addr }));
            assert_eq!(m.write_u32(addr, 1), Err(Fault::Unmapped { addr }));
        }
    }

    #[test]
    fn unchecked_write_pierces_protection() {
        let mut m = mem();
        m.write_bytes_unchecked(0x1000, &[0x90]).unwrap();
        assert_eq!(m.fetch(0x1000, 1).unwrap(), &[0x90]);
    }

    #[test]
    fn shared_segments_copy_on_write() {
        let text = Arc::new(vec![0xC3; 16]);
        let data = Arc::new(vec![0u8; 64]);
        let mut m = Memory::new(
            0x1000,
            Arc::clone(&text),
            0x8000,
            Arc::clone(&data),
            0x10_0000,
        );
        // Reads and fetches leave the buffers shared with the image.
        assert_eq!(m.read_u32(0x8000).unwrap(), 0);
        assert_eq!(m.fetch(0x1000, 1).unwrap(), &[0xC3]);
        assert_eq!(Arc::strong_count(&text), 2);
        assert_eq!(Arc::strong_count(&data), 2);
        // A data store un-shares only the data segment…
        m.write_u32(0x8000, 7).unwrap();
        assert_eq!(Arc::strong_count(&data), 1);
        assert_eq!(Arc::strong_count(&text), 2);
        assert_eq!(data[0], 0, "the image's buffer must be untouched");
        // …and an attack-sim write into text un-shares text too.
        m.write_bytes_unchecked(0x1000, &[0x90]).unwrap();
        assert_eq!(Arc::strong_count(&text), 1);
        assert_eq!(text[0], 0xC3, "the image's text must be untouched");
        assert_eq!(m.fetch(0x1000, 1).unwrap(), &[0x90]);
    }
}
