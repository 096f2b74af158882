//! LEB128 varints and zigzag signed encoding.

use std::io;

/// Appends `v` as an unsigned LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` zigzag-mapped (small magnitudes stay small).
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// A cursor over encoded bytes.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn truncated() -> io::Error {
        io::Error::new(io::ErrorKind::UnexpectedEof, "truncated record")
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> io::Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(Self::truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Self::truncated());
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads an unsigned varint.
    pub fn u64(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "varint overflows u64",
                ));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "varint too long",
                ));
            }
        }
    }

    /// Reads a zigzag varint.
    pub fn i64(&mut self) -> io::Result<i64> {
        let z = self.u64()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads an entry count off disk. Every entry takes at least one
    /// byte, so a count larger than the bytes left is rejected before a
    /// caller reserves room for it.
    pub fn count(&mut self) -> io::Result<usize> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "count exceeds the bytes left",
            ));
        }
        Ok(n as usize)
    }

    /// Reads a varint and narrows to u32.
    pub fn u32(&mut self) -> io::Result<u32> {
        let v = self.u64()?;
        u32::try_from(v)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "value exceeds u32"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_u64() {
        let samples = [0, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        let mut buf = Vec::new();
        for &s in &samples {
            put_u64(&mut buf, s);
        }
        let mut r = Reader::new(&buf);
        for &s in &samples {
            assert_eq!(r.u64().unwrap(), s);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn roundtrip_i64() {
        let samples = [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX];
        let mut buf = Vec::new();
        for &s in &samples {
            put_i64(&mut buf, s);
        }
        let mut r = Reader::new(&buf);
        for &s in &samples {
            assert_eq!(r.i64().unwrap(), s);
        }
    }

    #[test]
    fn a_count_beyond_the_bytes_left_is_invalid() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 2);
        buf.extend_from_slice(&[7, 7]);
        assert_eq!(Reader::new(&buf).count().unwrap(), 2);
        buf.pop();
        let err = Reader::new(&buf).count().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_is_an_error() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 40);
        buf.pop();
        assert!(Reader::new(&buf).u64().is_err());
    }
}
