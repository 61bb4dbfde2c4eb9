//! The binary primitives shared by the cache's record codec
//! ([`cache::binary`](crate::cache::binary)) and the worker frame protocol
//! (`remote::frame`): one bounds-checked [`Reader`] and the matching
//! `put_*` writers.
//!
//! Both formats read bytes that may be hostile — a rotting cache file, a
//! worker process printing garbage — so the reader validates everything
//! before trusting it: every `take` checks the remaining length, varints
//! are LEB128 capped at ten bytes and rejected on `u64` overflow, and a
//! varint used as a length or count ([`Reader::length`]) is checked
//! against the bytes actually remaining *before* it can size an
//! allocation. Strings are UTF-8-validated in place on the borrowed
//! buffer; floats travel as raw `f64::to_bits` little-endian words, so
//! `±INF`, `-0.0` and NaN payloads round-trip bit-exactly.

/// A failed read: truncated input, an overflowing varint, an oversize
/// length or invalid UTF-8. Each format wraps it into its own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WireError(pub(crate) String);

fn err<T>(message: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(message.into()))
}

/// A zero-copy cursor over one borrowed buffer.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return err(format!("need {n} bytes, {} remain", self.remaining()));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// LEB128 varint, at most 10 bytes, rejecting u64 overflow.
    pub(crate) fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return err("varint overflows u64");
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// A varint used as a byte length or element count: validated against
    /// the bytes actually remaining *before* it is trusted, so a hostile
    /// length can neither over-read nor size an allocation.
    pub(crate) fn length(&mut self) -> Result<usize, WireError> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return err(format!(
                "declared length {n} exceeds {} remaining bytes",
                self.remaining()
            ));
        }
        Ok(n as usize)
    }

    /// A varint-length-prefixed UTF-8 string, borrowed from the buffer.
    pub(crate) fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.length()?;
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError("invalid UTF-8".into()))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, WireError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take(8) is 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }
}

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
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

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(values: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for &v in values {
            put_varint(&mut out, v);
        }
        out
    }

    #[test]
    fn primitives_roundtrip() {
        let mut out = encoded(&[0, 1, 127, 128, 300, u64::MAX]);
        put_str(&mut out, "night_on ✓");
        for v in [f64::NEG_INFINITY, -0.0, 12.25, f64::NAN] {
            put_f64(&mut out, v);
        }
        let mut r = Reader::new(&out);
        for v in [0, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(r.varint().unwrap(), v);
        }
        assert_eq!(r.str().unwrap(), "night_on ✓");
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        let zero = r.f64().unwrap();
        assert!(zero == 0.0 && zero.is_sign_negative(), "-0.0 bit-exact");
        assert_eq!(r.f64().unwrap(), 12.25);
        assert!(r.f64().unwrap().is_nan());
        assert!(r.is_empty());
        assert_eq!(r.pos(), out.len());
    }

    /// The hostile-input battery both formats rely on: truncation anywhere,
    /// overflowing varints and lengths beyond the buffer are errors —
    /// never a panic, never an allocation sized by the input.
    #[test]
    fn hostile_inputs_are_errors_never_panics() {
        // Truncation at every byte of a valid sequence.
        let mut valid = encoded(&[u64::MAX, 5]);
        put_str(&mut valid, "lamp");
        put_f64(&mut valid, 1.5);
        for n in 0..valid.len() {
            let mut r = Reader::new(&valid[..n]);
            let read = (|| -> Result<(), WireError> {
                r.varint()?;
                r.varint()?;
                r.str()?;
                r.f64()?;
                Ok(())
            })();
            assert!(read.is_err(), "prefix of {n} bytes read as complete");
        }

        // Varint overflow: an eleventh byte, and a tenth byte above 1.
        assert!(Reader::new(&[0xff; 11]).varint().is_err());
        let mut tenth_too_big = vec![0xff; 9];
        tenth_too_big.push(0x02);
        assert!(Reader::new(&tenth_too_big).varint().is_err());
        let mut max = vec![0xff; 9];
        max.push(0x01);
        assert_eq!(Reader::new(&max).varint().unwrap(), u64::MAX);

        // Oversize lengths are rejected before anything is read.
        let huge = encoded(&[1 << 60]);
        assert!(Reader::new(&huge).length().is_err());
        assert!(Reader::new(&huge).str().is_err());
        let mut lying = encoded(&[5]);
        lying.extend_from_slice(b"abc");
        assert!(Reader::new(&lying).str().is_err());
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.take(4).is_err());
        assert_eq!(r.remaining(), 3, "a failed take consumes nothing");

        // Invalid UTF-8 inside a well-formed length.
        assert!(Reader::new(&[2, 0xff, 0xfe]).str().is_err());
    }
}
