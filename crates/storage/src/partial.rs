//! Versioned wire codec for partial-aggregate state.
//!
//! Shards ship their in-flight aggregate accumulators as byte frames so a
//! coordinator can merge disjoint partials (DESIGN.md §14). The frame is
//! deliberately boring: a 2-byte magic, a version byte, a function tag, a
//! length-prefixed payload, and a CRC-32 trailer over everything before it.
//! Any violation — wrong magic, unknown version, truncated payload, flipped
//! bit — decodes to a typed [`StorageError::PartialCodec`], never a panic,
//! which is what the FaultInjector round-trip tests pin.
//!
//! The payload encoding is owned by the engine's accumulators; this module
//! only provides the frame plus little-endian primitive and [`Value`]
//! readers/writers shared by every variant — and by the WAL's record
//! payloads and the checkpoint image, which use the same tags and layout:
//! this is the crate's one byte codec.

use crate::bitmap::Bitmap;
use crate::error::{Result, StorageError};
use crate::value::{DataType, Value};

/// Frame magic: every serialized partial starts with these two bytes.
pub const PARTIAL_MAGIC: [u8; 2] = *b"PA";
/// Current frame version. Decoders reject anything newer.
pub const PARTIAL_VERSION: u8 = 1;

/// CRC-32 (IEEE, reflected 0xEDB88320) of `bytes` — the same checksum the
/// WAL frames use, shared so lattice-cache partials (hundreds of KB per
/// level) checksum at slicing-by-8 speed rather than bit-at-a-time.
pub fn crc32(bytes: &[u8]) -> u32 {
    crate::wal::crc32(bytes)
}

/// Wrap `payload` in a versioned frame tagged with `tag` (the aggregate
/// function discriminant, or a container tag for multi-partial frames).
pub fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 12);
    frame_into(&mut out, tag, payload);
    out
}

/// Append the frame for `payload` to `out` — byte-identical to
/// [`frame`], without the intermediate allocation. Serializers framing
/// thousands of small accumulators build one buffer instead of one per
/// accumulator.
pub fn frame_into(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.reserve(payload.len() + 12);
    let start = out.len();
    out.extend_from_slice(&PARTIAL_MAGIC);
    out.push(PARTIAL_VERSION);
    out.push(tag);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

pub(crate) fn codec_err(msg: impl Into<String>) -> StorageError {
    StorageError::PartialCodec(msg.into())
}

/// Validate and open a frame, returning `(tag, payload)`.
pub fn unframe(bytes: &[u8]) -> Result<(u8, &[u8])> {
    if bytes.len() < 12 {
        return Err(codec_err(format!(
            "frame too short: {} bytes, need at least 12",
            bytes.len()
        )));
    }
    if bytes[..2] != PARTIAL_MAGIC {
        return Err(codec_err("bad magic: not a partial-aggregate frame"));
    }
    if bytes[2] != PARTIAL_VERSION {
        return Err(codec_err(format!(
            "unknown partial version {} (decoder speaks {PARTIAL_VERSION})",
            bytes[2]
        )));
    }
    let tag = bytes[3];
    let len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
    let end = 8usize
        .checked_add(len)
        .ok_or_else(|| codec_err("payload length overflows"))?;
    if bytes.len() != end + 4 {
        return Err(codec_err(format!(
            "truncated frame: payload declares {len} bytes, frame holds {}",
            bytes.len().saturating_sub(12)
        )));
    }
    let stored = u32::from_le_bytes([bytes[end], bytes[end + 1], bytes[end + 2], bytes[end + 3]]);
    let actual = crc32(&bytes[..end]);
    if stored != actual {
        return Err(codec_err(format!(
            "CRC mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    Ok((tag, &bytes[8..end]))
}

/// Sequential little-endian reader over a payload; every read is
/// bounds-checked into a typed error.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless every byte was consumed (catches trailing garbage).
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(codec_err(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )));
        }
        Ok(())
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                codec_err(format!(
                    "payload underrun: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                ))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self) -> Result<i64> {
        Ok(self.u64()? as i64)
    }

    /// Read a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| codec_err("string payload is not valid UTF-8"))
    }

    /// Read a tagged [`Value`].
    pub fn value(&mut self) -> Result<Value> {
        match self.u8()? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.i64()?)),
            2 => Ok(Value::Float(self.f64()?)),
            3 => Ok(Value::str(self.string()?)),
            t => Err(codec_err(format!("unknown value tag {t}"))),
        }
    }

    /// Read a [`DataType`] tag (0=Int, 1=Float, 2=Str).
    pub fn dtype(&mut self) -> Result<DataType> {
        match self.u8()? {
            0 => Ok(DataType::Int),
            1 => Ok(DataType::Float),
            2 => Ok(DataType::Str),
            t => Err(codec_err(format!("unknown data type tag {t}"))),
        }
    }

    /// Read the validity of `rows` rows: `[1]` (all valid) or `[0]` and
    /// the packed words (see [`put_validity`]).
    pub fn validity(&mut self, rows: usize) -> Result<Bitmap> {
        match self.u8()? {
            1 => Ok(Bitmap::filled(rows, true)),
            0 => {
                let raw = self.take(rows.div_ceil(64).saturating_mul(8))?;
                let words = raw
                    .chunks_exact(8)
                    .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
                    .collect();
                Bitmap::from_words(words, rows).ok_or_else(|| codec_err("bad validity words"))
            }
            t => Err(codec_err(format!("unknown validity tag {t}"))),
        }
    }
}

/// Append a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `i64`.
pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    put_u64(buf, v as u64);
}

/// Append an IEEE-754 `f64` as its little-endian bit pattern.
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Append a tagged [`Value`] (0=NULL, 1=Int, 2=Float, 3=Str).
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => buf.push(0),
        Value::Int(i) => {
            buf.push(1);
            put_i64(buf, *i);
        }
        Value::Float(x) => {
            buf.push(2);
            put_f64(buf, *x);
        }
        Value::Str(s) => {
            buf.push(3);
            put_string(buf, s);
        }
    }
}

/// Append a [`DataType`] tag (0=Int, 1=Float, 2=Str).
pub fn put_dtype(buf: &mut Vec<u8>, dtype: DataType) {
    buf.push(match dtype {
        DataType::Int => 0,
        DataType::Float => 1,
        DataType::Str => 2,
    });
}

/// Append a validity bitmap: `[1]` when every row is valid, else `[0]`
/// and the packed words.
pub fn put_validity(buf: &mut Vec<u8>, validity: &Bitmap) {
    if validity.all_set() {
        buf.push(1);
    } else {
        buf.push(0);
        for w in validity.words() {
            put_u64(buf, *w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_round_trips() {
        let framed = frame(7, b"payload");
        let (tag, payload) = unframe(&framed).unwrap();
        assert_eq!(tag, 7);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let framed = frame(3, b"some partial state bytes");
        for bit in 0..framed.len() * 8 {
            let mut corrupt = framed.clone();
            corrupt[bit / 8] ^= 1 << (bit % 8);
            let err = unframe(&corrupt).unwrap_err();
            assert!(
                matches!(err, StorageError::PartialCodec(_)),
                "bit {bit}: {err}"
            );
        }
    }

    #[test]
    fn truncation_at_every_length_is_detected() {
        let framed = frame(3, b"0123456789");
        for len in 0..framed.len() {
            let err = unframe(&framed[..len]).unwrap_err();
            assert!(
                matches!(err, StorageError::PartialCodec(_)),
                "len {len}: {err}"
            );
        }
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut framed = frame(1, b"x");
        framed[2] = PARTIAL_VERSION + 1;
        // Fix the CRC so the version check is what fires.
        let end = framed.len() - 4;
        let crc = crc32(&framed[..end]);
        framed[end..].copy_from_slice(&crc.to_le_bytes());
        let err = unframe(&framed).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn values_round_trip_through_the_codec() {
        let vals = [
            Value::Null,
            Value::Int(-42),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::str("höuston"),
            Value::str(""),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            put_value(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for v in &vals {
            let got = cur.value().unwrap();
            assert_eq!(got.total_cmp(v), std::cmp::Ordering::Equal, "{v}");
        }
        cur.finish().unwrap();
    }

    #[test]
    fn cursor_underrun_and_trailing_bytes_are_typed_errors() {
        let mut cur = Cursor::new(&[1, 2]);
        assert!(matches!(
            cur.u32().unwrap_err(),
            StorageError::PartialCodec(_)
        ));
        let buf = [0u8; 9];
        let mut cur = Cursor::new(&buf);
        cur.u64().unwrap();
        assert!(cur.finish().is_err(), "one trailing byte");
    }
}
