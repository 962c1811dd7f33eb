//! The packed byte form of trace events.
//!
//! A [`crate::trace::TraceLog`] stores its events as bytes rather than as
//! [`crate::trace::TraceEvent`] values: an event carries about 15 bytes of
//! information, but its enum is sized by the largest payload. Integers are
//! LEB128 varints (seven bits a byte, low group first, the high bit set on
//! every byte but the last), an `f64` is its eight raw bits, a `bool` or a
//! small field-less enum is one byte, and strings and lists are
//! length-prefixed. [`crate::tagged_enum!`] implements [`PackTagged`] from
//! the same table that declares the JSON wire format, so the two cannot
//! drift apart.
//!
//! Varints below 2^56 are written and read a word at a time: against the
//! byte loop alone, which stays as the reference and for longer values,
//! that made a `node_mix` unit about 2 % faster (DESIGN.md §11).
//!
//! Packed bytes never leave the process: only the log that wrote them reads
//! them back. A decoder that meets bytes its encoder cannot have written
//! panics rather than returning an error.

/// A value with a packed byte form.
pub trait Pack: Sized {
    /// Appends the packed form of `self` to `out`.
    fn pack(&self, out: &mut Vec<u8>);
    /// Reads one packed value from the front of `r`.
    fn unpack(r: &mut Unpacker<'_>) -> Self;
}

/// An enum whose packed form is one tag byte naming the variant, then the
/// variant's fields in declaration order. [`crate::tagged_enum!`]
/// implements it.
pub trait PackTagged: Sized {
    /// The variant's tag: its index in declaration order.
    fn tag(&self) -> u8;
    /// Appends the variant's fields, in declaration order.
    fn pack_fields(&self, out: &mut Vec<u8>);
    /// Reads the fields of the variant `tag` names.
    fn unpack_fields(tag: u8, r: &mut Unpacker<'_>) -> Self;
}

/// The high bit of every byte of a word: a varint's continuation bits.
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// Appends `v` as a LEB128 varint: one byte below 128, ten at most.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, v: u64) {
    if v < 0x80 {
        out.push(v as u8);
    } else if v < 1 << 56 {
        // Spread the seven-bit groups over the bytes of one word, set the
        // continuation bit of all but the last byte used, store the whole
        // word and keep the bytes used.
        let mut x = (v & 0x0fff_ffff) | ((v & 0x00ff_ffff_f000_0000) << 4);
        x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x0fff_c000_0fff_c000) << 2);
        x = (x & 0x007f_007f_007f_007f) | ((x & 0x3f80_3f80_3f80_3f80) << 1);
        let len = (64 - v.leading_zeros() as usize).div_ceil(7);
        let word = x | (HIGH_BITS & ((1 << (8 * (len - 1))) - 1));
        out.extend_from_slice(&word.to_le_bytes());
        out.truncate(out.len() - 8 + len);
    } else {
        put_varint_loop(out, v);
    }
}

/// [`put_varint`] a byte at a time: the reference form, used for values of
/// nine and ten bytes.
fn put_varint_loop(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Maps a signed delta onto the unsigned varint range, small magnitudes
/// first: 0, -1, 1, -2, 2, ...
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// The inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// A cursor over packed bytes.
#[derive(Debug, Clone)]
pub struct Unpacker<'a> {
    bytes: &'a [u8],
}

impl<'a> Unpacker<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Unpacker { bytes }
    }

    /// True once every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads one byte.
    #[inline]
    pub fn byte(&mut self) -> u8 {
        let (&b, rest) = self
            .bytes
            .split_first()
            .expect("packed bytes end inside a value");
        self.bytes = rest;
        b
    }

    /// Reads the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> &'a [u8] {
        assert!(n <= self.bytes.len(), "packed bytes end inside a value");
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        head
    }

    /// Reads one LEB128 varint.
    #[inline]
    pub fn varint(&mut self) -> u64 {
        if let Some(&b) = self.bytes.first() {
            if b < 0x80 {
                self.bytes = &self.bytes[1..];
                return u64::from(b);
            }
        }
        if let Some(word) = self.bytes.first_chunk::<8>() {
            let word = u64::from_le_bytes(*word);
            let stops = !word & HIGH_BITS;
            if stops != 0 {
                // The first byte without a continuation bit ends the
                // varint: keep the seven-bit groups up to it and pack
                // them together, the inverse of `put_varint`'s spread.
                let len = stops.trailing_zeros() as usize / 8 + 1;
                let keep = if len == 8 { !0 } else { (1 << (8 * len)) - 1 };
                let mut x = word & keep & !HIGH_BITS;
                x = (x & 0x007f_007f_007f_007f) | ((x & 0x7f00_7f00_7f00_7f00) >> 1);
                x = (x & 0x0000_3fff_0000_3fff) | ((x & 0x3fff_0000_3fff_0000) >> 2);
                x = (x & 0x0000_0000_0fff_ffff) | ((x & 0x0fff_ffff_0000_0000) >> 4);
                self.bytes = &self.bytes[len..];
                return x;
            }
        }
        self.varint_loop()
    }

    /// [`Unpacker::varint`] a byte at a time: for varints of nine and ten
    /// bytes, and near the end of the bytes.
    fn varint_loop(&mut self) -> u64 {
        let b = self.byte();
        if b < 0x80 {
            return u64::from(b);
        }
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
            assert!(shift < 64, "packed varint longer than ten bytes");
        }
    }

    /// Reads a length prefix.
    fn len(&mut self) -> usize {
        usize::try_from(self.varint()).expect("packed length fits in memory")
    }
}

impl Pack for u64 {
    #[inline]
    fn pack(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    #[inline]
    fn unpack(r: &mut Unpacker<'_>) -> Self {
        r.varint()
    }
}

impl Pack for u32 {
    fn pack(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
    fn unpack(r: &mut Unpacker<'_>) -> Self {
        u32::try_from(r.varint()).expect("packed u32 in range")
    }
}

impl Pack for bool {
    fn pack(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn unpack(r: &mut Unpacker<'_>) -> Self {
        match r.byte() {
            0 => false,
            1 => true,
            b => panic!("packed bool byte {b}"),
        }
    }
}

/// The eight raw bits, little-endian: NaN payloads and signed zeros come
/// back as they went in.
impl Pack for f64 {
    fn pack(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn unpack(r: &mut Unpacker<'_>) -> Self {
        let bits: [u8; 8] = r.take(8).try_into().expect("eight bytes");
        f64::from_bits(u64::from_le_bytes(bits))
    }
}

/// The UTF-8 length in bytes, then the bytes.
impl Pack for String {
    fn pack(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn unpack(r: &mut Unpacker<'_>) -> Self {
        let n = r.len();
        String::from_utf8(r.take(n).to_vec()).expect("packed string is UTF-8")
    }
}

/// The element count, then each element.
impl<T: Pack> Pack for Vec<T> {
    fn pack(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for x in self {
            x.pack(out);
        }
    }
    fn unpack(r: &mut Unpacker<'_>) -> Self {
        let n = r.len();
        if n == 0 {
            return Vec::new();
        }
        // Every element takes at least one byte, so a count past the bytes
        // left cannot come from the encoder.
        assert!(n <= r.bytes.len(), "packed list longer than its bytes");
        (0..n).map(|_| T::unpack(r)).collect()
    }
}

/// Implements [`Pack`] for field-less `Copy` enums as one byte, their
/// declaration index. List the variants in declaration order.
macro_rules! pack_fieldless {
    ($($ty:ident { $($variant:ident),* $(,)? })*) => {$(
        impl $crate::pack::Pack for $ty {
            fn pack(&self, out: &mut Vec<u8>) {
                out.push(*self as u8);
            }
            fn unpack(r: &mut $crate::pack::Unpacker<'_>) -> Self {
                const ALL: &[$ty] = &[$($ty::$variant),*];
                ALL[usize::from(r.byte())]
            }
        }
    )*};
}
pub(crate) use pack_fieldless;

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Pack + PartialEq + std::fmt::Debug>(v: T) -> usize {
        let mut out = Vec::new();
        v.pack(&mut out);
        let mut r = Unpacker::new(&out);
        assert_eq!(T::unpack(&mut r), v);
        assert!(r.is_empty(), "{v:?} left bytes behind");
        out.len()
    }

    #[test]
    fn varints_take_one_byte_per_seven_bits() {
        for (v, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            (16_383, 2),
            (16_384, 3),
            (1 << 35, 6),
            (u64::MAX >> 1, 9),
            (u64::MAX, 10),
        ] {
            assert_eq!(round_trip(v), len, "{v}");
        }
    }

    #[test]
    fn word_at_a_time_varints_match_the_byte_loop() {
        // Every bit length, at its edges and in between, packed among
        // other bytes (the word-wide paths read and write past the value)
        // and alone at the end of the bytes (the byte loop).
        let mut values = vec![0u64];
        for bits in 1..=64 {
            let top = u64::MAX >> (64 - bits);
            values.extend([
                top,
                top >> 1 | 1 << (bits - 1),
                top ^ 0x5555_5555_5555_5555 & top,
            ]);
        }
        for &v in &values {
            let mut want = Vec::new();
            put_varint_loop(&mut want, v);
            let mut got = vec![0xee];
            put_varint(&mut got, v);
            assert_eq!(got[1..], want[..], "{v:#x}");
            got.extend([0xff; 9]);
            let mut r = Unpacker::new(&got[1..]);
            assert_eq!(r.varint(), v, "{v:#x} followed by more bytes");
            assert_eq!(r.take(9), [0xff; 9]);
            let mut alone = Unpacker::new(&want);
            assert_eq!(alone.varint(), v, "{v:#x} alone");
            assert!(alone.is_empty());
        }
    }

    #[test]
    fn zigzag_keeps_small_deltas_small_and_round_trips_the_extremes() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        for v in [0, 1, -1, 250, -250, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    #[should_panic(expected = "end inside a value")]
    fn a_truncated_varint_panics() {
        Unpacker::new(&[0x80]).varint();
    }
}
