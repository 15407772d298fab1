//! Memory-datatype packing, per engine.
//!
//! Non-contiguous *user buffers* (memtypes) are handled differently by the
//! two engines, mirroring the paper:
//!
//! * list-based (Section 2.1): an ol-list is created for the memtype **on
//!   every access** and discarded afterwards ("these lists are not stored
//!   beyond the single access operation");
//! * listless (Section 3.1): `ff_pack`/`ff_unpack` stream the data with no
//!   materialized representation.
//!
//! Packed, the stream becomes a message (the list-based collective write);
//! a window loop takes it from the buffer as it lies there ([`UserSide`]),
//! with no pack buffer in between — the rank's own, or, in a listless
//! collective, one another rank lent it (a write's whole buffer, a read's
//! piece of it), found through the layout [`MemPacker::encode_into`] sent
//! ahead.

use std::ops::Range;

use lio_datatype::ff::OBS_COPY_BYTES;
use lio_datatype::kernels::{claim_ahead, Stores};
use lio_datatype::{ff_offset, ff_pack, ff_unpack_at, serialize, Datatype, OlCursor, OlList};

use crate::error::{IoError, Result};

/// Packs and unpacks the user buffer's data stream.
pub(crate) enum MemPacker {
    /// The memtype's data is a single run starting at this offset: the
    /// stream is a subslice of the user buffer.
    Contig { base: usize },
    /// List-based: flatten to an ol-list per access.
    List { list: OlList },
    /// Listless: flattening-on-the-fly.
    Ff { memtype: Datatype, count: u64 },
}

impl MemPacker {
    /// Build a packer for `count` instances of `memtype` over a user
    /// buffer of `buf_len` bytes, using the list-based engine when
    /// `list_based` is set. Validates that the buffer covers the data.
    pub fn new(
        memtype: &Datatype,
        count: u64,
        buf_len: usize,
        list_based: bool,
    ) -> Result<MemPacker> {
        if memtype.data_lb() < 0 {
            return Err(IoError::Usage(
                "memtypes with negative data displacements are not supported; \
                 shift the type or the buffer"
                    .into(),
            ));
        }
        let span = if count == 0 || memtype.size() == 0 {
            0
        } else {
            (count as i64 - 1) * memtype.extent() as i64 + memtype.data_ub()
        };
        if span > buf_len as i64 {
            return Err(IoError::Usage(format!(
                "user buffer of {buf_len} bytes does not cover the memtype span of {span} bytes"
            )));
        }
        if let Some(s) = memtype.single_run() {
            if memtype.size() == memtype.extent() || count == 1 {
                return Ok(MemPacker::Contig { base: s as usize });
            }
        }
        if list_based {
            // the per-access flattening cost of the list-based engine
            Ok(MemPacker::List {
                list: OlList::flatten(memtype, count),
            })
        } else {
            Ok(MemPacker::Ff {
                memtype: memtype.clone(),
                count,
            })
        }
    }

    /// Copy `out.len()` stream bytes starting at stream position `skip`
    /// out of the user buffer. Returns bytes copied.
    pub fn pack(&self, user: &[u8], skip: u64, out: &mut [u8]) -> usize {
        match self {
            MemPacker::Contig { base } => {
                let s = base + skip as usize;
                let n = out.len().min(user.len().saturating_sub(s));
                out[..n].copy_from_slice(&user[s..s + n]);
                OBS_COPY_BYTES.add(n as u64);
                n
            }
            MemPacker::List { list } => list.pack(user, skip, out),
            MemPacker::Ff { memtype, count } => ff_pack(user, *count, memtype, skip, out),
        }
    }

    /// Copy `data` into the user buffer at stream position `skip`.
    /// Returns bytes copied.
    pub fn unpack(&self, data: &[u8], user: &mut [u8], skip: u64) -> usize {
        self.unpack_at(data, user, 0, skip)
    }

    /// [`MemPacker::unpack`] into a piece of the user buffer: `user[0]`
    /// is its byte `at`, and the stream from `skip` on lies inside it.
    pub fn unpack_at(&self, data: &[u8], user: &mut [u8], at: usize, skip: u64) -> usize {
        match self {
            MemPacker::Contig { base } => {
                let s = base + skip as usize - at;
                let n = data.len().min(user.len().saturating_sub(s));
                user[s..s + n].copy_from_slice(&data[..n]);
                OBS_COPY_BYTES.add(n as u64);
                n
            }
            MemPacker::List { list } => {
                debug_assert_eq!(at, 0, "a flattened memtype is never lent in pieces");
                list.unpack(data, user, skip)
            }
            MemPacker::Ff { memtype, count } => {
                ff_unpack_at(data, user, at as i64, *count, memtype, skip)
            }
        }
    }

    /// Whether the stream lies in the user buffer in order, each byte
    /// after the last (the listless engine's packers only): then disjoint
    /// ascending stream intervals occupy disjoint ascending buffer ranges,
    /// [`MemPacker::buffer_range`], and the buffer can be cut at them.
    pub fn in_order(&self) -> bool {
        match self {
            MemPacker::Contig { .. } => true,
            MemPacker::Ff { memtype, count } => {
                memtype.is_monotone()
                    && (*count <= 1
                        || memtype.data_ub() - memtype.data_lb() <= memtype.extent() as i64)
            }
            MemPacker::List { .. } => false,
        }
    }

    /// The user buffer's bytes that hold stream bytes `[from, to)`, from
    /// the first to one past the last, for a packer [`MemPacker::in_order`];
    /// `from < to`.
    pub fn buffer_range(&self, from: u64, to: u64) -> Range<usize> {
        match self {
            MemPacker::Contig { base } => base + from as usize..base + to as usize,
            MemPacker::Ff { memtype, .. } => {
                ff_offset(memtype, from) as usize..ff_offset(memtype, to - 1) as usize + 1
            }
            MemPacker::List { .. } => unreachable!("a flattened memtype is never lent in pieces"),
        }
    }

    /// For contiguous packers, the stream as a borrowed subslice
    /// (zero-copy fast path).
    pub fn contig_slice<'a>(&self, user: &'a [u8], skip: u64, len: u64) -> Option<&'a [u8]> {
        match self {
            MemPacker::Contig { base } => {
                let s = base + skip as usize;
                Some(&user[s..s + len as usize])
            }
            _ => None,
        }
    }

    /// Append what another rank needs to find this stream in the user
    /// buffer it is lent: a contiguous stream's base, or the memtype,
    /// encoded the way fileview caching encodes filetypes, and its count.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            MemPacker::Contig { base } => {
                out.push(0);
                out.extend_from_slice(&(*base as u64).to_le_bytes());
            }
            MemPacker::Ff { memtype, count } => {
                out.push(1);
                out.extend_from_slice(&count.to_le_bytes());
                serialize::encode_into(memtype, out);
            }
            MemPacker::List { .. } => unreachable!("the list-based engine lends no user buffer"),
        }
    }

    /// The packer [`MemPacker::encode_into`] described.
    pub fn decode(buf: &[u8]) -> Result<MemPacker> {
        let word = || {
            buf.get(1..9)
                .map(|b| u64::from_le_bytes(b.try_into().expect("eight bytes")))
                .ok_or_else(|| IoError::Usage("truncated memtype layout".into()))
        };
        match buf.first() {
            Some(0) if buf.len() == 9 => Ok(MemPacker::Contig {
                base: word()? as usize,
            }),
            Some(1) => Ok(MemPacker::Ff {
                count: word()?,
                memtype: serialize::decode(&buf[9..])?,
            }),
            _ => Err(IoError::Usage("malformed memtype layout".into())),
        }
    }

    /// Where the stream's bytes lie in the user buffer from stream
    /// position `skip` on, for the list-based engine's walks: the per-access
    /// ol-list from its linear `locate(skip)` on, or the one run that a
    /// contiguous buffer is.
    pub fn runs_from(&self, skip: u64) -> UserRuns<'_> {
        match self {
            MemPacker::Contig { base } => UserRuns::Contig(base + skip as usize),
            MemPacker::List { list } => UserRuns::List(list.cursor(skip)),
            MemPacker::Ff { .. } => unreachable!("the listless engine materializes no runs"),
        }
    }
}

/// Bytes of `(s_lo, s_hi)` header that a data message of the collective
/// exchange starts with.
pub(crate) const MSG_HEADER: usize = 16;
/// The layout of a buffer that is the stream itself.
pub(crate) static STREAM: MemPacker = MemPacker::Contig { base: 0 };
/// The layout of a data message: the stream, behind the header.
pub(crate) static MESSAGE: MemPacker = MemPacker::Contig { base: MSG_HEADER };

/// One end of a window loop's copies: a buffer, how the stream lies in it,
/// and the view-stream position of the stream's first byte. The user
/// buffer of an access is one (`U` is `&[u8]` writing, `&mut [u8]`
/// reading), whichever rank it belongs to — or, reading, the piece of it
/// that rank lent the IOP; so is a message of the list-based collective
/// exchange ([`MESSAGE`]) and a reply being filled ([`STREAM`]). The
/// placement calls of `crate::view` move stream bytes between a `UserSide`
/// and a window in one copy, whatever the layout on either side.
pub(crate) struct UserSide<'a, U> {
    pub packer: &'a MemPacker,
    pub user: U,
    pub stream_start: u64,
    /// The position of `user[0]` in the buffer `packer` describes: 0 for a
    /// whole buffer, where the piece starts for a piece of one.
    pub buf_at: usize,
}

impl<'a, U> UserSide<'a, U> {
    pub fn new(packer: &'a MemPacker, user: U, stream_start: u64) -> Self {
        UserSide::piece(packer, user, stream_start, 0)
    }

    /// An end over the piece of a buffer that starts at its byte `buf_at`.
    pub fn piece(packer: &'a MemPacker, user: U, stream_start: u64, buf_at: usize) -> Self {
        UserSide {
            packer,
            user,
            stream_start,
            buf_at,
        }
    }
}

/// A forward-only cursor over the runs of a user buffer's stream: the
/// list-based engine's side of the co-walk with a view's runs.
pub(crate) enum UserRuns<'a> {
    /// One endless run; the next stream byte lies at this buffer position.
    Contig(usize),
    List(OlCursor<'a>),
}

impl UserRuns<'_> {
    /// Copy the next `dst.len()` stream bytes out of `user`, each run of
    /// them stored into `dst` as `stores` says; returns the bytes copied,
    /// fewer only where a list ends.
    #[inline]
    pub fn read(&mut self, user: &[u8], dst: &mut [u8], stores: &mut Stores) -> usize {
        match self {
            UserRuns::Contig(at) => {
                stores.copy(dst, &user[*at..*at + dst.len()]);
                *at += dst.len();
                dst.len()
            }
            UserRuns::List(cursor) => cursor.read(user, dst, stores),
        }
    }

    /// Copy `src` to where the next `src.len()` stream bytes lie in
    /// `user`, claiming the user lines after each run first
    /// ([`claim_ahead`]); returns the bytes copied, as [`UserRuns::read`].
    #[inline]
    pub fn write(&mut self, user: &mut [u8], src: &[u8]) -> usize {
        match self {
            UserRuns::Contig(at) => {
                let run = *at..*at + src.len();
                claim_ahead(user, run.clone());
                user[run].copy_from_slice(src);
                *at += src.len();
                src.len()
            }
            UserRuns::List(cursor) => cursor.write(src, user),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contig_passthrough() {
        let m = Datatype::contiguous(4, &Datatype::double()).unwrap();
        let p = MemPacker::new(&m, 1, 32, false).unwrap();
        assert!(matches!(p, MemPacker::Contig { .. }));
        let user: Vec<u8> = (0..32).collect();
        let mut out = vec![0u8; 16];
        assert_eq!(p.pack(&user, 8, &mut out), 16);
        assert_eq!(&out[..], &user[8..24]);
    }

    #[test]
    fn engines_pack_identically() {
        let m = lio_datatype::Datatype::vector(5, 3, 5, &Datatype::int()).unwrap();
        let user: Vec<u8> = (0..m.extent() as usize * 2).map(|i| i as u8).collect();
        let a = MemPacker::new(&m, 2, user.len(), true).unwrap();
        let b = MemPacker::new(&m, 2, user.len(), false).unwrap();
        let total = (m.size() * 2) as usize;
        for skip in [0u64, 1, 7, 60] {
            let mut oa = vec![0u8; total - skip as usize];
            let mut ob = vec![0u8; total - skip as usize];
            assert_eq!(a.pack(&user, skip, &mut oa), oa.len());
            assert_eq!(b.pack(&user, skip, &mut ob), ob.len());
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn engines_unpack_identically() {
        let m = lio_datatype::Datatype::vector(4, 2, 3, &Datatype::int()).unwrap();
        let total = (m.size() * 2) as usize;
        let data: Vec<u8> = (0..total as u8).collect();
        let span = m.extent() as usize * 2;
        let mut ua = vec![0xAAu8; span];
        let mut ub = vec![0xAAu8; span];
        let a = MemPacker::new(&m, 2, span, true).unwrap();
        let b = MemPacker::new(&m, 2, span, false).unwrap();
        a.unpack(&data, &mut ua, 0);
        b.unpack(&data, &mut ub, 0);
        assert_eq!(ua, ub);
    }

    #[test]
    fn buffer_too_small_rejected() {
        let m = Datatype::contiguous(4, &Datatype::double()).unwrap();
        assert!(MemPacker::new(&m, 1, 31, false).is_err());
        assert!(MemPacker::new(&m, 1, 32, false).is_ok());
    }

    #[test]
    fn negative_lb_rejected() {
        let m = Datatype::resized(&Datatype::int(), -4, 8).unwrap();
        let shifted = Datatype::hindexed(&[1], &[-8], &Datatype::int()).unwrap();
        assert!(MemPacker::new(&shifted, 1, 64, false).is_err());
        // resized with negative lb but non-negative data is fine
        assert!(MemPacker::new(&m, 1, 64, false).is_ok());
    }

    #[test]
    fn single_instance_gappy_type_is_contig_when_single_run() {
        // a resized int: one data run but extent 12
        let m = Datatype::resized(&Datatype::int(), 0, 12).unwrap();
        let p = MemPacker::new(&m, 1, 12, false).unwrap();
        assert!(matches!(p, MemPacker::Contig { .. }));
        // two instances: gaps between runs, not contiguous
        let p2 = MemPacker::new(&m, 2, 24, false).unwrap();
        assert!(!matches!(p2, MemPacker::Contig { .. }));
    }

    #[test]
    fn a_layout_decodes_to_its_packer() {
        let strided = Datatype::vector(4, 2, 3, &Datatype::int()).unwrap();
        for p in [
            MemPacker::new(&strided, 3, 1024, false).unwrap(),
            MemPacker::new(
                &Datatype::hindexed(&[1], &[24], &strided).unwrap(),
                1,
                1024,
                false,
            )
            .unwrap(),
            MemPacker::new(&Datatype::int(), 5, 20, false).unwrap(),
        ] {
            let mut layout = Vec::new();
            p.encode_into(&mut layout);
            let q = MemPacker::decode(&layout).unwrap();
            let user: Vec<u8> = (0..1024).map(|i| i as u8).collect();
            let (mut a, mut b) = ([0u8; 40], [0u8; 40]);
            assert_eq!(p.pack(&user, 4, &mut a), q.pack(&user, 4, &mut b));
            assert_eq!(a, b);
            assert!(MemPacker::decode(&layout[..layout.len() - 1]).is_err());
        }
        assert!(MemPacker::decode(&[]).is_err());
    }

    #[test]
    fn user_runs_follow_the_packer() {
        let m = Datatype::vector(4, 2, 3, &Datatype::int()).unwrap();
        let user: Vec<u8> = (0..m.extent() as u8).collect();
        let listed = MemPacker::new(&m, 1, user.len(), true).unwrap();
        let mut stream = vec![0u8; m.size() as usize];
        listed.pack(&user, 0, &mut stream);
        // a typed buffer in pieces; a message: the stream behind its header
        let (mut runs, mut got) = (listed.runs_from(3), [0u8; 7]);
        let stores = &mut Stores::new(lio_datatype::kernels::Store::Cached);
        assert_eq!(
            runs.read(&user, &mut got[..2], stores) + runs.read(&user, &mut got[2..], stores),
            7
        );
        assert_eq!(got, stream[3..10]);
        assert_eq!(MESSAGE.runs_from(2).read(&user, &mut got, stores), 7);
        assert_eq!(got, user[MSG_HEADER + 2..MSG_HEADER + 9]);
    }
}
