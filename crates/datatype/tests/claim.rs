//! Streaming a placement's whole lines past the cache (`kernels::Stores`)
//! and claiming the user lines ahead of an extraction's stores
//! (`kernels::claim_ahead`) change how bytes travel through the cache,
//! never which bytes land where. Runs on either side of the streamed and
//! claimed lengths (255, 256, 257, 1280, 4095, 4096 and 16384 B) are placed
//! into windows whose last run ends at, or within `CLAIM_AHEAD` of, the
//! window's end, into windows cut short of the type, and into windows
//! shorter than `CLAIM_AHEAD`. Each window lies at three offsets from a
//! cache line, and is placed whole and in two pieces cut inside a run, as a
//! storage lends a window that crosses one of its stripes — through
//! `RunProgram::transfer_into` (a typed user buffer) and
//! `RunProgram::unpack_into` (a packed stream), with cached and with
//! streamed stores. Each window must hold what the naive typemap expansion
//! places there, with its gap bytes and the bytes around it untouched; and
//! `RunProgram::transfer_out_of` must take the same bytes back into the
//! typed user buffer.

use lio_datatype::kernels::{Store, CLAIM_AHEAD};
use lio_datatype::typemap::{expand, reference_pack, Run};
use lio_datatype::Datatype;

const RUNS: [u64; 7] = [255, 256, 257, 1280, 4095, 4096, 16384];
const UNTOUCHED: u8 = 0xEE;
/// Where a window starts relative to a cache line.
const LINE_OFFSETS: [usize; 3] = [0, 13, 40];

/// `count` runs of `run` bytes, `run + gap` apart from byte `lead` on.
fn window_type(run: u64, gap: u64, count: u64, lead: i64) -> Datatype {
    let block = Datatype::contiguous(run, &Datatype::byte()).unwrap();
    let disps: Vec<i64> = (0..count as i64)
        .map(|i| lead + i * (run + gap) as i64)
        .collect();
    Datatype::hindexed(&vec![1; count as usize], &disps, &block).unwrap()
}

/// Lay `stream` onto `runs` of `buf`, in order, until the stream or the
/// buffer ends; returns the bytes laid.
fn lay(runs: &[Run], stream: &[u8], buf: &mut [u8]) -> usize {
    let mut pos = 0;
    for r in runs {
        let at = r.disp as usize;
        if at >= buf.len() {
            break;
        }
        let n = (r.len as usize).min(buf.len() - at).min(stream.len() - pos);
        buf[at..at + n].copy_from_slice(&stream[pos..pos + n]);
        pos += n;
    }
    pos
}

/// Window lengths for `ft`: its extent plus 0, 100 and `CLAIM_AHEAD - 1`
/// bytes (the last run ends at or within `CLAIM_AHEAD` of the end), and
/// cuts inside its last run and right after the run before.
fn window_lens(ft: &Datatype, run: u64, gap: u64) -> Vec<usize> {
    let ub = ft.data_ub() as usize;
    let mut lens = vec![ub, ub + 100, ub + CLAIM_AHEAD - 1, ub - run as usize / 2];
    if ft.size() > run {
        lens.push(ub - (run + gap) as usize);
    }
    lens
}

/// A window of `len` bytes `off` bytes past a cache line, inside a buffer
/// of `UNTOUCHED` bytes that has a line to spare on either side; returns
/// the buffer and where the window starts in it.
fn backed_window(len: usize, off: usize) -> (Vec<u8>, usize) {
    let backing = vec![UNTOUCHED; len + 3 * 64];
    let at = backing.as_ptr().align_offset(64) + 64 + off;
    (backing, at)
}

/// Every window shape of [`window_lens`] for runs of `run` bytes, through
/// both placements and both stores; `user` is the typed user buffer's
/// layout.
fn check(run: u64, gap: u64, count: u64, lead: i64, user: &Datatype) {
    let ft = window_type(run, gap, count, lead);
    let ucount = ft.size().div_ceil(user.size());
    let span = (ucount - 1) as usize * user.extent() as usize + user.data_ub() as usize;
    let buf: Vec<u8> = (0..span).map(|i| (i * 7 % 251) as u8).collect();
    let stream = reference_pack(&buf, user, ucount);
    let stream = &stream[..ft.size() as usize];
    let (prog, from) = (ft.program(), user.program());
    let (runs, user_runs) = (expand(&ft, 1), expand(user, ucount));
    // a stripe cut inside the first run, off the line grid
    let cut = lead as usize + run as usize / 2 + 1;
    for len in window_lens(&ft, run, gap) {
        let mut want = vec![UNTOUCHED; len];
        let placed = lay(&runs, stream, &mut want);
        let below_cut = lay(&runs, stream, &mut vec![0; cut.min(len)]);
        for off in LINE_OFFSETS {
            for store in [Store::Cached, Store::Stream] {
                let ctx = format!(
                    "run {run} gap {gap} count {count} lead {lead} window {len} \
                     line offset {off} {store:?}"
                );
                let (mut backing, at) = backed_window(len, off);
                let win = &mut backing[at..at + len];
                let (n, _) = prog.transfer_into(win, 0, 1, 0, from, &buf, ucount, 0, placed, store);
                assert_eq!(n, placed, "transfer_into moved: {ctx}");
                assert!(*win == want, "transfer_into placed: {ctx}");
                assert_untouched_around(&backing, at, len, &ctx);

                let (mut backing, at) = backed_window(len, off);
                let win = &mut backing[at..at + len];
                let (n, _) = prog.unpack_into(stream, win, 0, 1, 0, store);
                assert_eq!(n, placed, "unpack_into moved: {ctx}");
                assert!(*win == want, "unpack_into placed: {ctx}");
                assert_untouched_around(&backing, at, len, &ctx);

                if cut < len {
                    // two pieces, the second at typemap displacement `cut`
                    // and stream position `below_cut`
                    let (mut backing, at) = backed_window(len, off);
                    let (first, second) = backing[at..at + len].split_at_mut(cut);
                    let a =
                        prog.transfer_into(first, 0, 1, 0, from, &buf, ucount, 0, placed, store);
                    let rest = placed - below_cut;
                    let b = prog.transfer_into(
                        second,
                        cut as i64,
                        1,
                        below_cut as u64,
                        from,
                        &buf,
                        ucount,
                        below_cut as u64,
                        rest,
                        store,
                    );
                    assert_eq!((a.0, b.0), (below_cut, rest), "transfer_into pieces: {ctx}");
                    assert!(backing[at..at + len] == want, "transfer_into pieces: {ctx}");
                    assert_untouched_around(&backing, at, len, &ctx);

                    let (mut backing, at) = backed_window(len, off);
                    let (first, second) = backing[at..at + len].split_at_mut(cut);
                    let a = prog.unpack_into(stream, first, 0, 1, 0, store);
                    let b = prog.unpack_into(
                        &stream[below_cut..],
                        second,
                        cut as i64,
                        1,
                        below_cut as u64,
                        store,
                    );
                    assert_eq!((a.0, b.0), (below_cut, placed - below_cut), "{ctx}");
                    assert!(backing[at..at + len] == want, "unpack_into pieces: {ctx}");
                    assert_untouched_around(&backing, at, len, &ctx);
                }
            }
            // and back out into the typed user buffer, claiming its lines
            let ctx = format!("run {run} gap {gap} lead {lead} window {len} line offset {off}");
            let mut out = vec![UNTOUCHED; span];
            let mut back = vec![UNTOUCHED; span];
            lay(&user_runs, &stream[..placed], &mut back);
            let (n, _) = prog.transfer_out_of(&want, 0, 1, 0, from, &mut out, 0, ucount, 0, placed);
            assert_eq!(n, placed, "transfer_out_of moved: {ctx}");
            assert!(out == back, "transfer_out_of extracted: {ctx}");
        }
    }
}

fn assert_untouched_around(backing: &[u8], at: usize, len: usize, ctx: &str) {
    assert!(
        backing[..at].iter().all(|&b| b == UNTOUCHED),
        "before the window: {ctx}"
    );
    assert!(
        backing[at + len..].iter().all(|&b| b == UNTOUCHED),
        "after the window: {ctx}"
    );
}

/// User buffers whose blocks each hold one window run, several, or a
/// piece of one, with gaps between them.
fn user_types(run: u64) -> Vec<Datatype> {
    [run, 2 * run + 8, 100]
        .into_iter()
        .map(|block| Datatype::hvector(64, 1, block as i64 + 24, &Datatype::basic(block as u32)))
        .map(Result::unwrap)
        .collect()
}

#[test]
fn placed_runs_match_the_reference_in_windows_the_claim_reaches_past() {
    for run in RUNS {
        for user in user_types(run) {
            // gaps shorter and longer than the claim; a lead off the
            // cache-line grid
            check(run, 24, 4, 0, &user);
            check(run, CLAIM_AHEAD as u64 + 40, 3, 13, &user);
        }
    }
}

#[test]
fn placed_runs_match_the_reference_in_windows_shorter_than_the_claim() {
    for run in RUNS {
        for user in user_types(run) {
            // two runs where they fit in CLAIM_AHEAD bytes, else one: all
            // but the longest windows of the runs up to 1280 B are shorter
            // than the claim
            let count = if 2 * run + 40 < CLAIM_AHEAD as u64 {
                2
            } else {
                1
            };
            check(run, 40, count, 7, &user);
        }
    }
}
