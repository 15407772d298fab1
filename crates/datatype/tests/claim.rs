//! Claiming the window lines after a placed run (`kernels::claim_ahead`)
//! changes cache state, never bytes. Runs on either side of both ends of
//! the claimed lengths (255, 256, 1280, 4095 and 4096 B) are placed into
//! windows whose last run ends at, or within `CLAIM_AHEAD` of, the window's
//! end, into windows cut short of the type, and into windows shorter than
//! `CLAIM_AHEAD` — through `RunProgram::transfer_into` (a typed user buffer)
//! and `RunProgram::unpack_into` (a packed stream). Each window must hold
//! what the naive typemap expansion places there, and its gap bytes must be
//! untouched.

use lio_datatype::kernels::CLAIM_AHEAD;
use lio_datatype::typemap::{expand, reference_pack};
use lio_datatype::Datatype;

const RUNS: [u64; 5] = [255, 256, 1280, 4095, 4096];
const UNTOUCHED: u8 = 0xEE;

/// `count` runs of `run` bytes, `run + gap` apart from byte `lead` on.
fn window_type(run: u64, gap: u64, count: u64, lead: i64) -> Datatype {
    let block = Datatype::contiguous(run, &Datatype::byte()).unwrap();
    let disps: Vec<i64> = (0..count as i64)
        .map(|i| lead + i * (run + gap) as i64)
        .collect();
    Datatype::hindexed(&vec![1; count as usize], &disps, &block).unwrap()
}

/// The window after the naive placement of `stream` into the runs of
/// `ft` that lie inside `len` bytes, over a window of `UNTOUCHED` bytes.
fn reference(ft: &Datatype, stream: &[u8], len: usize) -> (Vec<u8>, usize) {
    let mut want = vec![UNTOUCHED; len];
    let mut pos = 0;
    for r in expand(ft, 1) {
        let at = r.disp as usize;
        if at >= len {
            break;
        }
        let n = (r.len as usize).min(len - at).min(stream.len() - pos);
        want[at..at + n].copy_from_slice(&stream[pos..pos + n]);
        pos += n;
    }
    (want, pos)
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

/// Every window shape of [`window_lens`] for runs of `run` bytes, through
/// both placements; `user` is the typed user buffer's layout.
fn check(run: u64, gap: u64, count: u64, lead: i64, user: &Datatype) {
    let ft = window_type(run, gap, count, lead);
    let ucount = ft.size().div_ceil(user.size());
    let span = (ucount - 1) as usize * user.extent() as usize + user.data_ub() as usize;
    let buf: Vec<u8> = (0..span).map(|i| (i * 7 % 251) as u8).collect();
    let stream = reference_pack(&buf, user, ucount);
    let stream = &stream[..ft.size() as usize];
    let prog = ft.program();
    for len in window_lens(&ft, run, gap) {
        let ctx = format!("run {run} gap {gap} count {count} lead {lead} window {len}");
        let (want, placed) = reference(&ft, stream, len);

        let mut win = vec![UNTOUCHED; len];
        let (n, _) = prog.transfer_into(
            &mut win,
            0,
            1,
            0,
            user.program(),
            &buf,
            ucount,
            0,
            stream.len(),
        );
        assert_eq!(n, placed, "transfer_into moved: {ctx}");
        assert!(win == want, "transfer_into placed: {ctx}");

        let mut win = vec![UNTOUCHED; len];
        let (n, _) = prog.unpack_into(stream, &mut win, 0, 1, 0);
        assert_eq!(n, placed, "unpack_into moved: {ctx}");
        assert!(win == want, "unpack_into placed: {ctx}");
    }
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
