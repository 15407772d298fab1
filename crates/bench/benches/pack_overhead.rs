//! CI gates on what the pack path costs over the copy itself.
//!
//! * On a *flat contiguous* type both the compiled interpreter and the
//!   naive tree walk reduce to one `memcpy`; whatever the program adds on
//!   top (cache lookup, frame dispatch, sink bookkeeping) must stay
//!   within 2% of the tree walk.
//! * On the Figure 4 fileview (8-byte blocks at a 16-byte pitch, 128 KiB,
//!   L2-resident — the Figure 5/6 regime) `ff_pack` must reach at least
//!   half the speed of a hand-written loop of the same shape: the "typed
//!   pack ≤ manual pack" guideline of Hunold, Carpen-Amarie & Träff with
//!   a factor of two of slack.
//!
//! Exits non-zero on a sustained violation so `ci.sh` can gate on it;
//! min-of-samples and a retry loop keep the gates robust against
//! scheduler noise.

use lio_bench::harness::Group;
use lio_datatype::{ff_pack, Datatype, FlatIter};
use std::hint::black_box;

const TOLERANCE: f64 = 1.02;
/// `ff_pack` may take at most this multiple of the manual loop's time.
const FIG4_TOLERANCE: f64 = 2.0;
const ATTEMPTS: usize = 5;

fn treewalk_pack(src: &[u8], count: u64, d: &Datatype, skip: u64, out: &mut [u8]) -> usize {
    let mut cursor = 0;
    for run in FlatIter::with_skip(d, count, skip) {
        if cursor == out.len() {
            break;
        }
        let n = (run.len as usize).min(out.len() - cursor);
        let s = run.disp as usize;
        out[cursor..cursor + n].copy_from_slice(&src[s..s + n]);
        cursor += n;
    }
    cursor
}

/// The Figure 4 gate: `ff_pack` against the loop a user would write for
/// 16384 blocks of 8 bytes at a 16-byte pitch.
fn fig4_gate() -> bool {
    const NBLOCK: usize = 16384;
    let d = lio_noncontig::figure4_filetype(0, 2, NBLOCK as u64, 8);
    let src: Vec<u8> = (0..d.extent() as usize).map(|i| (i % 251) as u8).collect();
    let total = d.size() as usize;
    let manual = |src: &[u8], out: &mut [u8]| {
        for (b, o) in out.chunks_exact_mut(8).enumerate() {
            o.copy_from_slice(&src[b * 16..b * 16 + 8]);
        }
    };
    // a wrong manual loop is not a baseline
    let (mut want, mut out) = (vec![0u8; total], vec![0u8; total]);
    assert_eq!(ff_pack(&src, 1, &d, 0, &mut want), total);
    manual(&src, &mut out);
    assert_eq!(out, want, "manual Figure 4 loop diverges from ff_pack");

    let mut g = Group::new("pack_overhead_fig4");
    g.sample_size(20);
    g.throughput_bytes(total as u64);
    let mut best = f64::INFINITY;
    for attempt in 1..=ATTEMPTS {
        let hand = g.bench(format!("manual/attempt{attempt}"), || {
            manual(black_box(&src), black_box(&mut out));
        });
        let typed = g.bench(format!("ff_pack/attempt{attempt}"), || {
            ff_pack(black_box(&src), 1, &d, 0, black_box(&mut out));
        });
        let ratio = typed.min_ns / hand.min_ns;
        best = best.min(ratio);
        println!("pack_overhead: fig4 ff_pack/manual min-ratio {ratio:.3} (attempt {attempt})");
        if ratio <= FIG4_TOLERANCE {
            println!("pack_overhead: fig4 PASS ({ratio:.3} <= {FIG4_TOLERANCE})");
            return true;
        }
    }
    eprintln!(
        "pack_overhead: FAIL — ff_pack takes {best:.3}x the manual loop on the Figure 4 \
         fileview across {ATTEMPTS} attempts (gate {FIG4_TOLERANCE})"
    );
    false
}

fn main() {
    if !fig4_gate() {
        std::process::exit(1);
    }
    // one contiguous 4 MiB run: the degenerate flat case
    let d = Datatype::contiguous(4 << 20, &Datatype::byte()).unwrap();
    let src = vec![0x7Eu8; d.extent() as usize];
    let total = d.size() as usize;
    let mut out = vec![0u8; total];

    let mut g = Group::new("pack_overhead");
    g.sample_size(20);
    g.throughput_bytes(total as u64);

    let mut worst = f64::INFINITY;
    for attempt in 1..=ATTEMPTS {
        let walk = g.bench(format!("treewalk/attempt{attempt}"), || {
            treewalk_pack(black_box(&src), 1, &d, 0, black_box(&mut out));
        });
        let compiled = g.bench(format!("compiled/attempt{attempt}"), || {
            d.program()
                .pack_into(black_box(&src), 0, 1, 0, black_box(&mut out));
        });
        let shipped = g.bench(format!("ff_pack/attempt{attempt}"), || {
            ff_pack(black_box(&src), 1, &d, 0, black_box(&mut out));
        });
        let ratio = compiled.min_ns.max(shipped.min_ns) / walk.min_ns;
        worst = worst.min(ratio);
        println!("pack_overhead: compiled/treewalk min-ratio {ratio:.4} (attempt {attempt})");
        if ratio <= TOLERANCE {
            println!("pack_overhead: PASS ({ratio:.4} <= {TOLERANCE})");
            return;
        }
    }
    eprintln!(
        "pack_overhead: FAIL — compiled pack {worst:.4}x the tree walk on a flat-contiguous \
         type across {ATTEMPTS} attempts (gate {TOLERANCE})"
    );
    std::process::exit(1);
}
