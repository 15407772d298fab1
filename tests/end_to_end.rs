//! Cross-crate integration tests: the full stack (datatypes → mpi → pfs →
//! core → benchmarks) exercised through the public facade.

use listless_io::prelude::*;
use std::sync::Arc;

#[test]
fn noncontig_benchmark_verifies_all_modes() {
    use listless_io::noncontig::{run, Access, Config, Pattern};
    for engine in [Engine::ListBased, Engine::Listless] {
        for access in [Access::Independent, Access::Collective] {
            let mut cfg = Config::new(3, 16, 8);
            cfg.engine = engine;
            cfg.access = access;
            cfg.pattern = Pattern::NcNc;
            cfg.bytes_per_proc = 16 * 8 * 3;
            cfg.verify = true;
            let r = run(&cfg);
            assert!(r.write_bpp > 0.0 && r.read_bpp > 0.0);
        }
    }
}

#[test]
fn btio_end_to_end_verifies() {
    use listless_io::btio::{run_on, verify_file, Class, Config};
    let shared = SharedFile::new(MemFile::new());
    let mut cfg = Config::new(Class::S, 4);
    cfg.nsteps = 2;
    cfg.compute_sweeps = 0;
    run_on(&cfg, shared.clone());
    verify_file(&shared, Class::S, 2);
}

/// The headline claim, measured as communication volume: for a collective
/// write of small blocks, the list-based engine ships ol-lists whose size
/// rivals the data, while listless ships (almost) only data.
#[test]
fn listless_moves_less_metadata() {
    use listless_io::noncontig::figure4_filetype;

    let mut volumes = Vec::new();
    for hints in [Hints::list_based(), Hints::listless()] {
        let shared = SharedFile::new(MemFile::new());
        let bytes = World::run(4, |comm| {
            let me = comm.rank() as u64;
            // 512 blocks of 8 bytes per rank
            let ft = figure4_filetype(me, 4, 512, 8);
            let mut f = File::open(comm, shared.clone(), hints).unwrap();
            f.set_view(0, Datatype::byte(), ft).unwrap();
            let data = vec![me as u8; 512 * 8];
            f.write_at_all(0, &data, 512 * 8, &Datatype::byte())
                .unwrap();
            comm.barrier();
            comm.world_stats().bytes_sent
        })[0];
        volumes.push(bytes);
    }
    let (list, listless) = (volumes[0], volumes[1]);
    // per 8-byte element the list-based engine sends a 16-byte tuple on
    // top of the data (paper Section 2.3): expect ≥ 2x the traffic
    assert!(
        list as f64 > listless as f64 * 2.0,
        "list-based sent {list} bytes, listless {listless}"
    );
}

/// Fileview caching pays once per set_view, not per access: across many
/// collective accesses the listless metadata volume is constant.
#[test]
fn fileview_caching_amortizes() {
    use listless_io::noncontig::figure4_filetype;

    let volume_for_steps = |steps: u64| -> (u64, u64) {
        let mut out = (0, 0);
        for (i, hints) in [Hints::list_based(), Hints::listless()]
            .into_iter()
            .enumerate()
        {
            let shared = SharedFile::new(MemFile::new());
            let bytes = World::run(2, |comm| {
                let me = comm.rank() as u64;
                let ft = figure4_filetype(me, 2, 128, 8);
                let mut f = File::open(comm, shared.clone(), hints).unwrap();
                f.set_view(0, Datatype::byte(), ft).unwrap();
                let data = vec![me as u8; 128 * 8];
                for s in 0..steps {
                    f.write_at_all(s * 128 * 8, &data, 128 * 8, &Datatype::byte())
                        .unwrap();
                }
                comm.barrier();
                comm.world_stats().bytes_sent
            })[0];
            if i == 0 {
                out.0 = bytes;
            } else {
                out.1 = bytes;
            }
        }
        out
    };
    let (l1, f1) = volume_for_steps(1);
    let (l8, f8) = volume_for_steps(8);
    // list-based metadata grows with every access...
    let list_growth = (l8 - l1) as f64 / 7.0;
    // ...and per-step listless growth is data plus small headers only
    let listless_growth = (f8 - f1) as f64 / 7.0;
    assert!(
        list_growth > listless_growth * 1.5,
        "per-access traffic: list {list_growth}, listless {listless_growth}"
    );
}

/// Data sieving turns thousands of small accesses into a few large ones;
/// direct mode does the opposite. CountingFile sees the difference.
#[test]
fn sieving_reduces_file_accesses() {
    use listless_io::pfs::CountingFile;

    let run_with = |mode: SievingMode| -> (u64, u64) {
        let counting = Arc::new(CountingFile::new(MemFile::new()));
        let shared = SharedFile::from_arc(counting.clone() as Arc<dyn StorageFile>);
        World::run(1, |comm| {
            let hints = Hints::listless().sieving_mode(mode).ind_buffer(1 << 20);
            let mut f = File::open(comm, shared.clone(), hints).unwrap();
            let ft = Datatype::vector(1024, 1, 2, &Datatype::double()).unwrap();
            f.set_view(0, Datatype::double(), ft).unwrap();
            let data = vec![3u8; 1024 * 8];
            f.write_at(0, &data, 1024 * 8, &Datatype::byte()).unwrap();
        });
        let s = counting.stats();
        (s.reads + s.writes, s.bytes_read + s.bytes_written)
    };

    let (sieve_ops, sieve_bytes) = run_with(SievingMode::Sieve);
    let (direct_ops, direct_bytes) = run_with(SievingMode::Direct);
    // sieving: few accesses, more bytes (reads gaps); direct: one access
    // per block, exact bytes
    assert!(sieve_ops < 10, "sieving used {sieve_ops} accesses");
    assert_eq!(direct_ops, 1024);
    assert!(sieve_bytes > direct_bytes);
    assert_eq!(direct_bytes, 1024 * 8);
}

/// The stack works unchanged over a throttled (bandwidth-modelled) file.
#[test]
fn throttled_storage_end_to_end() {
    let throttled = ThrottledFile::new(
        MemFile::new(),
        Throttle {
            read_bw: 5.0e9,
            write_bw: 5.0e9,
            latency: std::time::Duration::from_micros(1),
        },
    );
    let shared = SharedFile::new(throttled);
    World::run(2, |comm| {
        let me = comm.rank() as u64;
        let ft = Datatype::vector(32, 1, 2, &Datatype::double()).unwrap();
        let mut f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
        f.set_view(me * 8, Datatype::double(), ft).unwrap();
        let data = vec![me as u8 + 1; 32 * 8];
        f.write_at_all(0, &data, 32 * 8, &Datatype::byte()).unwrap();
        let mut back = vec![0u8; 32 * 8];
        f.read_at_all(0, &mut back, 32 * 8, &Datatype::byte())
            .unwrap();
        assert_eq!(back, data);
    });
    assert_eq!(shared.len(), 2 * 32 * 8);
}

/// Short transfers and transient errors injected by a FaultyFile are
/// absorbed by the retry/resume layer: reads and writes complete with
/// correct data under an aggressive survivable plan.
#[test]
fn survives_short_transfers() {
    use listless_io::pfs::{FaultPlan, FaultyFile};

    let mem = Arc::new(MemFile::with_data(vec![7u8; 256]));
    let faulty = FaultyFile::new(
        Arc::clone(&mem),
        FaultPlan {
            short_per_256: 200, // most accesses truncated
            transient_per_256: 64,
            ..FaultPlan::seeded(0xE2E)
        },
    );
    let shared = SharedFile::new(faulty);
    World::run(1, |comm| {
        let f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
        let mut buf = vec![0u8; 256];
        f.read_bytes_at(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7), "short reads corrupted data");
        f.write_bytes_at(64, &[9u8; 128]).unwrap();
        f.sync().unwrap(); // first flushes fail transiently, then recover
    });
    let snap = mem.snapshot();
    assert_eq!(&snap[..64], &[7u8; 64][..]);
    assert_eq!(&snap[64..192], &[9u8; 128][..]);
    assert_eq!(&snap[192..], &[7u8; 64][..]);
}

/// Injected hard errors propagate as `IoError::Storage`, not panics —
/// a torn write is permanent, so the bounded retry gives up on it.
#[test]
fn storage_errors_propagate() {
    use listless_io::core::IoError;
    use listless_io::pfs::{FaultPlan, FaultyFile};

    let file = FaultyFile::new(
        MemFile::new(),
        FaultPlan {
            torn_after: Some(0), // every write fails permanently
            ..FaultPlan::disabled()
        },
    );
    let shared = SharedFile::new(file);
    World::run(1, |comm| {
        let f = File::open(comm, shared.clone(), Hints::listless()).unwrap();
        let err = f.write_bytes_at(0, &[1, 2, 3]).unwrap_err();
        assert!(matches!(err, IoError::Storage(_)));
    });
}

/// The facade's prelude exposes a workable API surface.
#[test]
fn prelude_covers_the_basics() {
    let shared = SharedFile::new(MemFile::new());
    World::run(2, |comm: &Comm| {
        let mut f = File::open(comm, shared.clone(), Hints::default()).unwrap();
        let sub = Datatype::subarray(
            &[4, 4],
            &[4, 2],
            &[0, 2 * comm.rank() as u64],
            Order::C,
            &Datatype::double(),
        )
        .unwrap();
        f.set_view(0, Datatype::double(), sub).unwrap();
        let data = vec![comm.rank() as u8 + 1; 4 * 2 * 8];
        f.write_at_all(0, &data, 4 * 2 * 8, &Datatype::byte())
            .unwrap();
    });
    assert_eq!(shared.len(), 4 * 4 * 8);
}

/// Window scratch is sized to what the access can address, so pin both
/// ends: sieve and collective buffers of 1, 13 and 4097 bytes and the
/// defaults, each against an access smaller and one larger than the
/// buffer, both engines, independent and collective — the file and the
/// read-back byte-identical to a naive typemap walk. The collective runs
/// once more on storage that lends nothing: there the listless read-back
/// is two-phase and takes a collective buffer (on the `MemFile` it is each
/// rank's own sieved read).
#[test]
fn window_buffers_smaller_and_larger_than_the_access() {
    use listless_io::datatype::typemap::{expand, reference_pack};
    use listless_io::noncontig::{figure4_filetype, noncontig_memtype};

    const P: u64 = 2;
    const DISP: u64 = 5;
    // 4-byte blocks: 8 data bytes per 12-byte memtype instance, landing in
    // a 16-byte file instance the two ranks interleave in
    let memtype = noncontig_memtype(2, 4);
    let filetype = |rank: u64| figure4_filetype(rank, P, 2, 4);

    #[derive(Clone, Copy, Debug)]
    enum Access {
        Independent,
        Collective,
        CollectiveStaged,
    }

    // 8 B per rank (a 12 B file range) and 8800 B per rank (17600 B)
    for count in [1u64, 1100] {
        let users: Vec<Vec<u8>> = (0..P)
            .map(|r| {
                (0..count * memtype.extent())
                    .map(|i| (i * (r + 2) + 1) as u8)
                    .collect()
            })
            .collect();
        let streams: Vec<Vec<u8>> = users
            .iter()
            .map(|u| reference_pack(u, &memtype, count))
            .collect();
        let mut want = vec![0u8; (DISP + count * 16) as usize];
        for (r, stream) in streams.iter().enumerate() {
            let mut k = 0;
            for run in expand(&filetype(r as u64), count) {
                let (o, n) = ((DISP as i64 + run.disp) as usize, run.len as usize);
                want[o..o + n].copy_from_slice(&stream[k..k + n]);
                k += n;
            }
        }

        for buffer in [Some(1usize), Some(13), Some(4097), None] {
            for engine in [Hints::list_based(), Hints::listless()] {
                for access in [
                    Access::Independent,
                    Access::Collective,
                    Access::CollectiveStaged,
                ] {
                    let mut hints = engine;
                    if let Some(b) = buffer {
                        hints = hints.ind_buffer(b).cb_buffer(b);
                    }
                    let ctx = format!(
                        "{:?} {access:?} buffer {buffer:?} count {count}",
                        hints.engine
                    );

                    let shared = match access {
                        Access::CollectiveStaged => {
                            SharedFile::new(listless_io::pfs::CountingFile::new(MemFile::new()))
                        }
                        _ => SharedFile::new(MemFile::new()),
                    };
                    let backs = World::run(P as usize, |comm| {
                        let me = comm.rank();
                        let mut f = File::open(comm, shared.clone(), hints).unwrap();
                        f.set_view(DISP, Datatype::byte(), filetype(me as u64))
                            .unwrap();
                        let mut back = vec![0u8; users[me].len()];
                        let n = match access {
                            Access::Independent => {
                                f.write_at(0, &users[me], count, &memtype).unwrap();
                                comm.barrier();
                                f.read_at(0, &mut back, count, &memtype).unwrap()
                            }
                            Access::Collective | Access::CollectiveStaged => {
                                f.write_at_all(0, &users[me], count, &memtype).unwrap();
                                f.read_at_all(0, &mut back, count, &memtype).unwrap()
                            }
                        };
                        assert_eq!(n, count * memtype.size(), "{ctx}");
                        back
                    });

                    let mut file = vec![0u8; shared.len() as usize];
                    shared.storage().read_at(0, &mut file).unwrap();
                    assert_eq!(file, want, "file differs from the reference; {ctx}");
                    for (back, stream) in backs.iter().zip(&streams) {
                        assert_eq!(
                            &reference_pack(back, &memtype, count),
                            stream,
                            "read-back differs; {ctx}"
                        );
                    }
                }
            }
        }
    }
}
