//! Hint serialization round-trips: `base.apply_info(h.to_info())` must
//! reconstruct `h` for every recognized key, and malformed values must
//! surface as typed [`HintError`]s naming the failing pair.

use lio_core::{Engine, Hints, SievingMode};

/// `to_info` emits borrowed pairs for `apply_info`.
fn pairs(h: &Hints) -> Vec<(String, String)> {
    h.to_info()
}

fn roundtrip(h: Hints) -> Hints {
    // Base with a minimal independent buffer: the ind_*_buffer_size keys
    // are larger-wins, so any base at or below `h`'s value reconstructs
    // it exactly.
    let base = Hints::with_engine(h.engine).ind_buffer(1);
    let p = pairs(&h);
    base.apply_info(p.iter().map(|(k, v)| (k.as_str(), v.as_str())))
        .unwrap()
}

#[test]
fn roundtrip_reconstructs_every_field() {
    let cases = [
        Hints::default(),
        Hints::list_based(),
        Hints::listless()
            .ind_buffer(8192)
            .cb_buffer(65536)
            .io_nodes(3)
            .sieving_mode(SievingMode::Direct),
        Hints::list_based()
            .sieving_mode(SievingMode::Auto)
            .observability(true),
        Hints::listless().observability(false),
        Hints {
            detect_dense_writes: false,
            ..Hints::list_based()
        },
    ];
    for h in cases {
        assert_eq!(
            roundtrip(h),
            h,
            "to_info/apply_info round-trip lost a field"
        );
    }
}

#[test]
fn roundtrip_is_stable_under_reserialization() {
    let h = Hints::listless().cb_buffer(4096).observability(true);
    let once = roundtrip(h);
    assert_eq!(pairs(&once), pairs(&h), "serialization must be a fixpoint");
}

#[test]
fn obs_key_only_present_when_forced() {
    let neutral = pairs(&Hints::default());
    assert!(
        neutral.iter().all(|(k, _)| k != "lio_obs"),
        "unforced observability must not serialize"
    );
    let forced = pairs(&Hints::default().observability(false));
    assert!(forced.iter().any(|(k, v)| k == "lio_obs" && v == "disable"));
}

#[test]
fn malformed_values_name_the_failing_pair() {
    let cases = [
        ("engine", "quantum", "list_based or listless"),
        ("ind_rd_buffer_size", "big", "byte count"),
        ("ind_wr_buffer_size", "-1", "byte count"),
        ("cb_buffer_size", "4k", "byte count"),
        ("cb_nodes", "all", "process count"),
        ("romio_ds_write", "sometimes", "automatic"),
        ("romio_ds_read", "yes", "automatic"),
        ("detect_dense_writes", "enable", "true or false"),
        ("lio_obs", "loud", "enable or disable"),
    ];
    for (key, value, reason_part) in cases {
        let err = Hints::default().apply_info([(key, value)]).unwrap_err();
        assert_eq!(err.key, key);
        assert_eq!(err.value, value);
        assert!(
            err.reason.contains(reason_part),
            "reason for {key}: {}",
            err.reason
        );
        let msg = err.to_string();
        assert!(
            msg.contains(key) && msg.contains(value),
            "display must name the pair: {msg}"
        );
    }
}

#[test]
fn first_malformed_pair_wins_and_unknown_keys_pass() {
    let err = Hints::default()
        .apply_info([
            ("utterly_unknown", "ignored"),
            ("cb_nodes", "many"),
            ("engine", "also_bad"),
        ])
        .unwrap_err();
    assert_eq!(err.key, "cb_nodes", "errors surface in pair order");
}

/// The listless copy is single-threaded and has no thread-count hint:
/// such a key is an unknown key (ignored whatever the value, as
/// `MPI_Info` requires) and is never serialized.
#[test]
fn removed_key_is_ignored_and_not_emitted() {
    for v in ["4", "many"] {
        let h = Hints::default().apply_info([("pack_threads", v)]).unwrap();
        assert_eq!(h, Hints::default());
    }
    assert!(pairs(&Hints::default())
        .iter()
        .all(|(k, _)| k != "pack_threads"));
}

#[test]
fn engine_key_accepts_both_spellings() {
    let h = Hints::listless()
        .apply_info([("engine", "list-based")])
        .unwrap();
    assert_eq!(h.engine, Engine::ListBased);
}
