//! Tuning hints, modelled on ROMIO's `MPI_Info` keys: the engine, the
//! two window sizes, the io-process count, the telemetry layers and the
//! storage backend.

/// The window every loop over file bytes uses unless a hint says
/// otherwise: the default of both [`Hints::ind_buffer_size`] and
/// [`Hints::cb_buffer_size`].
/// Cache-sized on purpose: an io-process stores into its window and the
/// storage layer loads from it straight after, so the window must still
/// be in L2 (2 MiB on the reference box) next to the messages it is
/// filled from. On the benchmark's three collective workloads 512 KiB
/// ties 256 KiB and beats 1 MiB and the former 4 MiB (DESIGN.md §3.4 has
/// the sweep).
pub const DEFAULT_WINDOW: usize = 512 * 1024;

/// The set of telemetry layers [`Hints::observe`] arms at open.
pub use lio_obs::Layers;

/// Which datatype-handling engine a file uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Explicit flattening into `⟨offset, length⟩` lists; linear-list
    /// navigation; ol-list exchange for collective access. The ROMIO-style
    /// baseline (paper Section 2).
    ListBased,
    /// Flattening-on-the-fly; `O(depth)` navigation; fileview caching and
    /// mergeview for collective access. The paper's contribution
    /// (Section 3).
    Listless,
}

/// Which storage substrate backs a file opened through the hint path.
///
/// The backends are byte-for-byte equivalent by construction (the
/// cross-backend differential corpus in `tests/backend.rs` pins this);
/// they differ only in where the bytes live and what the access costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// In-memory file (`lio_pfs::MemFile`) — memcpy-speed storage, the
    /// paper's "fast file system" regime. The default.
    #[default]
    Mem,
    /// In-memory file behind the calibrated SX-6 local-FS bandwidth model
    /// (`lio_pfs::Throttle`), which stages every window.
    Throttled,
    /// Real OS file: an unlinked temp file in `LIO_OS_DIR`
    /// (`lio_pfs::UnixFile::temp`), lent through its mapping where the
    /// access lies inside it and reached with `pread`/`pwrite` elsewhere.
    Os,
}

impl BackendKind {
    /// The canonical info-value / env-value name of this backend.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Mem => "mem",
            BackendKind::Throttled => "throttled",
            BackendKind::Os => "os",
        }
    }

    /// Parse a backend name (`mem`, `throttled`, `os`).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim() {
            "mem" | "memory" => Some(BackendKind::Mem),
            "throttled" => Some(BackendKind::Throttled),
            "os" => Some(BackendKind::Os),
            _ => None,
        }
    }

    /// The backend selected by the `LIO_BACKEND` environment variable,
    /// or the default (`Mem`) when unset or unparseable.
    pub fn from_env() -> BackendKind {
        std::env::var("LIO_BACKEND")
            .ok()
            .and_then(|v| BackendKind::parse(&v))
            .unwrap_or_default()
    }
}

/// A malformed `MPI_Info` value: the key is recognized, but the value
/// cannot be parsed. Carries enough structure for callers to report or
/// match on the failing pair instead of string-scraping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintError {
    /// The recognized info key whose value failed to parse.
    pub key: String,
    /// The offending value, verbatim.
    pub value: String,
    /// What a valid value would have looked like.
    pub reason: String,
}

impl std::fmt::Display for HintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad hint {}={:?}: {}", self.key, self.value, self.reason)
    }
}

impl std::error::Error for HintError {}

impl HintError {
    fn new(key: &str, value: &str, reason: impl Into<String>) -> HintError {
        HintError {
            key: key.to_string(),
            value: value.to_string(),
            reason: reason.into(),
        }
    }
}

/// Per-file tuning knobs (ROMIO's `ind_rd_buffer_size`,
/// `cb_buffer_size`, `cb_nodes`, ... equivalents).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hints {
    /// Engine selection.
    pub engine: Engine,
    /// Window size of independent data sieving (ROMIO has two knobs,
    /// 512 KiB for writes and 4 MiB for reads; we use one). Default
    /// [`DEFAULT_WINDOW`]. Windows lie on the absolute grid of multiples
    /// of this size, so it is also the largest storage request.
    pub ind_buffer_size: usize,
    /// Window size of collective (two-phase) file access per IOP. Default
    /// [`DEFAULT_WINDOW`] — the same cache-sized constant as the sieve
    /// window, not ROMIO's disk-era 4 MiB: the IOP fills the window from
    /// the buffers the ranks lend it and the storage layer reads it
    /// straight back, so it
    /// must fit L2 beside them. Windows lie on the absolute grid of
    /// multiples of this size and interior file-domain boundaries are
    /// rounded to it. Setting it (builder, `cb_buffer_size` info key) sets
    /// window and request size exactly; raise it for storage whose cost is
    /// per request rather than per byte.
    pub cb_buffer_size: usize,
    /// Number of io-processes for collective access; `0` means every rank
    /// is an IOP (the common single-node configuration in the paper).
    pub cb_nodes: usize,
    /// Telemetry: `Some(layers)` arms exactly these `lio-obs` layers
    /// (metrics, trace, health) and disarms the others when a
    /// file is opened with these hints; `None` leaves the process-global
    /// setting (and the `LIO_OBS` environment variable) in charge.
    pub obs: Option<Layers>,
    /// Which storage substrate backs files opened through the
    /// backend-aware open path ([`crate::SharedFile::for_backend`]).
    /// The `LIO_BACKEND` environment variable overrides this hint (see
    /// [`Hints::effective_backend`]).
    pub backend: BackendKind,
}

impl Hints {
    /// Defaults with the given engine.
    pub fn with_engine(engine: Engine) -> Hints {
        Hints {
            engine,
            ind_buffer_size: DEFAULT_WINDOW,
            cb_buffer_size: DEFAULT_WINDOW,
            cb_nodes: 0,
            obs: None,
            backend: BackendKind::Mem,
        }
    }

    /// ROMIO-style list-based engine with default buffers.
    pub fn list_based() -> Hints {
        Hints::with_engine(Engine::ListBased)
    }

    /// Listless engine with default buffers.
    pub fn listless() -> Hints {
        Hints::with_engine(Engine::Listless)
    }

    /// Override the independent sieving buffer size (builder style).
    pub fn ind_buffer(mut self, bytes: usize) -> Hints {
        self.ind_buffer_size = bytes.max(1);
        self
    }

    /// Override the collective buffer size (builder style).
    pub fn cb_buffer(mut self, bytes: usize) -> Hints {
        self.cb_buffer_size = bytes.max(1);
        self
    }

    /// Override the number of io-processes (builder style).
    pub fn io_nodes(mut self, n: usize) -> Hints {
        self.cb_nodes = n;
        self
    }

    /// Arm exactly `layers` of `lio-obs` at open time, and disarm the
    /// others (builder style). The default (`None`) defers to the
    /// per-layer `set_enabled` calls and the `LIO_OBS` environment
    /// variable.
    pub fn observe(mut self, layers: Layers) -> Hints {
        self.obs = Some(layers);
        self
    }

    /// Select the storage backend for backend-aware opens (builder
    /// style). The `LIO_BACKEND` environment variable overrides this
    /// either way (see [`Hints::effective_backend`]).
    pub fn backend(mut self, kind: BackendKind) -> Hints {
        self.backend = kind;
        self
    }

    /// The backend this open should use, honoring the `LIO_BACKEND`
    /// environment override (`mem`, `throttled`, `os`; anything
    /// unparseable or unset defers to the `backend` hint).
    pub fn effective_backend(&self) -> BackendKind {
        match std::env::var("LIO_BACKEND") {
            Ok(v) => BackendKind::parse(&v).unwrap_or(self.backend),
            Err(_) => self.backend,
        }
    }

    /// Resolve `cb_nodes` against the world size.
    pub fn effective_io_nodes(&self, world: usize) -> usize {
        if self.cb_nodes == 0 {
            world
        } else {
            self.cb_nodes.min(world).max(1)
        }
    }
}

impl Default for Hints {
    fn default() -> Hints {
        Hints::listless()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let h = Hints::default();
        assert_eq!(h.engine, Engine::Listless);
        assert_eq!(h.ind_buffer_size, DEFAULT_WINDOW);
        assert_eq!(h.cb_buffer_size, DEFAULT_WINDOW);
        assert_eq!(h.effective_io_nodes(8), 8);
    }

    /// Independent and collective accesses walk one window grid by
    /// default: both sizes are the one cache-sized constant.
    #[test]
    fn both_window_defaults_are_the_one_constant() {
        let h = Hints::default();
        assert_eq!(h.ind_buffer_size, h.cb_buffer_size);
        assert_eq!(DEFAULT_WINDOW, 512 * 1024);
        for engine in [Hints::list_based(), Hints::listless()] {
            assert_eq!(engine.ind_buffer_size, engine.cb_buffer_size);
        }
    }

    #[test]
    fn builders() {
        let h = Hints::list_based()
            .ind_buffer(1024)
            .cb_buffer(2048)
            .io_nodes(2);
        assert_eq!(h.engine, Engine::ListBased);
        assert_eq!(h.ind_buffer_size, 1024);
        assert_eq!(h.cb_buffer_size, 2048);
        assert_eq!(h.effective_io_nodes(8), 2);
        assert_eq!(h.effective_io_nodes(1), 1);
    }

    #[test]
    fn zero_buffer_clamped() {
        let h = Hints::listless().ind_buffer(0);
        assert_eq!(h.ind_buffer_size, 1);
    }
}

impl Hints {
    /// Parse ROMIO-style `MPI_Info` key/value pairs into hints, starting
    /// from `self`. Unknown keys are ignored (the `MPI_Info` contract);
    /// malformed values return a typed [`HintError`] naming the pair.
    ///
    /// Recognized keys: `engine` (`list_based`/`listless`),
    /// `ind_rd_buffer_size`, `ind_wr_buffer_size` (both map to the single
    /// independent buffer knob; the larger wins), `cb_buffer_size` (both
    /// window sizes default to [`DEFAULT_WINDOW`], 512 KiB),
    /// `cb_nodes`, `backend` (`mem`/`throttled`/`os` — storage substrate
    /// for backend-aware opens), and `lio_obs`, the telemetry layers armed
    /// at open (`all`, `off`, or a comma list of `metrics`, `trace` and
    /// `health`; `enable` and `profile` mean `metrics`).
    ///
    /// ROMIO's `romio_ds_write` / `romio_ds_read` and the former
    /// dense-write detection key are unknown keys here, whatever their value:
    /// a non-contiguous independent access always sieves (ROMIO's default,
    /// the paper's Section 2.2), and a collective write skips the read of
    /// a window its data covers whenever the engine's own test says so.
    ///
    /// ```
    /// use lio_core::{Engine, Hints};
    /// let h = Hints::default()
    ///     .apply_info([("cb_buffer_size", "1048576"), ("romio_ds_write", "disable")])
    ///     .unwrap();
    /// assert_eq!(h.cb_buffer_size, 1048576);
    /// assert_eq!(h, Hints::default().cb_buffer(1048576));
    /// ```
    pub fn apply_info<'a>(
        mut self,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> std::result::Result<Hints, HintError> {
        for (k, v) in pairs {
            match k {
                "engine" => {
                    self.engine = match v {
                        "list_based" | "list-based" => Engine::ListBased,
                        "listless" => Engine::Listless,
                        _ => return Err(HintError::new(k, v, "expected list_based or listless")),
                    }
                }
                "ind_rd_buffer_size" | "ind_wr_buffer_size" => {
                    let n: usize = v
                        .parse()
                        .map_err(|_| HintError::new(k, v, "expected a byte count"))?;
                    self.ind_buffer_size = self.ind_buffer_size.max(n.max(1));
                }
                "cb_buffer_size" => {
                    self.cb_buffer_size = v
                        .parse::<usize>()
                        .map_err(|_| HintError::new(k, v, "expected a byte count"))?
                        .max(1);
                }
                "cb_nodes" => {
                    self.cb_nodes = v
                        .parse()
                        .map_err(|_| HintError::new(k, v, "expected a process count"))?;
                }
                "backend" => {
                    self.backend = BackendKind::parse(v)
                        .ok_or_else(|| HintError::new(k, v, "expected mem, throttled, or os"))?;
                }
                "lio_obs" => {
                    let set = Layers::parse(v).map_err(|name| {
                        HintError::new(
                            k,
                            v,
                            format!(
                                "unknown layer {name:?}: expected all, off, or a comma list \
                                 of metrics, trace, profile, health"
                            ),
                        )
                    })?;
                    self.obs = Some(set);
                }
                _ => {} // unknown keys are ignored, like MPI_Info
            }
        }
        Ok(self)
    }

    /// Serialize these hints back to `MPI_Info` pairs. Every recognized
    /// key that [`Hints::apply_info`] parses is emitted (`lio_obs` only
    /// when the hint arms a set of layers), so
    /// `base.apply_info(h.to_info_pairs())` reconstructs `h` for any base
    /// whose independent buffer does not exceed `h`'s (the
    /// `ind_*_buffer_size` keys are larger-wins by the ROMIO contract).
    pub fn to_info(&self) -> Vec<(String, String)> {
        let mut pairs = vec![
            (
                "engine".to_string(),
                match self.engine {
                    Engine::ListBased => "list_based".to_string(),
                    Engine::Listless => "listless".to_string(),
                },
            ),
            (
                "ind_rd_buffer_size".to_string(),
                self.ind_buffer_size.to_string(),
            ),
            (
                "ind_wr_buffer_size".to_string(),
                self.ind_buffer_size.to_string(),
            ),
            (
                "cb_buffer_size".to_string(),
                self.cb_buffer_size.to_string(),
            ),
            ("cb_nodes".to_string(), self.cb_nodes.to_string()),
            ("backend".to_string(), self.backend.name().to_string()),
        ];
        if let Some(set) = self.obs {
            pairs.push(("lio_obs".to_string(), set.to_string()));
        }
        pairs
    }
}

#[cfg(test)]
mod info_tests {
    use super::*;

    #[test]
    fn info_pairs_parse() {
        let h = Hints::list_based()
            .apply_info([
                ("engine", "listless"),
                ("cb_buffer_size", "65536"),
                ("cb_nodes", "2"),
                ("ind_rd_buffer_size", "8192"),
                ("ind_wr_buffer_size", "4096"),
                ("totally_unknown_key", "whatever"),
                // keys that once selected the pack loop and armed one
                // telemetry layer each: an info set that still carries
                // them applies
                ("pack_kernel", "avx2"),
                ("lio_trace", "1"),
                ("lio_profile", "enable"),
                ("lio_health", "1"),
            ])
            .unwrap();
        assert_eq!(h.engine, Engine::Listless);
        assert_eq!(h.cb_buffer_size, 65536);
        assert_eq!(h.cb_nodes, 2);
        assert_eq!(h.ind_buffer_size, DEFAULT_WINDOW); // max of default and given
        assert_eq!(h.obs, None);
        // the keys that once selected the independent strategy and
        // switched the collective write's covered-window test change
        // nothing, and no value of theirs is an error
        for (k, v) in [
            ("romio_ds_write", "disable"),
            ("romio_ds_read", "sometimes"),
            ("detect_dense_writes", "maybe"),
        ] {
            assert_eq!(
                Hints::list_based().apply_info([(k, v)]),
                Ok(Hints::list_based())
            );
        }
    }

    #[test]
    fn info_errors_on_malformed_values() {
        assert!(Hints::default().apply_info([("engine", "magic")]).is_err());
        assert!(Hints::default()
            .apply_info([("cb_buffer_size", "lots")])
            .is_err());
        assert!(Hints::default().apply_info([("cb_nodes", "all")]).is_err());
    }

    /// `lio_obs=<name>` arms the one layer and round-trips through
    /// `to_info`.
    fn layer_info_key(name: &str, layer: Layers) {
        let h = Hints::default().apply_info([("lio_obs", name)]).unwrap();
        assert_eq!(h.obs, Some(layer));
        let pairs = Hints::default().observe(layer).to_info();
        assert!(pairs.iter().any(|(k, v)| k == "lio_obs" && v == name));
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.obs, Some(layer));
    }

    #[test]
    fn trace_info_key() {
        layer_info_key("trace", Layers::TRACE);
    }

    /// `profile` names what the access-pattern profile reads: the
    /// metrics, printed back under their own name.
    #[test]
    fn profile_info_key() {
        for v in ["profile", "metrics,profile"] {
            let h = Hints::default().apply_info([("lio_obs", v)]).unwrap();
            assert_eq!(h.obs, Some(Layers::METRICS), "{v}");
        }
        layer_info_key("metrics", Layers::METRICS);
    }

    #[test]
    fn health_info_key() {
        layer_info_key("health", Layers::HEALTH);
    }

    #[test]
    fn obs_info_key_takes_a_set() {
        let h = Hints::default()
            .apply_info([("lio_obs", "Metrics, health")])
            .unwrap();
        assert_eq!(h.obs, Some(Layers::METRICS | Layers::HEALTH));
        let err = Hints::default()
            .apply_info([("lio_obs", "trace,loud")])
            .unwrap_err();
        assert!(err.reason.contains("\"loud\""), "{}", err.reason);
    }

    #[test]
    fn backend_info_key() {
        assert_eq!(Hints::default().backend, BackendKind::Mem);
        let h = Hints::default().apply_info([("backend", "os")]).unwrap();
        assert_eq!(h.backend, BackendKind::Os);
        let h = Hints::default()
            .apply_info([("backend", "throttled")])
            .unwrap();
        assert_eq!(h.backend, BackendKind::Throttled);
        assert!(Hints::default().apply_info([("backend", "cloud")]).is_err());
        // always emitted, round-trips
        let pairs = Hints::default().backend(BackendKind::Os).to_info();
        assert!(pairs.iter().any(|(k, v)| k == "backend" && v == "os"));
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.backend, BackendKind::Os);
    }

    #[test]
    fn backend_env_defers_to_hint() {
        if std::env::var("LIO_BACKEND").is_ok() {
            return; // the env override legitimately wins
        }
        assert_eq!(Hints::default().effective_backend(), BackendKind::Mem);
        assert_eq!(
            Hints::default()
                .backend(BackendKind::Os)
                .effective_backend(),
            BackendKind::Os
        );
        assert_eq!(BackendKind::parse("memory"), Some(BackendKind::Mem));
        assert_eq!(BackendKind::parse("nvme"), None);
        assert_eq!(BackendKind::Os.name(), "os");
    }

    #[test]
    fn small_ind_buffer_respects_existing() {
        let h = Hints::default()
            .ind_buffer(64)
            .apply_info([("ind_rd_buffer_size", "128")])
            .unwrap();
        assert_eq!(h.ind_buffer_size, 128);
    }
}
