//! Tuning hints, modelled on ROMIO's `MPI_Info` keys.

/// Pack-kernel family selector, re-exported from
/// [`lio_datatype::kernels::Mode`] so hint-level callers need not depend
/// on the datatype crate directly.
pub use lio_datatype::kernels::Mode as PackKernel;

/// The default of both window sizes, [`Hints::ind_buffer_size`] and
/// [`Hints::cb_buffer_size`]: one cache-sized constant (512 KiB), shared
/// with the advisor's `cb_buffer_size` rule.
pub use lio_obs::profile::DEFAULT_WINDOW;

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

/// How independent non-contiguous accesses touch the file — and a routed
/// collective read, which is each rank's independent read (see
/// [`crate::File::read_at_all`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SievingMode {
    /// Data sieving: read a large window, copy through it, write it back
    /// (ROMIO's default; the paper's Section 2.2).
    Sieve,
    /// One file access per contiguous block — the alternative the paper's
    /// outlook discusses as a trade-off against sieving.
    Direct,
    /// Decide per access: sieving pays when the view is dense inside its
    /// extent (most of each window is useful); direct access pays when
    /// blocks are large and sparse. This implements the "more general
    /// optimization ... the decision on the trade-off between data
    /// sieving and multiple file accesses" of the paper's outlook
    /// (Section 5). See [`crate::sieve::choose_mode`] for the heuristic.
    Auto,
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
    /// (`lio_pfs::ThrottledFile`).
    Throttled,
    /// Real OS file served through the asynchronous submission-queue
    /// backend (`lio_pfs::OsFile` over an unlinked temp file in
    /// `LIO_OS_DIR`).
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
    /// of this size, so it is also the largest storage request. It sizes
    /// the windows of a routed collective read too (each rank's own sieved
    /// read, [`crate::File::read_at_all`]); by default that is the grid
    /// `cb_buffer_size` gives the two-phase read.
    pub ind_buffer_size: usize,
    /// Window size of collective (two-phase) file access per IOP. Default
    /// [`DEFAULT_WINDOW`] — the same cache-sized constant as the sieve
    /// window, not ROMIO's disk-era 4 MiB: the IOP fills the window from
    /// its messages and the storage layer reads it straight back, so it
    /// must fit L2 beside them. Windows lie on the absolute grid of
    /// multiples of this size and interior file-domain boundaries are
    /// rounded to it. Setting it (builder, `cb_buffer_size` info key) sets
    /// window and request size exactly; raise it for storage whose cost is
    /// per request rather than per byte.
    pub cb_buffer_size: usize,
    /// Number of io-processes for collective access; `0` means every rank
    /// is an IOP (the common single-node configuration in the paper).
    pub cb_nodes: usize,
    /// Independent access strategy for non-contiguous fileviews.
    pub sieving: SievingMode,
    /// For collective writes: detect fully-covered windows and skip the
    /// read-modify-write (ROMIO's list-merge optimization; the listless
    /// engine uses the mergeview instead).
    pub detect_dense_writes: bool,
    /// Pack-kernel family for the compiled run-program interpreter:
    /// `Some(mode)` forces the process-global kernel mode at open time
    /// (`auto` picks the best family the CPU supports per frame; `scalar`
    /// disables the fixed-block kernels; `fixed`/`sse2`/`avx2` force one
    /// family, degrading to what the CPU supports). `None` (the default)
    /// leaves the process-global setting (and the `LIO_PACK_KERNEL`
    /// environment variable) in charge. See
    /// [`Hints::effective_pack_kernel`].
    pub pack_kernel: Option<PackKernel>,
    /// Observability: `Some(on)` forces `lio-obs` recording on or off when
    /// a file is opened with these hints; `None` leaves the process-global
    /// setting (and the `LIO_OBS` environment variable) in charge.
    pub obs: Option<bool>,
    /// Event tracing: `Some(on)` forces the `lio-trace` recorder on or off
    /// when a file is opened with these hints; `None` leaves the
    /// process-global setting (and the `LIO_TRACE` environment variable)
    /// in charge.
    pub trace: Option<bool>,
    /// Access-pattern profiling: `Some(on)` forces the `lio-profile`
    /// recorder on or off when a file is opened with these hints; `None`
    /// leaves the process-global setting (and the `LIO_PROFILE`
    /// environment variable) in charge.
    pub profile: Option<bool>,
    /// Runtime health layer (`lio_obs::health`): `Some(on)` forces
    /// progress heartbeats + the hang watchdog on or off when a file is
    /// opened with these hints; `None` leaves the process-global
    /// setting (and the `LIO_HEALTH` environment variable) in charge.
    pub health: Option<bool>,
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
            sieving: SievingMode::Sieve,
            detect_dense_writes: true,
            pack_kernel: None,
            obs: None,
            trace: None,
            profile: None,
            health: None,
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

    /// Override the independent access strategy (builder style).
    pub fn sieving_mode(mut self, mode: SievingMode) -> Hints {
        self.sieving = mode;
        self
    }

    /// Force `lio-obs` metrics recording on or off at open time
    /// (builder style). The default (`None`) defers to
    /// `lio_obs::set_enabled` / the `LIO_OBS` environment variable.
    pub fn observability(mut self, on: bool) -> Hints {
        self.obs = Some(on);
        self
    }

    /// Force `lio-trace` event recording on or off at open time
    /// (builder style). The default (`None`) defers to
    /// `lio_obs::trace::set_enabled` / the `LIO_TRACE` environment
    /// variable.
    pub fn tracing(mut self, on: bool) -> Hints {
        self.trace = Some(on);
        self
    }

    /// Force `lio-profile` access-pattern recording on or off at open
    /// time (builder style). The default (`None`) defers to
    /// `lio_obs::profile::set_enabled` / the `LIO_PROFILE` environment
    /// variable.
    pub fn profiling(mut self, on: bool) -> Hints {
        self.profile = Some(on);
        self
    }

    /// Force the runtime health layer (heartbeats + hang watchdog) on
    /// or off at open time (builder style). The default (`None`) defers
    /// to `lio_obs::health::set_enabled` / the `LIO_HEALTH` environment
    /// variable.
    pub fn health(mut self, on: bool) -> Hints {
        self.health = Some(on);
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

    /// Force the pack-kernel family at open time (builder style). The
    /// default (`None`) defers to the process-global mode and the
    /// `LIO_PACK_KERNEL` environment variable.
    pub fn pack_kernel(mut self, mode: PackKernel) -> Hints {
        self.pack_kernel = Some(mode);
        self
    }

    /// The pack-kernel mode this open should install, honoring the
    /// `LIO_PACK_KERNEL` environment override (`auto`, `scalar`, `fixed`,
    /// `sse2`, `avx2`; anything unparseable or unset defers to the
    /// `pack_kernel` hint). Returns `None` when neither the environment
    /// nor the hint asks for anything — the process-global default
    /// (`auto`) stays in charge.
    pub fn effective_pack_kernel(&self) -> Option<PackKernel> {
        match std::env::var("LIO_PACK_KERNEL") {
            Ok(v) => PackKernel::parse(&v).or(self.pack_kernel),
            Err(_) => self.pack_kernel,
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

    /// A collective read that is routed walks `ind_buffer_size` windows
    /// where the two-phase read walks `cb_buffer_size` ones: by default
    /// the route must not move the window grid.
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
    /// `cb_nodes`, `romio_ds_write` / `romio_ds_read` (both map to the
    /// single sieving knob: `enable`/`disable`/`automatic` →
    /// sieve/direct/auto), `detect_dense_writes` (`true`/`false`),
    /// `pack_kernel` (`auto`/`scalar`/`fixed`/`sse2`/`avx2` — pack-kernel
    /// family for compiled run programs),
    /// `backend` (`mem`/`throttled`/`os` — storage substrate for
    /// backend-aware opens), and the `enable`/`disable` switches forced
    /// at open: `lio_obs` (metrics recording), `lio_trace` (event
    /// tracing), `lio_profile` (access-pattern profiling), `lio_health`
    /// (the runtime health layer).
    ///
    /// ```
    /// use lio_core::{Engine, Hints, SievingMode};
    /// let h = Hints::default()
    ///     .apply_info([("cb_buffer_size", "1048576"), ("romio_ds_write", "automatic")])
    ///     .unwrap();
    /// assert_eq!(h.cb_buffer_size, 1048576);
    /// assert_eq!(h.sieving, SievingMode::Auto);
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
                "romio_ds_write" | "romio_ds_read" => {
                    self.sieving = match v {
                        "enable" => SievingMode::Sieve,
                        "disable" => SievingMode::Direct,
                        "automatic" => SievingMode::Auto,
                        _ => {
                            return Err(HintError::new(
                                k,
                                v,
                                "expected enable, disable, or automatic",
                            ))
                        }
                    }
                }
                "detect_dense_writes" => {
                    self.detect_dense_writes = match v {
                        "true" => true,
                        "false" => false,
                        _ => return Err(HintError::new(k, v, "expected true or false")),
                    }
                }
                "pack_kernel" => {
                    self.pack_kernel = Some(PackKernel::parse(v).ok_or_else(|| {
                        HintError::new(k, v, "expected auto, scalar, fixed, sse2, or avx2")
                    })?);
                }
                "backend" => {
                    self.backend = BackendKind::parse(v)
                        .ok_or_else(|| HintError::new(k, v, "expected mem, throttled, or os"))?;
                }
                "lio_obs" => self.obs = switch(k, v)?,
                "lio_trace" => self.trace = switch(k, v)?,
                "lio_profile" => self.profile = switch(k, v)?,
                "lio_health" => self.health = switch(k, v)?,
                _ => {} // unknown keys are ignored, like MPI_Info
            }
        }
        Ok(self)
    }

    /// Serialize these hints back to `MPI_Info` pairs. Every recognized
    /// key that [`Hints::apply_info`] parses is emitted (the read/write
    /// sieving aliases collapse to `romio_ds_write`; `lio_obs` only
    /// appears when the hint forces observability one way), so
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
            (
                "romio_ds_write".to_string(),
                match self.sieving {
                    SievingMode::Sieve => "enable".to_string(),
                    SievingMode::Direct => "disable".to_string(),
                    SievingMode::Auto => "automatic".to_string(),
                },
            ),
            (
                "detect_dense_writes".to_string(),
                self.detect_dense_writes.to_string(),
            ),
            ("backend".to_string(), self.backend.name().to_string()),
        ];
        if let Some(mode) = self.pack_kernel {
            pairs.push(("pack_kernel".to_string(), mode.name().to_string()));
        }
        for (key, forced) in [
            ("lio_obs", self.obs),
            ("lio_trace", self.trace),
            ("lio_profile", self.profile),
            ("lio_health", self.health),
        ] {
            if let Some(on) = forced {
                let v = if on { "enable" } else { "disable" };
                pairs.push((key.to_string(), v.to_string()));
            }
        }
        pairs
    }
}

/// The value of an `enable`/`disable` info switch forced at open.
fn switch(k: &str, v: &str) -> std::result::Result<Option<bool>, HintError> {
    match v {
        "enable" | "true" | "1" => Ok(Some(true)),
        "disable" | "false" | "0" => Ok(Some(false)),
        _ => Err(HintError::new(k, v, "expected enable or disable")),
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
                ("romio_ds_write", "disable"),
                ("detect_dense_writes", "false"),
                ("totally_unknown_key", "whatever"),
            ])
            .unwrap();
        assert_eq!(h.engine, Engine::Listless);
        assert_eq!(h.cb_buffer_size, 65536);
        assert_eq!(h.cb_nodes, 2);
        assert_eq!(h.ind_buffer_size, DEFAULT_WINDOW); // max of default and given
        assert_eq!(h.sieving, SievingMode::Direct);
        assert!(!h.detect_dense_writes);
    }

    #[test]
    fn info_errors_on_malformed_values() {
        assert!(Hints::default().apply_info([("engine", "magic")]).is_err());
        assert!(Hints::default()
            .apply_info([("cb_buffer_size", "lots")])
            .is_err());
        assert!(Hints::default()
            .apply_info([("detect_dense_writes", "maybe")])
            .is_err());
    }

    #[test]
    fn pack_kernel_info_key() {
        assert_eq!(Hints::default().pack_kernel, None);
        let h = Hints::default()
            .apply_info([("pack_kernel", "scalar")])
            .unwrap();
        assert_eq!(h.pack_kernel, Some(PackKernel::Scalar));
        let h = Hints::default()
            .apply_info([("pack_kernel", "avx2")])
            .unwrap();
        assert_eq!(h.pack_kernel, Some(PackKernel::Avx2));
        assert!(Hints::default()
            .apply_info([("pack_kernel", "warp9")])
            .is_err());
        // absent by default, emitted (and round-tripped) only when set
        assert!(Hints::default()
            .to_info()
            .iter()
            .all(|(k, _)| k != "pack_kernel"));
        let pairs = Hints::default().pack_kernel(PackKernel::Fixed).to_info();
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.pack_kernel, Some(PackKernel::Fixed));
    }

    #[test]
    fn pack_kernel_env_defers_to_hint() {
        if std::env::var("LIO_PACK_KERNEL").is_ok() {
            return; // the env override legitimately wins
        }
        assert_eq!(Hints::default().effective_pack_kernel(), None);
        assert_eq!(
            Hints::default()
                .pack_kernel(PackKernel::Sse2)
                .effective_pack_kernel(),
            Some(PackKernel::Sse2)
        );
    }

    #[test]
    fn trace_info_key() {
        let h = Hints::default()
            .apply_info([("lio_trace", "enable")])
            .unwrap();
        assert_eq!(h.trace, Some(true));
        let h = Hints::default().apply_info([("lio_trace", "0")]).unwrap();
        assert_eq!(h.trace, Some(false));
        assert!(Hints::default()
            .apply_info([("lio_trace", "maybe")])
            .is_err());
        // absent by default, emitted (and round-tripped) only when forced
        assert!(Hints::default()
            .to_info()
            .iter()
            .all(|(k, _)| k != "lio_trace"));
        let pairs = Hints::default().tracing(true).to_info();
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.trace, Some(true));
    }

    #[test]
    fn profile_info_key() {
        let h = Hints::default()
            .apply_info([("lio_profile", "enable")])
            .unwrap();
        assert_eq!(h.profile, Some(true));
        let h = Hints::default().apply_info([("lio_profile", "0")]).unwrap();
        assert_eq!(h.profile, Some(false));
        assert!(Hints::default()
            .apply_info([("lio_profile", "maybe")])
            .is_err());
        // absent by default, emitted (and round-tripped) only when forced
        assert!(Hints::default()
            .to_info()
            .iter()
            .all(|(k, _)| k != "lio_profile"));
        let pairs = Hints::default().profiling(true).to_info();
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.profile, Some(true));
    }

    #[test]
    fn health_info_key() {
        let h = Hints::default()
            .apply_info([("lio_health", "enable")])
            .unwrap();
        assert_eq!(h.health, Some(true));
        let h = Hints::default().apply_info([("lio_health", "0")]).unwrap();
        assert_eq!(h.health, Some(false));
        assert!(Hints::default()
            .apply_info([("lio_health", "maybe")])
            .is_err());
        // absent by default, emitted (and round-tripped) only when forced
        assert!(Hints::default()
            .to_info()
            .iter()
            .all(|(k, _)| k != "lio_health"));
        let pairs = Hints::default().health(true).to_info();
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.health, Some(true));
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
