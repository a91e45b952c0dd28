//! Resident-service support: the engine's warm state, held across requests.
//!
//! The batch engine ([`crate::Engine`]) builds its world per run — shared
//! parse cache, watchdog, metrics collector all live for one
//! `extract_stream` call. A resident process (`cmr serve`) needs the same
//! pieces to live for the *process*: the first request warms the caches and
//! every later request benefits. [`ServiceHandle`] is that long-lived core:
//!
//! * one pool-wide [`SharedParseCache`] (plus the process-global string
//!   interner, which is warm by construction),
//! * the once-per-process startup lint gate — a handle cannot be built
//!   over broken rule assets,
//! * one [`Watchdog`] monitoring every service worker for the process
//!   lifetime (when a per-request deadline is configured),
//! * one metrics collector accumulating [`EngineMetrics`] since startup,
//!   including the request-latency histograms in
//!   [`EngineMetrics::service`].
//!
//! Each server worker thread builds a [`ServiceWorker`] (the pipeline is
//! `!Sync`; per-thread construction is the same pattern the pool uses) and
//! calls [`ServiceWorker::extract`] once per request. Extraction runs
//! through the exact retry/watchdog/panic-isolation path as batch records
//! (`extract_with_retry`), so a poison request costs one worker one
//! deadline, never the process.

use crate::engine::{
    extract_with_retry, startup_lint, Engine, EngineConfig, EngineError, WorkerCtx,
};
use crate::metrics::{lock_collector, EngineMetrics, MetricsCollector, MetricsSink};
use crate::watchdog::Watchdog;
use cmr_core::{ExtractedRecord, Pipeline, Schema, SharedParseCache};
use cmr_ontology::Ontology;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which service latency histogram a request sample belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatencyKind {
    /// One `POST /extract` request, end to end.
    Extract,
    /// One `POST /extract/batch` request, end to end.
    Batch,
    /// One NDJSON line inside a batch request.
    BatchRecord,
}

/// The long-lived shared core of a resident extraction service.
///
/// Cheap to share (`Arc`); owns the watchdog thread and stops it on drop.
pub struct ServiceHandle {
    cfg: EngineConfig,
    schema: Arc<Schema>,
    ontology: Arc<Ontology>,
    parse_cache: SharedParseCache,
    collector: Arc<Mutex<MetricsCollector>>,
    watchdog: Option<Arc<Watchdog>>,
    watchdog_thread: Mutex<Option<JoinHandle<()>>>,
    watchdog_stopped: AtomicBool,
    lint_warnings: u64,
    started: Instant,
}

impl ServiceHandle {
    /// Builds the shared service state. Fails with [`EngineError::Lint`]
    /// when the compiled-in rule assets carry `Error`-severity findings —
    /// a service must refuse to come up over a broken knowledge base
    /// rather than fail every request.
    pub fn new(
        cfg: EngineConfig,
        schema: impl Into<Arc<Schema>>,
        ontology: impl Into<Arc<Ontology>>,
    ) -> Result<Arc<ServiceHandle>, EngineError> {
        let lint = startup_lint();
        if lint.errors > 0 {
            return Err(EngineError::Lint {
                message: lint.message.clone(),
            });
        }
        let jobs = cfg.resolved_jobs();
        let watchdog = cfg.max_record_millis.map(|ms| Watchdog::new(jobs, ms));
        let watchdog_thread = Mutex::new(watchdog.as_ref().map(Watchdog::spawn));
        Ok(Arc::new(ServiceHandle {
            cfg,
            schema: schema.into(),
            ontology: ontology.into(),
            parse_cache: SharedParseCache::new(),
            collector: Arc::new(Mutex::new(MetricsCollector::default())),
            watchdog,
            watchdog_thread,
            watchdog_stopped: AtomicBool::new(false),
            lint_warnings: lint.warnings,
            started: Instant::now(),
        }))
    }

    /// The configuration the service was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Resolved worker count (watchdog slots are sized to this).
    pub fn jobs(&self) -> usize {
        self.cfg.resolved_jobs()
    }

    /// Warning count from the startup asset lint (errors prevent
    /// construction, so a live handle only ever carries warnings).
    pub fn lint_warnings(&self) -> u64 {
        self.lint_warnings
    }

    /// Time since the handle was built.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Builds the per-thread worker for slot `widx` (`0..jobs()`). Call
    /// from inside the worker's own thread: the pipeline's parse caches
    /// are thread-local by design, backed by the shared cache as the slow
    /// path, so a sentence shape is parsed once per *process*, not once
    /// per worker.
    pub fn worker(self: &Arc<Self>, widx: usize) -> ServiceWorker {
        assert!(widx < self.jobs(), "worker index out of range");
        let mut pipeline = Pipeline::new(
            Arc::clone(&self.schema),
            Arc::clone(&self.ontology),
            self.cfg.method,
        )
        .with_term_patterns(self.cfg.term_patterns)
        .with_salvage(self.cfg.salvage)
        .with_shared_parse_cache(self.parse_cache.clone());
        if let Some(wd) = &self.watchdog {
            pipeline = pipeline.with_cancel_flag(wd.cancel_flag(widx));
        }
        ServiceWorker {
            sink: MetricsSink::new(Arc::clone(&self.collector)),
            service: Arc::clone(self),
            widx,
            pipeline,
        }
    }

    /// Records one request-latency sample into the cumulative metrics.
    pub fn record_latency(&self, kind: LatencyKind, nanos: u64) {
        let mut c = lock_collector(&self.collector);
        let histogram = match kind {
            LatencyKind::Extract => &mut c.service.extract,
            LatencyKind::Batch => &mut c.service.batch,
            LatencyKind::BatchRecord => &mut c.service.batch_record,
        };
        histogram.record(nanos);
    }

    /// Cumulative metrics since the handle was built. `wall_nanos` (and
    /// thus `records_per_sec`) covers the whole uptime, idle included —
    /// it is a service-lifetime rate, not a batch throughput.
    pub fn metrics(&self) -> EngineMetrics {
        // The guard is released before `stats()` takes the cache stripes.
        let mut m = EngineMetrics::from_collector(
            &lock_collector(&self.collector),
            self.jobs(),
            self.started.elapsed().as_nanos() as u64,
        );
        m.lint_warnings = self.lint_warnings;
        m.cache_shard_contention = self.parse_cache.stats().contention;
        m
    }

    /// Stops the watchdog thread (idempotent; also runs on drop). In-flight
    /// requests are not interrupted — their workers simply stop being
    /// monitored, which only matters during final drain.
    pub fn stop(&self) {
        if self.watchdog_stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(wd) = &self.watchdog {
            wd.stop();
        }
        let handle = lock_thread(&self.watchdog_thread).take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One worker's slice of the service: a warm pipeline bound to a watchdog
/// slot. Build with [`ServiceHandle::worker`] inside the worker thread.
pub struct ServiceWorker {
    service: Arc<ServiceHandle>,
    widx: usize,
    pipeline: Pipeline,
    /// Worker-local metrics, published into the service-wide collector
    /// once per request (not once per counter update).
    sink: MetricsSink,
}

impl ServiceWorker {
    /// Extracts one note with the full per-request protection stack:
    /// wall-clock/sentence budget, watchdog cancellation, per-attempt
    /// panic isolation, and bounded retry for transient failures. Metrics
    /// (stage histograms, cache counters, error counts) accumulate
    /// lock-free into the worker's sink and fold into the service-wide
    /// snapshot once per request, so `GET /metrics` stays fresh while the
    /// shared lock is taken once here rather than per counter update.
    pub fn extract(&self, text: &str) -> Result<ExtractedRecord, EngineError> {
        let ctx = WorkerCtx {
            widx: self.widx,
            pipeline: &self.pipeline,
            max_record_millis: self.service.cfg.max_record_millis,
            max_record_sentences: self.service.cfg.max_record_sentences,
            retry: self.service.cfg.retry,
            watchdog: self.service.watchdog.as_deref(),
            quarantine: None,
            collector: &self.sink,
        };
        let result = extract_with_retry(&ctx, 0, text);
        self.sink.publish();
        result
    }

    /// The shared handle this worker feeds metrics into.
    pub fn service(&self) -> &Arc<ServiceHandle> {
        &self.service
    }
}

fn lock_thread(slot: &Mutex<Option<JoinHandle<()>>>) -> MutexGuard<'_, Option<JoinHandle<()>>> {
    slot.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// A service handle is shared across the accept loop and every worker.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<ServiceHandle>();

impl std::fmt::Debug for ServiceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceHandle")
            .field("jobs", &self.jobs())
            .field("uptime", &self.uptime())
            .finish_non_exhaustive()
    }
}

/// Batch compatibility check used by tests: a service worker must produce
/// byte-identical output to the batch engine for the same input.
#[doc(hidden)]
pub fn _batch_reference(text: &str) -> Result<ExtractedRecord, EngineError> {
    let engine = Engine::new(
        EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        },
        Schema::paper(),
        Ontology::full(),
    );
    engine.extract_batch(&[text]).items.remove(0)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use cmr_corpus::APPENDIX_RECORD;

    fn handle(cfg: EngineConfig) -> Arc<ServiceHandle> {
        ServiceHandle::new(cfg, Schema::paper(), Ontology::full()).expect("clean assets")
    }

    #[test]
    fn service_worker_matches_batch_engine_output() {
        let svc = handle(EngineConfig {
            jobs: 1,
            ..EngineConfig::default()
        });
        let worker = svc.worker(0);
        let got = worker.extract(APPENDIX_RECORD).expect("extracts");
        let want = _batch_reference(APPENDIX_RECORD).expect("extracts");
        assert_eq!(
            serde_json::to_string(&got).unwrap(),
            serde_json::to_string(&want).unwrap()
        );
    }

    #[test]
    fn metrics_accumulate_across_requests_and_cache_stays_warm() {
        let svc = handle(EngineConfig {
            jobs: 2,
            ..EngineConfig::default()
        });
        let worker = svc.worker(0);
        worker.extract(APPENDIX_RECORD).expect("extracts");
        let cold = svc.metrics();
        assert_eq!(cold.records, 1);
        assert!(cold.parse_cache.misses > 0, "first request parses fresh");

        // A second worker on the same note: every sentence shape must come
        // from the shared cache — the whole point of a resident process.
        let worker2 = svc.worker(1);
        worker2.extract(APPENDIX_RECORD).expect("extracts");
        let warm = svc.metrics();
        assert_eq!(warm.records, 2);
        assert_eq!(
            warm.parse_cache.misses, cold.parse_cache.misses,
            "second worker re-parsed shapes the shared cache already holds"
        );
        assert!(warm.parse_cache.hits > cold.parse_cache.hits);
    }

    #[test]
    fn latency_samples_land_in_their_histograms() {
        let svc = handle(EngineConfig::default());
        svc.record_latency(LatencyKind::Extract, 1_000_000);
        svc.record_latency(LatencyKind::Batch, 2_000_000);
        svc.record_latency(LatencyKind::BatchRecord, 500);
        svc.record_latency(LatencyKind::BatchRecord, 700);
        let m = svc.metrics();
        assert_eq!(m.service.extract.count, 1);
        assert_eq!(m.service.batch.count, 1);
        assert_eq!(m.service.batch_record.count, 2);
        assert_eq!(m.service.requests(), 2);
    }

    #[test]
    fn sentence_budget_fails_request_not_service() {
        let svc = handle(EngineConfig {
            jobs: 1,
            max_record_sentences: Some(1),
            ..EngineConfig::default()
        });
        let worker = svc.worker(0);
        let err = worker.extract(APPENDIX_RECORD).unwrap_err();
        assert!(matches!(err, EngineError::Budget { .. }), "{err:?}");
        // The worker is still usable afterwards.
        let m = svc.metrics();
        assert_eq!(m.errors.budget, 1);
        assert_eq!(m.records, 0);
    }

    #[test]
    fn watchdog_stops_cleanly_on_drop() {
        let svc = handle(EngineConfig {
            jobs: 1,
            max_record_millis: Some(5_000),
            ..EngineConfig::default()
        });
        let worker = svc.worker(0);
        worker
            .extract(APPENDIX_RECORD)
            .expect("well under deadline");
        svc.stop();
        svc.stop(); // idempotent
        drop(worker);
        drop(svc); // Drop::drop sees the stopped flag and returns
    }
}
