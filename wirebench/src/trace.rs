//! In-memory spans recorded from the benchmark's side of each layer
//! boundary.
//!
//! A page span wraps one `SocialApp` page call; a core span wraps one
//! call into CacheGenie's `QueryInterceptor` methods, through
//! [`TimingInterceptor`], which the traced run installs on the ORM
//! session in place of CacheGenie itself. The page a core span belongs
//! to is found through a thread-local: the ORM calls the interceptor
//! on the thread that is rendering the page. Spans stay in a per-thread
//! vector until the thread hands them back.

use cachegenie_repro::genie::CacheGenie;
use cachegenie_repro::orm::{InterceptOutcome, QueryInterceptor};
use cachegenie_repro::server::Page;
use cachegenie_repro::storage::{QueryResult, Select, Value};
use std::cell::RefCell;
use std::time::Instant;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One page call (`social` layer).
    Page(Page),
    /// `try_serve` answered from the cache.
    Hit,
    /// `try_serve` answered through its own database read-through (the
    /// storage read is inside the span).
    Miss,
    /// `try_serve` declined: the query goes to the database.
    Pass,
    /// `fill` (CacheGenie fills inside `try_serve`; kept for
    /// completeness).
    Fill,
}

/// One timed interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id, unique within its thread.
    pub id: u32,
    /// The page request this span belongs to.
    pub request: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// What was timed.
    pub kind: SpanKind,
    /// Start, nanoseconds since the run's base instant.
    pub start_ns: u64,
    /// End, nanoseconds since the run's base instant.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    base: Instant,
    next_id: u32,
    /// (request, span id) of the page being rendered.
    page: Option<(u64, u32)>,
    spans: Vec<Span>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn since(base: Instant, t: Instant) -> u64 {
    (t - base).as_nanos() as u64
}

/// Starts recording on this thread; times are relative to `base`.
pub fn start(base: Instant, capacity: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            base,
            next_id: 0,
            page: None,
            spans: Vec::with_capacity(capacity),
        });
    });
}

/// Stops recording on this thread and returns its spans.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Runs `f` as page `request` of `kind`, recording its span when this
/// thread is recording.
pub fn page<T>(request: u64, kind: Page, f: impl FnOnce() -> T) -> T {
    let id = RECORDER.with(|r| {
        r.borrow_mut().as_mut().map(|rec| {
            let id = rec.next_id;
            rec.next_id += 1;
            rec.page = Some((request, id));
            id
        })
    });
    let t0 = Instant::now();
    let out = f();
    let t1 = Instant::now();
    if let Some(id) = id {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.page = None;
                rec.spans.push(Span {
                    id,
                    request,
                    parent: None,
                    kind: SpanKind::Page(kind),
                    start_ns: since(rec.base, t0),
                    end_ns: since(rec.base, t1),
                });
            }
        });
    }
    out
}

fn child(kind: SpanKind, t0: Instant, t1: Instant) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if let Some((request, parent)) = rec.page {
                let id = rec.next_id;
                rec.next_id += 1;
                rec.spans.push(Span {
                    id,
                    request,
                    parent: Some(parent),
                    kind,
                    start_ns: since(rec.base, t0),
                    end_ns: since(rec.base, t1),
                });
            }
        }
    });
}

/// Times every call into CacheGenie's interceptor methods.
pub struct TimingInterceptor {
    /// The wrapped middleware.
    pub inner: CacheGenie,
}

impl QueryInterceptor for TimingInterceptor {
    fn try_serve(&self, select: &Select, params: &[Value]) -> InterceptOutcome {
        let t0 = Instant::now();
        let out = self.inner.try_serve(select, params);
        let t1 = Instant::now();
        let kind = match &out {
            InterceptOutcome::Served {
                from_cache: true, ..
            } => SpanKind::Hit,
            InterceptOutcome::Served { .. } | InterceptOutcome::Miss { .. } => SpanKind::Miss,
            InterceptOutcome::Pass => SpanKind::Pass,
        };
        child(kind, t0, t1);
        out
    }

    fn fill(&self, fill_key: &str, result: &QueryResult) -> u64 {
        let t0 = Instant::now();
        let ops = self.inner.fill(fill_key, result);
        child(SpanKind::Fill, t0, Instant::now());
        ops
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// (clipped to the interval).
pub fn covered_ns(start: u64, end: u64, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in children.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(0, 100, &mut []), 0);
        assert_eq!(covered_ns(0, 100, &mut [(10, 20), (30, 40)]), 20);
        assert_eq!(covered_ns(0, 100, &mut [(10, 30), (20, 40)]), 30);
        assert_eq!(covered_ns(50, 100, &mut [(40, 60), (90, 120)]), 20);
    }

    #[test]
    fn spans_nest_under_their_page_on_the_recording_thread() {
        let base = Instant::now();
        start(base, 8);
        page(7, Page::Wall, || {
            child(SpanKind::Hit, Instant::now(), Instant::now());
            child(SpanKind::Pass, Instant::now(), Instant::now());
        });
        // Outside any page: not attributed, not recorded.
        child(SpanKind::Miss, Instant::now(), Instant::now());
        let spans = finish();
        assert_eq!(spans.len(), 3);
        let page_span = spans.iter().find(|s| s.parent.is_none()).unwrap();
        assert_eq!(page_span.kind, SpanKind::Page(Page::Wall));
        for s in spans.iter().filter(|s| s.parent.is_some()) {
            assert_eq!(s.parent, Some(page_span.id));
            assert_eq!(s.request, 7);
            assert!(s.start_ns >= page_span.start_ns && s.end_ns <= page_span.end_ns);
        }
        // Not recording: nothing kept.
        page(8, Page::Wall, || ());
        assert!(finish().is_empty());
    }
}
