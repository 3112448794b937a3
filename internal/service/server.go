package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bbwfsim/internal/metrics"
	"bbwfsim/internal/runner"
)

// Config shapes a Server.
type Config struct {
	// Workers is the max-in-flight execution gate width (and the campaign
	// fan-out); <= 0 picks runner.Jobs(0) = GOMAXPROCS.
	Workers int
	// Queue is how many admitted requests may wait beyond those executing
	// before the gate sheds (default 64).
	Queue int
	// CacheEntries bounds the result cache FIFO (default 1024; <0 means
	// unbounded).
	CacheEntries int
	// Journal, when non-nil, persists cache fills and seeds the cache
	// with its restored entries.
	Journal *Journal
	// DefaultTimeout applies when a request carries no timeout_s;
	// MaxTimeout clamps client-supplied budgets. Defaults: 30 s / 120 s.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// PanicHook admits workflow kind "panic" (test-only: proves panic
	// isolation against a live process). Off by default; without it the
	// kind is rejected with 400.
	PanicHook bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runner.Jobs(0)
	}
	if c.Queue == 0 {
		c.Queue = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 120 * time.Second
	}
	return c
}

// Server is the bbsimd HTTP layer: admission control in front of the
// single-flight cache in front of Execute, with panic isolation,
// deadlines, and drain. It is deliberately thin — everything that decides
// simulation outcomes lives below in Execute, which bbvet keeps
// deterministic; the server only decides who runs, when, and what gets
// remembered.
type Server struct {
	cfg      Config
	cache    *Cache
	gate     *Gate
	mux      *http.ServeMux
	draining atomic.Bool
	inflight sync.WaitGroup

	requestsRun      atomic.Int64
	requestsCampaign atomic.Int64
	hits             atomic.Int64
	sheds            atomic.Int64
	panics           atomic.Int64
	deadlineKills    atomic.Int64
}

// NewServer builds a server from cfg.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheEntries, cfg.Journal),
		gate:  NewGate(cfg.Workers, cfg.Queue),
		mux:   http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/run", s.wrap(s.handleRun))
	s.mux.HandleFunc("POST /v1/campaign", s.wrap(s.handleCampaign))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errorKind labels structured error responses.
const (
	kindBadRequest = "bad_request"
	kindShed       = "shed"
	kindDeadline   = "deadline"
	kindPanicErr   = "panic"
	kindDraining   = "draining"
	kindInternal   = "internal"
)

// panicError is a recovered worker panic, carried as an error so the
// single-flight cache can release waiters without caching anything.
type panicError struct{ v any }

func (e *panicError) Error() string { return fmt.Sprintf("service: worker panicked: %v", e.v) }

// wrap is the outermost handler shell: drain rejection, in-flight
// tracking for BeginDrain, and last-resort panic containment so no
// handler bug can take the process down.
func (s *Server) wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, kindDraining, "server is draining")
			return
		}
		s.inflight.Add(1)
		defer s.inflight.Done()
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				writeError(w, http.StatusInternalServerError, kindPanicErr, fmt.Sprintf("handler panicked: %v", rec))
			}
		}()
		h(w, r)
	}
}

func writeError(w http.ResponseWriter, status int, kind, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	// The error body is assembled by hand so a marshal failure cannot
	// recurse into error handling.
	if _, err := fmt.Fprintf(w, "{\n  \"kind\": %q,\n  \"error\": %q\n}\n", kind, msg); err != nil {
		return // client went away; nothing left to do
	}
}

// readBody drains the request body under the schema size cap.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxRequestBytes+1))
	if err != nil {
		return nil, &RequestError{Msg: "reading body: " + err.Error()}
	}
	return body, nil
}

// deadlineCtx derives the request's execution context from its timeout
// budget, clamped to the server's maximum.
func (s *Server) deadlineCtx(r *http.Request, timeoutSeconds float64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutSeconds > 0 {
		d = time.Duration(timeoutSeconds * float64(time.Second))
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(r.Context(), d)
}

// expired reports whether ctx's budget is spent. It consults the
// deadline directly as well as Err() because a sub-microsecond timer may
// not have fired yet even though the budget is long gone.
func expired(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return true
	}
	return false
}

// guardedFill wraps Execute with panic recovery: a crashing simulation
// becomes a *panicError, which the cache treats like any other failure —
// released to waiters, never cached.
func (s *Server) guardedFill(req *Request) func() ([]byte, error) {
	return func() (b []byte, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				err = &panicError{rec}
			}
		}()
		return Execute(req)
	}
}

// respondErr maps an evaluation error onto the wire.
func (s *Server) respondErr(w http.ResponseWriter, err error) {
	var reqErr *RequestError
	var pe *panicError
	switch {
	case errors.As(err, &reqErr):
		writeError(w, http.StatusBadRequest, kindBadRequest, reqErr.Error())
	case errors.As(err, &pe):
		writeError(w, http.StatusInternalServerError, kindPanicErr, pe.Error())
	case errors.Is(err, context.DeadlineExceeded):
		s.deadlineKills.Add(1)
		writeError(w, http.StatusGatewayTimeout, kindDeadline, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		// Client went away; status is moot but keep the accounting clean.
		writeError(w, http.StatusRequestTimeout, kindDeadline, "request cancelled")
	default:
		writeError(w, http.StatusInternalServerError, kindInternal, err.Error())
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.respondErr(w, err)
		return
	}
	req, err := ParseRequest(body)
	if err != nil {
		s.respondErr(w, err)
		return
	}
	if req.Workflow.Kind == KindPanic && !s.cfg.PanicHook {
		writeError(w, http.StatusBadRequest, kindBadRequest, "workflow kind \"panic\" requires the server's panic hook")
		return
	}
	s.requestsRun.Add(1)

	if err := s.gate.Enter(); err != nil {
		s.sheds.Add(1)
		writeError(w, http.StatusTooManyRequests, kindShed, "admission queue full")
		return
	}
	defer s.gate.Leave()

	ctx, cancel := s.deadlineCtx(r, req.TimeoutSeconds)
	defer cancel()

	hash, err := req.CanonicalHash()
	if err != nil {
		s.respondErr(w, err)
		return
	}

	// An already-expired budget never serves, not even from cache — the
	// client stopped waiting; spending bytes on it is pure waste.
	if expired(ctx) {
		s.deadlineKills.Add(1)
		writeError(w, http.StatusGatewayTimeout, kindDeadline, "deadline exceeded")
		return
	}
	// Fast path: a completed entry serves without burning a slot.
	if data, ok := s.cache.Get(hash); ok {
		s.hits.Add(1)
		writeResult(w, data, true)
		return
	}
	if err := s.gate.Acquire(ctx); err != nil {
		s.respondErr(w, err)
		return
	}
	data, hit, err := func() ([]byte, bool, error) {
		defer s.gate.Release()
		return s.cache.GetOrFill(ctx, hash, s.guardedFill(req))
	}()
	if err != nil {
		s.respondErr(w, err)
		return
	}
	if hit {
		s.hits.Add(1)
	}
	// The result exists (and is cached) either way; the client only gets
	// it if its deadline hasn't passed — deadline semantics are enforced
	// at point boundaries because the kernel itself is not cancellable.
	if expired(ctx) {
		s.deadlineKills.Add(1)
		writeError(w, http.StatusGatewayTimeout, kindDeadline, "deadline exceeded")
		return
	}
	writeResult(w, data, hit)
}

func writeResult(w http.ResponseWriter, data []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if _, err := w.Write(data); err != nil {
		return // client disconnected mid-write
	}
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		s.respondErr(w, err)
		return
	}
	creq, err := ParseCampaignRequest(body)
	if err != nil {
		s.respondErr(w, err)
		return
	}
	if creq.Base.Workflow.Kind == KindPanic && !s.cfg.PanicHook {
		writeError(w, http.StatusBadRequest, kindBadRequest, "workflow kind \"panic\" requires the server's panic hook")
		return
	}
	s.requestsCampaign.Add(1)

	// One queue token covers the whole sweep; each point claims its own
	// execution slot, so campaigns and single runs share the pool fairly.
	if err := s.gate.Enter(); err != nil {
		s.sheds.Add(1)
		writeError(w, http.StatusTooManyRequests, kindShed, "admission queue full")
		return
	}
	defer s.gate.Leave()

	ctx, cancel := s.deadlineCtx(r, creq.Base.TimeoutSeconds)
	defer cancel()

	var hitCount atomic.Int64
	points, err := runner.Map(ctx, s.cfg.Workers, len(creq.Seeds), func(i int) ([]byte, error) {
		preq := creq.Base
		preq.Seed = creq.Seeds[i]
		hash, err := preq.CanonicalHash()
		if err != nil {
			return nil, err
		}
		if data, ok := s.cache.Get(hash); ok {
			hitCount.Add(1)
			return data, nil
		}
		if err := s.gate.Acquire(ctx); err != nil {
			return nil, err
		}
		defer s.gate.Release()
		data, hit, err := s.cache.GetOrFill(ctx, hash, s.guardedFill(&preq))
		if hit {
			hitCount.Add(1)
		}
		return data, err
	})
	if err != nil {
		s.respondErr(w, err)
		return
	}
	s.hits.Add(hitCount.Load())
	doc, err := EncodeCampaign(creq.Seeds, points)
	if err != nil {
		s.respondErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache-Hits", fmt.Sprintf("%d", hitCount.Load()))
	if _, err := w.Write(doc); err != nil {
		return // client disconnected mid-write
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if _, err := io.WriteString(w, "ok\n"); err != nil {
		return
	}
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		if _, err := io.WriteString(w, "draining\n"); err != nil {
			return
		}
		return
	}
	if _, err := io.WriteString(w, "ready\n"); err != nil {
		return
	}
}

// handleMetrics renders the service counters in the repository's
// Prometheus text format. The live counters are atomics (the Collector is
// single-threaded by design); each scrape pours them into a throwaway
// Collector and renders its snapshot, so the deterministic rendering code
// is shared with the simulation side.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c := metrics.New("bbsimd", "service")
	c.Add(metrics.ServiceRequestsTotal, metrics.Key{Op: "run"}, float64(s.requestsRun.Load()))
	c.Add(metrics.ServiceRequestsTotal, metrics.Key{Op: "campaign"}, float64(s.requestsCampaign.Load()))
	c.Add(metrics.ServiceCacheHitsTotal, metrics.Key{}, float64(s.hits.Load()))
	c.Add(metrics.ServiceShedsTotal, metrics.Key{}, float64(s.sheds.Load()))
	c.Add(metrics.ServicePanicsTotal, metrics.Key{}, float64(s.panics.Load()))
	c.Add(metrics.ServiceDeadlineKillsTotal, metrics.Key{}, float64(s.deadlineKills.Load()))
	c.Add(metrics.ServiceJournalDiscardsTotal, metrics.Key{}, float64(s.journalDiscards()))
	c.GaugeMax(metrics.ServiceQueueDepth, metrics.Key{}, float64(s.gate.QueueDepth()))
	c.GaugeMax(metrics.ServiceInFlight, metrics.Key{}, float64(s.gate.InFlight()))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if err := c.Snapshot().WriteProm(w); err != nil {
		return // client disconnected mid-scrape
	}
}

// Stats is a point-in-time copy of the service counters (tests assert on
// these without scraping /metrics).
type Stats struct {
	RequestsRun, RequestsCampaign       int64
	Hits, Sheds, Panics, DeadlineKills  int64
	QueueDepth, InFlight, CachedEntries int64
	// JournalDiscards is 1 when the configured journal was written under
	// another model version and started afresh at open, else 0.
	JournalDiscards int64
}

// Stats snapshots the live counters.
func (s *Server) Stats() Stats {
	return Stats{
		RequestsRun:      s.requestsRun.Load(),
		RequestsCampaign: s.requestsCampaign.Load(),
		Hits:             s.hits.Load(),
		Sheds:            s.sheds.Load(),
		Panics:           s.panics.Load(),
		DeadlineKills:    s.deadlineKills.Load(),
		QueueDepth:       s.gate.QueueDepth(),
		InFlight:         s.gate.InFlight(),
		CachedEntries:    int64(s.cache.Len()),
		JournalDiscards:  s.journalDiscards(),
	}
}

func (s *Server) journalDiscards() int64 {
	if s.cfg.Journal != nil && s.cfg.Journal.Discarded() {
		return 1
	}
	return 0
}

// BeginDrain stops admitting work (readyz flips to 503, handlers reject
// with 503), waits for every in-flight handler to finish or for ctx to
// fire, then flushes the cache journal. Safe to call once; the HTTP
// listener shutdown is the caller's job (http.Server.Shutdown after this
// returns drains keep-alive connections).
func (s *Server) BeginDrain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("service: drain timed out with requests in flight: %w", ctx.Err())
	}
	if s.cfg.Journal != nil {
		if err := s.cfg.Journal.Sync(); err != nil {
			return fmt.Errorf("service: flushing cache journal on drain: %w", err)
		}
	}
	return nil
}
