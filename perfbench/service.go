package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"time"

	"bbwfsim/internal/service"
)

// svcBench drives an in-process bbsimd over loopback from one closed-loop
// client: it sends its next request only after reading the previous reply,
// as bbsimd's callers do, over a single connection. Every request is one
// no earlier request used, so every one misses the cache.
type svcBench struct {
	ts      *httptest.Server
	client  *http.Client
	journal *service.Journal
	jpath   string
	base    int64   // request k of this run is service.SeededRequest(base+k)
	next    int64   // index of the next unused request
	last    []int64 // the last round's requests

	fills, oks, bytes int64
	samples           []coldSample
}

// coldSample is a request whose reply is recomputed with a direct
// service.Execute after the timed rounds. Keeping the reply's hash rather
// than the reply keeps memory flat however many rounds run.
type coldSample struct {
	k     int64
	reply [sha256.Size]byte
}

// reply is what the client saw for one request.
type reply struct {
	status int
	hit    bool
	size   int
	body   []byte // kept for sampled requests
	err    error
}

// setupServiceCold starts the server with a journal on a scratch file and
// warms it with fresh requests.
func setupServiceCold(e *env) (instance, error) {
	f, err := os.CreateTemp(e.dir, "journal-*.bin")
	if err != nil {
		return nil, err
	}
	s := &svcBench{jpath: f.Name(), base: e.seed << 32}
	if err := f.Close(); err != nil {
		return nil, err
	}
	if s.journal, err = service.OpenJournal(s.jpath); err != nil {
		return nil, err
	}
	s.ts = httptest.NewServer(service.NewServer(service.Config{Workers: e.jobs, Journal: s.journal}))
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}

	for i := 0; i < e.size.warm; i++ {
		body, err := s.body(s.next)
		if err != nil {
			return nil, s.closeWith(err)
		}
		s.next++
		r := s.post(body, false)
		if r.err != nil || r.status != http.StatusOK || r.hit {
			return nil, s.closeWith(fmt.Errorf("warm-up request %d: status %d, hit %v: %v", i, r.status, r.hit, r.err))
		}
		s.fills++
	}
	return s, nil
}

// body is the JSON of request k of this run's stream.
func (s *svcBench) body(k int64) ([]byte, error) {
	return json.Marshal(service.SeededRequest(s.base + k))
}

// post sends one request and reads the reply to the end; keep keeps the
// reply's body.
func (s *svcBench) post(body []byte, keep bool) reply {
	resp, err := s.client.Post(s.ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	r := reply{status: resp.StatusCode, hit: resp.Header.Get("X-Cache") == "hit", size: len(data), err: err}
	if keep {
		r.body = data
	}
	return r
}

// sampled picks the seeded one in eight requests that are recomputed.
func sampled(k int64) bool {
	z := uint64(k) + 0x9e3779b97f4a7c15 // splitmix64
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return (z^z>>31)%8 == 0
}

// round sends one round of requests. Its latency is a request's, from
// send until the reply is read.
func (s *svcBench) round(e *env, parent int) (roundResult, error) {
	n := e.size.coldRound
	s.last = make([]int64, n)
	lat := make([]float64, n)
	for i := range s.last {
		k := s.next
		s.next++
		s.last[i] = k
		body, err := s.body(k)
		if err != nil {
			return roundResult{}, err
		}
		id := e.tr.begin("http.request", parent, k)
		t0 := time.Now()
		r := s.post(body, sampled(k))
		lat[i] = time.Since(t0).Seconds()
		e.tr.end(id)

		ok := r.err == nil && r.status == http.StatusOK
		e.ck.expect(ok && !r.hit, "request %d: status %d, hit %v: %v", k, r.status, r.hit, r.err)
		if !ok {
			continue
		}
		s.oks++
		s.bytes += int64(r.size)
		if !r.hit {
			s.fills++
		}
		if r.body != nil {
			s.samples = append(s.samples, coldSample{k: k, reply: sha256.Sum256(r.body)})
		}
	}
	return roundResult{ops: float64(n), lat: lat}, nil
}

// verify recomputes the sampled replies with a direct Execute, and checks
// that reopening the journal restores exactly the cache fills.
func (s *svcBench) verify(e *env) error {
	for _, c := range s.samples {
		req := service.SeededRequest(s.base + c.k)
		want, err := service.Execute(&req)
		e.ck.expect(err == nil && c.reply == sha256.Sum256(want), "request %d: reply differs from a direct Execute (err %v)", c.k, err)
	}
	if err := s.journal.Sync(); err != nil {
		return err
	}
	j, err := service.OpenJournal(s.jpath)
	if err != nil {
		return err
	}
	restored := len(j.Restored())
	if err := j.Close(); err != nil {
		return err
	}
	e.ck.expect(int64(restored) == s.fills, "journal restored %d entries, want the %d cache fills", restored, s.fills)
	return nil
}

// layers replays the last round's requests directly through the server's
// layers on a private cache and journal, timing each layer, and reports
// the HTTP-level numbers of the untraced rounds.
func (s *svcBench) layers(e *env, plain []round, m map[string]float64) error {
	f, err := os.CreateTemp(e.dir, "replay-*.bin")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	if err := f.Close(); err != nil {
		return err
	}
	j, err := service.OpenJournal(f.Name())
	if err != nil {
		return err
	}
	err = s.replay(e, j)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	var lat []float64
	for _, r := range plain {
		lat = append(lat, r.lat...)
	}
	sort.Float64s(lat)
	layerUS := 0.0
	for _, l := range []struct {
		name, span string
		scale      float64
	}{
		{"service.parse_us", "service.parse", 1e6},
		{"service.hash_us", "service.hash", 1e6},
		{"service.cache_get_us", "service.cache_get", 1e6},
		{"service.execute_ms", "service.execute", 1e3},
		{"service.journal_append_us", "service.journal_append", 1e6},
	} {
		d := e.tr.median(l.span)
		m[l.name] = l.scale * d
		layerUS += 1e6 * d
	}
	m["service.http_overhead_us"] = 1e6*quantile(lat, 0.5) - layerUS
	m["service.latency_p99_ms"] = 1e3 * quantile(lat, 0.99)
	if s.oks > 0 {
		m["service.response_kb"] = float64(s.bytes) / float64(s.oks) / 1024
	}
	return nil
}

// replay sends the last round's requests through ParseRequest,
// CanonicalHash, Cache.Get, Execute and Journal.Append, as the server's
// handler does on a miss, with a span around each call.
func (s *svcBench) replay(e *env, j *service.Journal) error {
	cache := service.NewCache(-1, nil)
	tr := e.tr
	for _, k := range s.last {
		body, err := s.body(k)
		if err != nil {
			return err
		}
		root := tr.begin("service.replay", -1, k)
		sp := tr.begin("service.parse", root, k)
		req, err := service.ParseRequest(body)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("service.hash", root, k)
		hash, err := req.CanonicalHash()
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("service.cache_get", root, k)
		_, hit := cache.Get(hash)
		tr.end(sp)
		e.ck.expect(!hit, "replayed request %d hit a cache that was empty", k)
		sp = tr.begin("service.execute", root, k)
		data, err := service.Execute(req)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("service.journal_append", root, k)
		err = j.Append(hash, data)
		tr.end(sp)
		if err != nil {
			return err
		}
		tr.end(root)
	}
	return nil
}

func (s *svcBench) closeWith(err error) error {
	if cerr := s.close(); cerr != nil {
		return fmt.Errorf("%w (and closing: %v)", err, cerr)
	}
	return err
}

// close stops the server, then closes and deletes the journal.
func (s *svcBench) close() error {
	s.client.CloseIdleConnections()
	s.ts.Close()
	err := s.journal.Close()
	if rerr := os.Remove(s.jpath); err == nil {
		err = rerr
	}
	return err
}
