package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(0, nil)
	var fills atomic.Int64
	release := make(chan struct{})
	const waiters = 16
	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data, _, err := c.GetOrFill(context.Background(), "h1", func() ([]byte, error) {
				fills.Add(1)
				<-release
				return []byte("payload"), nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = data
		}(i)
	}
	close(release)
	wg.Wait()
	if got := fills.Load(); got != 1 {
		t.Errorf("%d fills for %d concurrent identical requests, want 1", got, waiters)
	}
	for i, r := range results {
		if !bytes.Equal(r, []byte("payload")) {
			t.Errorf("waiter %d got %q", i, r)
		}
	}
}

func TestCacheErrorNotCached(t *testing.T) {
	c := NewCache(0, nil)
	boom := errors.New("boom")
	calls := 0
	fill := func() ([]byte, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return []byte("ok"), nil
	}
	if _, _, err := c.GetOrFill(context.Background(), "h", fill); !errors.Is(err, boom) {
		t.Fatalf("first fill: %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed fill left an entry behind")
	}
	data, hit, err := c.GetOrFill(context.Background(), "h", fill)
	if err != nil || hit || !bytes.Equal(data, []byte("ok")) {
		t.Fatalf("retry after failure: data=%q hit=%v err=%v", data, hit, err)
	}
}

func TestCachePanicDoesNotPoison(t *testing.T) {
	c := NewCache(0, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fill panic did not propagate")
			}
		}()
		_, _, _ = c.GetOrFill(context.Background(), "h", func() ([]byte, error) {
			panic("worker crash")
		})
	}()
	if c.Len() != 0 {
		t.Fatal("panicking fill left an entry behind")
	}
	data, _, err := c.GetOrFill(context.Background(), "h", func() ([]byte, error) { return []byte("clean"), nil })
	if err != nil || !bytes.Equal(data, []byte("clean")) {
		t.Fatalf("cache poisoned after panic: %q, %v", data, err)
	}
}

func TestCacheFIFOEviction(t *testing.T) {
	c := NewCache(3, nil)
	for i := 0; i < 5; i++ {
		h := fmt.Sprintf("h%d", i)
		if _, _, err := c.GetOrFill(context.Background(), h, func() ([]byte, error) {
			return []byte(h), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.Len())
	}
	if _, ok := c.Get("h0"); ok {
		t.Error("oldest entry h0 survived eviction")
	}
	if _, ok := c.Get("h4"); !ok {
		t.Error("newest entry h4 was evicted")
	}
}

func TestCacheWaiterCancellation(t *testing.T) {
	c := NewCache(0, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, _ = c.GetOrFill(context.Background(), "h", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("late"), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.GetOrFill(ctx, "h", func() ([]byte, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}
	close(release)
	// The fill still completed and is served to later callers.
	data, _, err := c.GetOrFill(context.Background(), "h", func() ([]byte, error) { return nil, errors.New("should not run") })
	if err != nil || !bytes.Equal(data, []byte("late")) {
		t.Fatalf("post-cancel get: %q, %v", data, err)
	}
}

// TestCacheHitZeroAllocs pins the cache's serving contract: a hit hands
// back the stored bytes without re-encoding or copying, so a warmed key
// allocates nothing.
func TestCacheHitZeroAllocs(t *testing.T) {
	req := SeededRequest(7)
	hash, err := req.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(16, nil)
	ctx := context.Background()
	if _, _, err := c.GetOrFill(ctx, hash, func() ([]byte, error) { return Execute(&req) }); err != nil {
		t.Fatal(err)
	}
	miss := func() ([]byte, error) { return nil, errors.New("cache miss on a warmed key") }
	allocs := testing.AllocsPerRun(100, func() {
		data, hit, err := c.GetOrFill(ctx, hash, miss)
		if err != nil || !hit || len(data) == 0 {
			t.Fatalf("warmed key not served from cache (hit=%v err=%v)", hit, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocated %.1f times per call; want 0", allocs)
	}
}
