package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bbwfsim/internal/core"
)

func testHash(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(testHash(fmt.Sprint(i)), []byte(fmt.Sprintf("result %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j2.Close(); err != nil {
			t.Error(err)
		}
	}()
	restored := j2.Restored()
	if len(restored) != 5 {
		t.Fatalf("restored %d entries, want 5", len(restored))
	}
	if got := restored[testHash("3")]; !bytes.Equal(got, []byte("result 3")) {
		t.Errorf("entry 3 = %q", got)
	}
}

func TestJournalTruncatesPastCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := j.Append(testHash(fmt.Sprint(i)), []byte(fmt.Sprintf("result %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte inside the third record: records 0 and 1 stay
	// valid, record 2 fails its CRC, record 3 (though intact on disk) is
	// unreachable past the corruption and must be dropped too.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recLen := 4 + journalHashLen + 4 + len("result 0")
	corruptAt := headerLen() + 2*recLen + 4 + journalHashLen + 4 // first payload byte of record 2
	data[corruptAt] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := j2.Restored()
	if len(restored) != 2 {
		t.Fatalf("restored %d entries past corruption, want 2", len(restored))
	}
	// The file was truncated at the corruption boundary, and the journal
	// accepts appends from there.
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(headerLen()+2*recLen) {
		t.Fatalf("file size %d after truncation, want %d (err %v)", fi.Size(), headerLen()+2*recLen, err)
	}
	if err := j2.Append(testHash("new"), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j3.Close(); err != nil {
			t.Error(err)
		}
	}()
	if len(j3.Restored()) != 3 {
		t.Fatalf("restored %d entries after post-corruption append, want 3", len(j3.Restored()))
	}
}

func TestJournalTornTailDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testHash("a"), []byte("whole")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(testHash("b"), []byte("torn")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: cut the final record short.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-2], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if len(j2.Restored()) != 1 {
		t.Fatalf("restored %d entries with a torn tail, want 1", len(j2.Restored()))
	}
}

func TestCacheRestoresFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(0, j)
	want := []byte("expensive result")
	if _, _, err := c.GetOrFill(context.Background(), testHash("req"), func() ([]byte, error) {
		return want, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j2.Close(); err != nil {
			t.Error(err)
		}
	}()
	c2 := NewCache(0, j2)
	data, hit, err := c2.GetOrFill(context.Background(), testHash("req"), func() ([]byte, error) {
		t.Fatal("restored entry recomputed")
		return nil, nil
	})
	if err != nil || !hit || !bytes.Equal(data, want) {
		t.Fatalf("restored entry: data=%q hit=%v err=%v", data, hit, err)
	}
}

// headerLen is the framed size of the current model's journal header.
func headerLen() int {
	return 4 + journalHashLen + 4 + len(journalHeader(core.ModelVersion))
}

// TestJournalFromOtherModelDiscarded reopens a journal an older model
// wrote — holding poisoned bytes under the current request hash, the worst
// case — and checks the daemon starts it afresh: the first request is a
// miss whose bytes equal a cold run, the discard is counted, and the
// rewritten file carries the current header.
func TestJournalFromOtherModelDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")
	req := mustParse(t, validRun)
	hash, err := req.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	old, err := openJournal(path, core.ModelVersion-1)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Append(hash, []byte("stale model output")); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !j.Discarded() || len(j.Restored()) != 0 {
		t.Fatalf("other-model journal: discarded=%v restored=%d, want true, 0", j.Discarded(), len(j.Restored()))
	}
	s := NewServer(Config{Workers: 1, Journal: j})
	w := postJSON(t, s, "/v1/run", validRun)
	if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first request after discard: %d X-Cache=%q", w.Code, w.Header().Get("X-Cache"))
	}
	cold, err := Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), cold) {
		t.Error("first request after discard differs from a cold run")
	}
	if got := s.Stats().JournalDiscards; got != 1 {
		t.Errorf("JournalDiscards = %d, want 1", got)
	}
	m := httptest.NewRecorder()
	s.ServeHTTP(m, httptest.NewRequest("GET", "/metrics", nil))
	if want := "bbwfsim_service_journal_discards_total 1"; !strings.Contains(m.Body.String(), want) {
		t.Errorf("metrics output missing %q\n%s", want, m.Body)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if j2.Discarded() || !bytes.Equal(j2.Restored()[hash], cold) || len(j2.Restored()) != 1 {
		t.Fatalf("rewritten journal: discarded=%v restored=%d entries", j2.Discarded(), len(j2.Restored()))
	}
}

// TestJournalWithoutHeaderDiscarded checks a headerless journal — the
// format before model versioning — counts as another model's.
func TestJournalWithoutHeaderDiscarded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.journal")
	raw := appendRecord(nil, sha256Raw("req"), []byte("headerless"))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := j.Close(); err != nil {
			t.Error(err)
		}
	}()
	if !j.Discarded() || len(j.Restored()) != 0 {
		t.Fatalf("headerless journal: discarded=%v restored=%d, want true, 0", j.Discarded(), len(j.Restored()))
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(headerLen()) {
		t.Fatalf("rewritten size %d, want the bare header %d (err %v)", fi.Size(), headerLen(), err)
	}
}

func sha256Raw(s string) []byte {
	sum := sha256.Sum256([]byte(s))
	return sum[:]
}

// TestJournalTornHeader cuts the header short or flips one of its bytes:
// either is a torn record at offset 0, so the journal opens empty, is not
// counted as a discard, and gets a fresh header that later appends follow.
func TestJournalTornHeader(t *testing.T) {
	for name, tear := range map[string]func([]byte) []byte{
		"short":   func(b []byte) []byte { return b[:headerLen()-3] },
		"flipped": func(b []byte) []byte { b[headerLen()-1] ^= 0xFF; return b },
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "cache.journal")
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Append(testHash("a"), []byte("behind a torn header")); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tear(data), 0o644); err != nil {
				t.Fatal(err)
			}
			j2, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if j2.Discarded() || len(j2.Restored()) != 0 {
				t.Fatalf("torn header: discarded=%v restored=%d, want false, 0", j2.Discarded(), len(j2.Restored()))
			}
			if fi, err := os.Stat(path); err != nil || fi.Size() != int64(headerLen()) {
				t.Fatalf("size %d after a torn header, want the bare header %d (err %v)", fi.Size(), headerLen(), err)
			}
			if err := j2.Append(testHash("b"), []byte("after")); err != nil {
				t.Fatal(err)
			}
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			j3, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := j3.Close(); err != nil {
					t.Error(err)
				}
			}()
			if len(j3.Restored()) != 1 || j3.Discarded() {
				t.Fatalf("after re-append: restored=%d discarded=%v, want 1, false", len(j3.Restored()), j3.Discarded())
			}
		})
	}
}
