package service

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"bbwfsim/internal/core"
)

// FuzzJournalReplay opens a journal holding arbitrary bytes, after a valid
// header or with none. OpenJournal must not fail or panic; what it restores
// must be exactly the valid records of the longest well-formed prefix
// behind a matching header, and the file must be cut back to that prefix;
// an Append after it must be served by the next open.
func FuzzJournalReplay(f *testing.F) {
	header := journalHeader(core.ModelVersion)
	var records []byte
	for i := 0; i < 4; i++ {
		raw, _ := hex.DecodeString(testHash(fmt.Sprint(i)))
		records = appendRecord(records, raw, []byte(fmt.Sprintf("result %d", i)))
	}
	image := append(appendRecord(nil, make([]byte, journalHashLen), header), records...)
	recLen := 4 + journalHashLen + 4 + len("result 0")
	flip := func(b []byte, at int) []byte {
		b = bytes.Clone(b)
		b[at] ^= 0xFF
		return b
	}
	f.Add(records, true)
	f.Add(image, false)
	f.Add([]byte{}, true)
	f.Add([]byte{}, false)
	f.Add(image[:headerLen()-3], false)                            // TestJournalTornHeader: short
	f.Add(flip(image, headerLen()-1), false)                       // TestJournalTornHeader: flipped
	f.Add(flip(records, 2*recLen+4+journalHashLen+4), true)        // TestJournalTruncatesPastCorruption
	f.Add(records[:len(records)-3], true)                          // torn tail
	f.Add(append(bytes.Clone(records), records[:recLen]...), true) // a duplicate hash
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 2}, true)           // length past the cap
	f.Add(appendRecord(nil, make([]byte, journalHashLen), journalHeader(core.ModelVersion-1)), false)

	f.Fuzz(func(t *testing.T, body []byte, withHeader bool) {
		data := body
		if withHeader {
			data = append(appendRecord(nil, make([]byte, journalHashLen), header), body...)
		}
		want, good := validPrefix(data, header)
		path := filepath.Join(t.TempDir(), "cache.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("OpenJournal: %v", err)
		}
		if !maps.EqualFunc(j.Restored(), want, bytes.Equal) {
			t.Fatalf("restored %d entries, the valid prefix holds %d", len(j.Restored()), len(want))
		}
		if good == 0 {
			good = headerLen() // started afresh with a new header
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(good) {
			t.Fatalf("journal is %d bytes after open, want the %d-byte valid prefix (err %v)", fi.Size(), good, err)
		}
		hash := testHash("appended")
		if err := j.Append(hash, []byte("appended")); err != nil {
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
		want[hash] = []byte("appended")
		if !maps.EqualFunc(j2.Restored(), want, bytes.Equal) {
			t.Fatalf("reopened after an append: restored %d entries, want %d", len(j2.Restored()), len(want))
		}
	})
}

// validPrefix parses a journal image independently of the replay code: it
// returns the entries of the records that follow a header naming header,
// up to the first record that is cut short, names a payload over the cap or
// fails its checksum, and the length of that prefix (0 without a matching
// header).
func validPrefix(data, header []byte) (map[string][]byte, int) {
	entries := map[string][]byte{}
	off := 0
	for first := true; ; first = false {
		const head = 4 + journalHashLen + 4
		if len(data)-off < head {
			break
		}
		n := binary.BigEndian.Uint32(data[off:])
		if n > MaxJournalPayload || uint64(len(data)-off-head) < uint64(n) {
			break
		}
		hash := data[off+4 : off+4+journalHashLen]
		payload := data[off+head : off+head+int(n)]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[off+4+journalHashLen:]) {
			break
		}
		if first {
			if !bytes.Equal(hash, make([]byte, journalHashLen)) || !bytes.Equal(payload, header) {
				return map[string][]byte{}, 0
			}
		} else {
			entries[hex.EncodeToString(hash)] = payload
		}
		off += head + int(n)
	}
	return entries, off
}
