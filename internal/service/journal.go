package service

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"bbwfsim/internal/core"
)

// Journal is the cache's crash-safe persistence: an append-only file of
// length-prefixed, checksummed (hash, result-bytes) records. The format
// per record is
//
//	uint32  payload length (big endian)
//	32 B    raw SHA-256 request hash
//	uint32  CRC32 (IEEE) of the payload
//	[]byte  payload (canonical result document)
//
// The first record is a header: an all-zero hash and a payload naming the
// core.ModelVersion and core.ResultDocSchema the entries were computed
// under. A journal whose header names another model (or that has no
// header) is discarded whole on open and rewritten empty, so a daemon
// restarted on a binary whose model output differs never serves the old
// binary's bytes as hits.
//
// Open replays the file sequentially and stops at the first record that
// fails its length or checksum — a torn final append after a crash — then
// truncates the file there, so a restarted daemon serves every durably
// written result and silently drops the torn tail instead of refusing to
// start or serving corrupt bytes. A torn header is a torn record like any
// other: the file is truncated to nothing and gets a fresh header.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	restored  map[string][]byte
	discarded bool
}

const journalHashLen = 32

// OpenJournal opens (creating if absent) the journal at path, validates
// its header and every record, and truncates past the first corruption.
func OpenJournal(path string) (*Journal, error) {
	return openJournal(path, core.ModelVersion)
}

// openJournal is OpenJournal for an explicit model version; tests use it
// to write journals as an older binary would have.
func openJournal(path string, model int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	header := journalHeader(model)
	restored, good, discarded, err := replayJournal(f, header)
	if err != nil {
		return nil, closeOnErr(f, err)
	}
	if err := f.Truncate(good); err != nil {
		return nil, closeOnErr(f, fmt.Errorf("service: truncating journal past corruption: %w", err))
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return nil, closeOnErr(f, err)
	}
	if good == 0 {
		if _, err := f.Write(appendRecord(nil, make([]byte, journalHashLen), header)); err != nil {
			return nil, closeOnErr(f, fmt.Errorf("service: writing journal header: %w", err))
		}
	}
	return &Journal{f: f, restored: restored, discarded: discarded}, nil
}

// journalHeader is the header record's payload for a model version.
func journalHeader(model int) []byte {
	return []byte(fmt.Sprintf("bbwfsim cache journal: model %d, result schema %d", model, core.ResultDocSchema))
}

// closeOnErr closes f on an open-path failure; the close error is joined
// rather than dropped so emitter error checking stays honest.
func closeOnErr(f *os.File, err error) error {
	if cerr := f.Close(); cerr != nil {
		return fmt.Errorf("%w (and closing journal: %v)", err, cerr)
	}
	return err
}

// replayJournal checks the header against want, then reads records until
// EOF or the first invalid one. It returns the valid entries plus the byte
// offset of the last good record boundary (0 when the header is torn,
// absent or foreign), and reports whether a whole header naming another
// model was discarded. I/O errors (as opposed to torn records) are
// returned as errors.
func replayJournal(f *os.File, want []byte) (map[string][]byte, int64, bool, error) {
	restored := make(map[string][]byte)
	head := make([]byte, 4+journalHashLen+4)
	hash, payload, err := readRecord(f, head)
	if errors.Is(err, errTornRecord) {
		return restored, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	if !bytes.Equal(hash, make([]byte, journalHashLen)) || !bytes.Equal(payload, want) {
		return restored, 0, true, nil
	}
	good := int64(len(head) + len(payload))
	for {
		hash, payload, err := readRecord(f, head)
		if errors.Is(err, errTornRecord) {
			return restored, good, false, nil
		}
		if err != nil {
			return nil, 0, false, err
		}
		restored[hex.EncodeToString(hash)] = payload
		good += int64(len(head) + len(payload))
	}
}

// errTornRecord ends a replay: clean EOF, or a record cut short or failing
// its length or checksum.
var errTornRecord = errors.New("service: torn journal record")

// readRecord reads one record into head (reused across calls) and a fresh
// payload.
func readRecord(f *os.File, head []byte) (hash, payload []byte, err error) {
	if _, err := io.ReadFull(f, head); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, nil, errTornRecord // clean end, or a torn length/hash/CRC prefix
		}
		return nil, nil, err
	}
	n := binary.BigEndian.Uint32(head[:4])
	if n > MaxJournalPayload {
		return nil, nil, errTornRecord // corrupt length field
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, nil, errTornRecord // torn payload
		}
		return nil, nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(head[4+journalHashLen:]) {
		return nil, nil, errTornRecord // corrupt payload
	}
	return head[4 : 4+journalHashLen], payload, nil
}

// appendRecord appends the framed record for (hash, payload) to rec.
func appendRecord(rec, hash, payload []byte) []byte {
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, hash...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

// MaxJournalPayload bounds a single journal record; a length field above
// it marks the record (and everything after) corrupt.
const MaxJournalPayload = 64 << 20

// Restored returns the entries replayed at open time (hex hash →
// payload). The map is owned by the journal; callers read it once at
// startup.
func (j *Journal) Restored() map[string][]byte {
	return j.restored
}

// Discarded reports whether open found a journal written under another
// model version (or without a header) and started it afresh.
func (j *Journal) Discarded() bool {
	return j.discarded
}

// Append durably queues one record. Failures are returned but the journal
// stays usable: a failed append leaves the file positioned wherever the
// OS left it, and the next Open truncates any torn tail.
func (j *Journal) Append(hash string, payload []byte) error {
	raw, err := hex.DecodeString(hash)
	if err != nil || len(raw) != journalHashLen {
		return fmt.Errorf("service: journal hash %q is not a hex SHA-256", hash)
	}
	if len(payload) > MaxJournalPayload {
		return fmt.Errorf("service: journal payload %d bytes exceeds cap %d", len(payload), MaxJournalPayload)
	}
	rec := appendRecord(make([]byte, 0, 4+journalHashLen+4+len(payload)), raw, payload)
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err = j.f.Write(rec)
	return err
}

// Sync flushes buffered appends to stable storage — the drain sequence
// calls this before the process exits.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Sync()
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.f.Sync(); err != nil {
		return closeOnErr(j.f, err)
	}
	return j.f.Close()
}
