package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	caba "github.com/caba-sim/caba"
	"github.com/caba-sim/caba/internal/snapshot"
)

// Store is the coordinator's durable, content-addressed state: completed
// results keyed by cell content hash, terminal failure and poison
// records, plus the latest mid-run checkpoint blob per cell. Every result
// entry is sealed in the snapshot container — magic, the record version
// (recordVersion), the cell key as the binding hash, and a CRC over the
// JSON payload — so a read always verifies integrity and address binding
// before trusting the bytes. An entry that fails verification (torn
// write, bit rot, a file renamed to the wrong address) is quarantined:
// moved aside with a ".quarantine" suffix and treated as absent, so the
// cell re-runs instead of serving a corrupt result.
//
// Checkpoint blobs are stored as uploaded (they are already sealed,
// CRC-checked containers); PutBlob verifies the container before
// accepting, GetBlob re-verifies before serving and quarantines on
// failure.
type Store struct {
	dir string
	mu  sync.Mutex
	// minFree is the disk-headroom floor for checkpoint blob uploads
	// (0 = no preflight); set by the coordinator from its MinDiskFree.
	minFree int64
	// slowWrite, when non-nil, runs before every durable write (the
	// soak harness injects disk latency here). Nil in production.
	slowWrite func()
	// quarantined counts entries set aside since open (observability).
	quarantined atomic.Uint64
}

// recordVersion is the container version of the store's result, failure
// and poison records. It is the farm's own: the records hold JSON, not
// simulator state, so a snapshot.Version bump invalidates only in-flight
// checkpoint blobs and leaves completed results readable. It starts at 2,
// the snapshot version the records were sealed with before they had
// their own, so existing stores stay readable. Bump it when a record's
// JSON shape changes incompatibly.
const recordVersion uint32 = 2

// resSchema is the minimal shape check applied to a decoded result: a
// completed simulation always has an application label and ran at least
// one cycle. It guards against a valid JSON payload of the wrong type
// landing at a result address.
func resSchema(res *caba.Result) error {
	if res == nil || res.App == "" || res.Design == "" || res.Cycles == 0 {
		return fmt.Errorf("farm: result fails schema check (app=%q design=%q cycles=%d)",
			resApp(res), resDesign(res), resCycles(res))
	}
	return nil
}

func resApp(r *caba.Result) string {
	if r == nil {
		return ""
	}
	return r.App
}

func resDesign(r *caba.Result) string {
	if r == nil {
		return ""
	}
	return r.Design
}

func resCycles(r *caba.Result) uint64 {
	if r == nil {
		return 0
	}
	return r.Cycles
}

// OpenStore opens (creating if needed) a store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	for _, sub := range []string{resultsDir, blobsDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("farm: store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

const (
	resultsDir = "results"
	blobsDir   = "blobs"
)

// KeyString renders a cell key in its canonical %016x wire form.
func KeyString(key uint64) string { return fmt.Sprintf("%016x", key) }

// ParseKey parses the canonical %016x wire form back into a key.
func ParseKey(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("farm: malformed cell key %q", s)
	}
	return v, nil
}

func (s *Store) resultPath(key uint64) string {
	return filepath.Join(s.dir, resultsDir, KeyString(key)+".res")
}

func (s *Store) blobPath(key uint64) string {
	return filepath.Join(s.dir, blobsDir, KeyString(key)+".ckpt")
}

// Quarantined returns the number of entries set aside since open.
func (s *Store) Quarantined() uint64 { return s.quarantined.Load() }

// quarantine moves a corrupt entry aside (never deletes: the bytes are
// evidence) and counts it. A collision on the quarantine name appends a
// numeric suffix so repeated corruption never silently overwrites.
func (s *Store) quarantine(path string) {
	q := path + ".quarantine"
	for i := 1; ; i++ {
		if _, err := os.Stat(q); errors.Is(err, os.ErrNotExist) {
			break
		}
		q = path + ".quarantine." + strconv.Itoa(i)
	}
	if err := os.Rename(path, q); err == nil {
		s.quarantined.Add(1)
	}
}

// PutResult seals and durably stores a verified result at its cell key.
// The write is atomic (temp file + rename), so a crash mid-write can
// never leave a torn entry at the address.
func (s *Store) PutResult(key uint64, res *caba.Result) error {
	if err := resSchema(res); err != nil {
		return err
	}
	payload, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("farm: store result: %w", err)
	}
	if s.slowWrite != nil {
		s.slowWrite()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeFileAtomic(s.resultPath(key), snapshot.SealVersion(recordVersion, key, payload))
}

// GetResult returns the stored result for key, or (nil, nil) when absent.
// The entry is verified on every read — container CRC, address binding,
// JSON decode, schema — and quarantined on any failure (the caller then
// sees it as absent and re-runs the cell).
func (s *Store) GetResult(key uint64) (*caba.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.resultPath(key)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("farm: read result: %w", err)
	}
	payload, err := snapshot.OpenVersion(raw, recordVersion, key)
	if err != nil {
		s.quarantine(path)
		return nil, nil
	}
	var res caba.Result
	if err := json.Unmarshal(payload, &res); err != nil {
		s.quarantine(path)
		return nil, nil
	}
	if err := resSchema(&res); err != nil {
		s.quarantine(path)
		return nil, nil
	}
	return &res, nil
}

// ResultKeys lists every key with a verified-looking entry present (by
// filename; entries are still re-verified on read). Used to rebuild the
// completed set when a coordinator restarts over an existing store.
func (s *Store) ResultKeys() ([]uint64, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, resultsDir))
	if err != nil {
		return nil, fmt.Errorf("farm: list results: %w", err)
	}
	var keys []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".res") {
			continue
		}
		key, err := ParseKey(strings.TrimSuffix(name, ".res"))
		if err != nil {
			continue
		}
		keys = append(keys, key)
	}
	return keys, nil
}

// failRecord is the durable form of a terminal failure.
type failRecord struct {
	Error string `json:"error"`
	Wedge bool   `json:"wedge"`
	// Attempts is how many executions were charged before failing.
	Attempts int `json:"attempts"`
}

func (s *Store) failPath(key uint64) string {
	return filepath.Join(s.dir, resultsDir, KeyString(key)+".fail")
}

// PutFailure durably records a terminal failure at the cell's address, so
// a coordinator restart (or a later sweep over the same store) serves the
// known outcome instead of re-simulating. Deterministic wedges in
// particular replay identically on every attempt — re-running one is
// pure waste.
func (s *Store) PutFailure(key uint64, errMsg string, wedge bool, attempts int) error {
	payload, err := json.Marshal(failRecord{Error: errMsg, Wedge: wedge, Attempts: attempts})
	if err != nil {
		return fmt.Errorf("farm: store failure: %w", err)
	}
	if s.slowWrite != nil {
		s.slowWrite()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeFileAtomic(s.failPath(key), snapshot.SealVersion(recordVersion, key, payload))
}

// GetFailure returns the recorded terminal failure for key, or ok=false
// when absent. Corrupt entries are quarantined and read as absent (the
// cell then re-runs).
func (s *Store) GetFailure(key uint64) (errMsg string, wedge bool, attempts int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.failPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", false, 0, false
	}
	payload, err := snapshot.OpenVersion(raw, recordVersion, key)
	if err != nil {
		s.quarantine(path)
		return "", false, 0, false
	}
	var rec failRecord
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Error == "" {
		s.quarantine(path)
		return "", false, 0, false
	}
	return rec.Error, rec.Wedge, rec.Attempts, true
}

// poisonRecord is the durable, sealed form of a poison-cell quarantine:
// the circuit breaker's diagnosis plus the distinct workers the cell is
// presumed to have killed.
type poisonRecord struct {
	Error   string   `json:"error"`
	Victims []string `json:"victims"`
	// Attempts is how many executions were charged before quarantine.
	Attempts int `json:"attempts"`
}

func (s *Store) poisonPath(key uint64) string {
	return filepath.Join(s.dir, resultsDir, KeyString(key)+".poison")
}

// PutPoison durably seals a poison-cell quarantine at the cell's
// address. Like a wedge record it is terminal — a coordinator restart or
// a later sweep over the same store serves the quarantine instead of
// leasing the cell out to kill more workers.
func (s *Store) PutPoison(key uint64, errMsg string, victims []string, attempts int) error {
	payload, err := json.Marshal(poisonRecord{Error: errMsg, Victims: victims, Attempts: attempts})
	if err != nil {
		return fmt.Errorf("farm: store poison record: %w", err)
	}
	if s.slowWrite != nil {
		s.slowWrite()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeFileAtomic(s.poisonPath(key), snapshot.SealVersion(recordVersion, key, payload))
}

// GetPoison returns the recorded quarantine for key, or ok=false when
// absent. Corrupt records are quarantined-aside and read as absent (the
// breaker then has to trip again, which is safe — just slower).
func (s *Store) GetPoison(key uint64) (errMsg string, victims []string, attempts int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.poisonPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", nil, 0, false
	}
	payload, err := snapshot.OpenVersion(raw, recordVersion, key)
	if err != nil {
		s.quarantine(path)
		return "", nil, 0, false
	}
	var rec poisonRecord
	if err := json.Unmarshal(payload, &rec); err != nil || rec.Error == "" {
		s.quarantine(path)
		return "", nil, 0, false
	}
	return rec.Error, rec.Victims, rec.Attempts, true
}

// errInsufficientStorage marks a write refused by the disk-space
// preflight; the HTTP layer maps it to 507 Insufficient Storage.
var errInsufficientStorage = errors.New("farm: store disk headroom below floor")

// PutBlob stores a cell's latest mid-run checkpoint blob, replacing any
// previous one. The blob must be a valid sealed snapshot container
// (magic, version, CRC) — corrupt uploads are rejected here so a torn
// network transfer can never poison the resume path. When the store has
// a disk-headroom floor, a preflight rejects the upload (keeping the
// previous good blob) rather than filling the disk: losing checkpoint
// granularity is recoverable, a full store volume is not.
func (s *Store) PutBlob(key uint64, blob []byte) error {
	if _, _, err := snapshot.Inspect(blob); err != nil {
		return fmt.Errorf("farm: checkpoint blob rejected: %w", err)
	}
	if s.minFree > 0 {
		if free := diskFree(s.dir); free >= 0 && free < s.minFree+2*int64(len(blob)) {
			return fmt.Errorf("%w: %d bytes free, need %d headroom",
				errInsufficientStorage, free, s.minFree+2*int64(len(blob)))
		}
	}
	if s.slowWrite != nil {
		s.slowWrite()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeFileAtomic(s.blobPath(key), blob)
}

// GetBlob returns the cell's stored checkpoint blob, or (nil, nil) when
// absent. The container is re-verified on read and quarantined on
// corruption (the cell then resumes from cycle zero instead of failing).
func (s *Store) GetBlob(key uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := s.blobPath(key)
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("farm: read blob: %w", err)
	}
	if _, _, err := snapshot.Inspect(raw); err != nil {
		s.quarantine(path)
		return nil, nil
	}
	return raw, nil
}

// HasBlob reports whether a checkpoint blob is stored for key.
func (s *Store) HasBlob(key uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := os.Stat(s.blobPath(key))
	return err == nil
}

// DeleteBlob drops the cell's checkpoint blob (after the cell completes;
// best effort).
func (s *Store) DeleteBlob(key uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	os.Remove(s.blobPath(key))
}

// writeFileAtomic persists data so a crash mid-write can never leave a
// torn file at path: write a sibling temp file, fsync, rename.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
