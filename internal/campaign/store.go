package campaign

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"spequlos/internal/metrics"
)

// Entry is one stored simulation outcome, identified by its job key.
type Entry struct {
	Key     string                `json:"key"`
	Profile string                `json:"profile"`
	Variant string                `json:"variant,omitempty"`
	Result  Result                `json:"result"`
	Series  []metrics.SeriesPoint `json:"series,omitempty"`
	// Err is the first failure of the job's Backend, or the executor's
	// refusal of the job (Job.Refused); the run stopped there. Never set by
	// an in-process job.
	Err string `json:"err,omitempty"`
}

// ResultStore is the keyed, concurrency-safe store a campaign fills and the
// derivation layer reads. It serializes to JSON so campaigns can be
// persisted and resumed.
type ResultStore struct {
	mu      sync.RWMutex
	entries map[string]Entry
}

// NewResultStore returns an empty store.
func NewResultStore() *ResultStore {
	return &ResultStore{entries: map[string]Entry{}}
}

// Get returns the entry stored under key.
func (s *ResultStore) Get(key string) (Entry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.entries[key]
	return e, ok
}

// Put stores an entry under its key, replacing any previous one.
func (s *ResultStore) Put(e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries[e.Key] = e
}

// Len returns the number of stored entries.
func (s *ResultStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Entries returns all entries sorted by key, so that two stores holding the
// same results — regardless of execution order or parallelism — serialize
// identically.
func (s *ResultStore) Entries() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Result looks up the stored result for a job.
func (s *ResultStore) Result(j Job) (Result, bool) {
	e, ok := s.Get(j.Key())
	return e.Result, ok
}

// storeFile is the on-disk format.
type storeFile struct {
	Version int     `json:"version"`
	Entries []Entry `json:"entries"`
}

const storeVersion = 1

// Save writes the store as a storeFile in one pass: the header
// {"version":1,"entries":[, then one entry per line, each as json.Marshal
// encodes it, sorted by key, then ]}. Load reads any layout of the format,
// the indented one older versions wrote included.
func (s *ResultStore) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"version":%d,"entries":[`, storeVersion)
	for i, e := range s.Entries() {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
		bw.Write(line)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// Load merges a storeFile's entries into the store, replacing the entries
// stored under the same keys. It refuses data after the store, an entry
// without a key and a key stored twice, and a refused load merges nothing.
func (s *ResultStore) Load(r io.Reader) error {
	var f storeFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("campaign: decoding store: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("campaign: data after the store")
	}
	if f.Version != storeVersion {
		return fmt.Errorf("campaign: unsupported store version %d", f.Version)
	}
	entries := make(map[string]Entry, len(f.Entries))
	for _, e := range f.Entries {
		if _, dup := entries[e.Key]; dup || e.Key == "" {
			return fmt.Errorf("campaign: store entry %q is keyless or stored twice", e.Key)
		}
		entries[e.Key] = e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	maps.Copy(s.entries, entries)
	return nil
}

// SaveFile writes the store to path atomically: the JSON is written to a
// temporary file in the same directory, synced, and renamed over path. An
// interrupted save (Ctrl-C mid-write is the documented resume path, see
// EXPERIMENTS.md) therefore never leaves a truncated store behind — readers
// observe either the previous complete store or the new one.
func (s *ResultStore) SaveFile(path string) error {
	return WriteFileAtomic(path, s.Save)
}

// WriteFileAtomic writes via a same-directory temp file and rename, so the
// destination always holds a complete write. A failure before the rename
// leaves the destination untouched and removes the temp file. spequlosd
// shares it for its state image.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	// Match the permissions os.Create would have used (CreateTemp is 0600).
	if err := f.Chmod(0o644); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Without a sync of the directory a power cut can undo the rename.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// LoadFileIfExists reads a store previously written by SaveFile, returning
// a fresh empty store (loaded=false) when the file does not exist. Other
// errors — permissions, corruption — are reported rather than silently
// discarding hours of stored simulations.
func LoadFileIfExists(path string) (s *ResultStore, loaded bool, err error) {
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		return NewResultStore(), false, nil
	}
	s, err = LoadFile(path)
	if err != nil {
		return nil, false, err
	}
	return s, true, nil
}

// LoadFile reads a store previously written by SaveFile.
func LoadFile(path string) (*ResultStore, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := NewResultStore()
	if err := s.Load(f); err != nil {
		return nil, err
	}
	return s, nil
}
