package service

import (
	"container/list"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store is the pluggable persistence surface of the result cache: a flat
// keyed byte store. Keys are lowercase hex digests (see CacheKey); values
// are canonical Result wire encodings (repro.EncodeJSON), so any two
// stores holding the same key hold byte-identical values and stores can be
// layered or swapped freely (memory for tests and hot sets, disk for
// restarts — the service/db split of the audit-log reference design).
//
// Implementations must be safe for concurrent use.
type Store interface {
	// Get returns the stored value, or ok=false on a miss. A miss is not
	// an error; err is reserved for real faults (I/O, corruption).
	Get(key string) (val []byte, ok bool, err error)
	// Put stores the value under key, overwriting any previous value.
	Put(key string, val []byte) error
	// Len returns the number of stored entries.
	Len() int
	// Close releases resources. The store is unusable afterwards.
	Close() error
}

// MemoryStore is an in-memory LRU Store: recency is updated on Get and
// Put, and inserting beyond the capacity evicts the least recently used
// entry. The zero value is not usable; use NewMemoryStore.
type MemoryStore struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recent; values are *memEntry
	entries map[string]*list.Element
}

type memEntry struct {
	key string
	val []byte
}

// DefaultMemoryEntries bounds a MemoryStore built with NewMemoryStore(0).
// Results are a few tens of KB each, so 4096 entries stay well under a
// few hundred MB even for large ACGs.
const DefaultMemoryEntries = 4096

// NewMemoryStore returns an empty LRU store holding at most maxEntries
// values (<= 0 means DefaultMemoryEntries).
func NewMemoryStore(maxEntries int) *MemoryStore {
	if maxEntries <= 0 {
		maxEntries = DefaultMemoryEntries
	}
	return &MemoryStore{
		max:     maxEntries,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get implements Store.
func (s *MemoryStore) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return nil, false, nil
	}
	s.order.MoveToFront(el)
	return el.Value.(*memEntry).val, true, nil
}

// Put implements Store.
func (s *MemoryStore) Put(key string, val []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[key]; ok {
		el.Value.(*memEntry).val = val
		s.order.MoveToFront(el)
		return nil
	}
	s.entries[key] = s.order.PushFront(&memEntry{key: key, val: val})
	for s.order.Len() > s.max {
		last := s.order.Back()
		s.order.Remove(last)
		delete(s.entries, last.Value.(*memEntry).key)
	}
	return nil
}

// Len implements Store.
func (s *MemoryStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Close implements Store.
func (s *MemoryStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = nil
	s.order = list.New()
	return nil
}

// DiskStore persists each entry as one file <dir>/<key>.json, written
// atomically (temp file + rename), so a cache survives daemon restarts
// and can be inspected with ordinary tools. Keys are validated as hex
// before touching the filesystem, which confines every access to dir.
type DiskStore struct {
	mu  sync.Mutex
	dir string
}

// NewDiskStore opens (creating if needed) a disk-backed store rooted at
// dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: disk store: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

func (s *DiskStore) path(key string) (string, error) {
	if key == "" || strings.ToLower(key) != key {
		return "", fmt.Errorf("service: disk store key %q not canonical hex", key)
	}
	if _, err := hex.DecodeString(key); err != nil {
		return "", fmt.Errorf("service: disk store key %q not hex: %w", key, err)
	}
	return filepath.Join(s.dir, key+".json"), nil
}

// Get implements Store.
func (s *DiskStore) Get(key string) ([]byte, bool, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, false, err
	}
	val, err := os.ReadFile(p)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return val, true, nil
}

// Put implements Store.
func (s *DiskStore) Put(key string, val []byte) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(val); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), p)
}

// Len implements Store.
func (s *DiskStore) Len() int {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.json"))
	if err != nil {
		return 0
	}
	return len(matches)
}

// Close implements Store.
func (s *DiskStore) Close() error { return nil }

// TieredStore layers a fast front store over a durable back store: reads
// fill the front on back hits, writes go to both. This is the intended
// production shape — memory LRU in front of disk.
type TieredStore struct {
	Front, Back Store
}

// NewTieredStore layers front over back.
func NewTieredStore(front, back Store) *TieredStore {
	return &TieredStore{Front: front, Back: back}
}

// Get implements Store.
func (s *TieredStore) Get(key string) ([]byte, bool, error) {
	if val, ok, err := s.Front.Get(key); err != nil || ok {
		return val, ok, err
	}
	val, ok, err := s.Back.Get(key)
	if err != nil || !ok {
		return nil, false, err
	}
	// The fill is an optimization: the bytes are already in hand, so a
	// front-store fault must not turn this hit into a miss.
	_ = s.Front.Put(key, val)
	return val, true, nil
}

// Put implements Store.
func (s *TieredStore) Put(key string, val []byte) error {
	if err := s.Back.Put(key, val); err != nil {
		return err
	}
	return s.Front.Put(key, val)
}

// Len implements Store. It reports the durable layer's count.
func (s *TieredStore) Len() int { return s.Back.Len() }

// Close implements Store.
func (s *TieredStore) Close() error {
	ferr := s.Front.Close()
	berr := s.Back.Close()
	if ferr != nil {
		return ferr
	}
	return berr
}
