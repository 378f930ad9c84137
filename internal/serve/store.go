package serve

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// storeExt is the suffix of every persisted entry file.
const storeExt = ".json.gz"

// entryEnvelope is the persisted (and peer-forwarded) form of an Entry:
// the canonical cache key plus both pre-rendered encodings. Text is
// base64-encoded by encoding/json's []byte rule; JSON is spliced verbatim.
type entryEnvelope struct {
	Key  string          `json:"key"`
	Text []byte          `json:"text"`
	JSON json.RawMessage `json:"json"`
}

// Store is a persistent, content-addressed report store: one gzip-compressed
// JSON envelope per entry, in a flat directory, named by the FNV-1a hash of
// the entry's cache key. Writes go through a temp file in the same
// directory and an atomic rename, so a crash mid-write leaves either the
// old entry or none — never a torn file — and a concurrent reader always
// sees a complete envelope.
//
// The store is the serving tier's L2: it survives restarts (warm start
// reloads it into the in-memory cache) and makes re-simulation unnecessary
// for any report the daemon has ever generated. Entries are immutable —
// the same key always holds byte-identical bodies, by the determinism
// contract — so there is no invalidation protocol.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) the store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: open store %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// path returns the entry file for key: content-addressed by the FNV-1a
// 64-bit hash of the cache key, so filenames never contain key characters
// (the key embeds '|' and '=') and lookups are O(1) stats.
func (st *Store) path(key string) string {
	h := fnv.New64a()
	h.Write([]byte(key)) //lint:allow errpath hash/fnv's Write is documented to never return an error
	return filepath.Join(st.dir, fmt.Sprintf("%016x%s", h.Sum64(), storeExt))
}

// Put persists the entry atomically: gzip-compressed envelope to a temp
// file in the store directory, fsync, then rename over the final name.
func (st *Store) Put(e *Entry) error {
	final := st.path(e.Key)
	tmp, err := os.CreateTemp(st.dir, filepath.Base(final)+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: store temp for %s: %w", e.Key, err)
	}
	defer os.Remove(tmp.Name()) //lint:allow errpath best-effort cleanup; after a successful rename the temp no longer exists
	if err := encodeEntry(tmp, e); err != nil {
		tmp.Close() //lint:allow errpath the encode error is the failure being reported
		return fmt.Errorf("serve: store write %s: %w", e.Key, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close() //lint:allow errpath the sync error is the failure being reported
		return fmt.Errorf("serve: store sync %s: %w", e.Key, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("serve: store close %s: %w", e.Key, err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("serve: store rename %s: %w", e.Key, err)
	}
	return nil
}

// Get returns the stored entry for key, reporting whether it was present.
// A missing entry is (nil, false, nil); a present-but-unreadable entry is
// an error so the caller can count the degradation and regenerate.
func (st *Store) Get(key string) (*Entry, bool, error) {
	e, err := readEntryFile(st.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	if e.Key != key {
		// An FNV-64 filename collision between two live keys; treat the
		// slot as owned by the other key rather than serving wrong bytes.
		return nil, false, nil
	}
	return e, true, nil
}

// Load streams every readable entry in the store to fn, in unspecified
// order (warm-start consumers put each into the LRU cache, which is
// order-insensitive for correctness). Unreadable files are skipped and
// counted in the returned bad tally — a half-written temp file or a
// corrupted entry must not prevent the daemon from booting.
func (st *Store) Load(fn func(*Entry)) (loaded, bad int, err error) {
	names, err := filepath.Glob(filepath.Join(st.dir, "*"+storeExt))
	if err != nil {
		return 0, 0, fmt.Errorf("serve: store scan %s: %w", st.dir, err)
	}
	for _, name := range names {
		e, err := readEntryFile(name)
		if err != nil {
			bad++
			continue
		}
		fn(e)
		loaded++
	}
	return loaded, bad, nil
}

// Len returns the number of persisted entries (files, including any
// unreadable ones).
func (st *Store) Len() int {
	names, err := filepath.Glob(filepath.Join(st.dir, "*"+storeExt))
	if err != nil {
		return 0
	}
	return len(names)
}

// encodeEntry writes e's envelope, gzip-compressed, to w.
func encodeEntry(w io.Writer, e *Entry) error {
	env, err := json.Marshal(entryEnvelope{Key: e.Key, Text: e.Text, JSON: e.JSON})
	if err != nil {
		return err
	}
	gz := gzip.NewWriter(w)
	if _, err := gz.Write(env); err != nil {
		return err
	}
	return gz.Close()
}

// readEntryFile decodes one persisted envelope.
func readEntryFile(name string) (*Entry, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	e, err := decodeEntry(f)
	if err != nil {
		return nil, fmt.Errorf("serve: store %s: %w", name, err)
	}
	return e, nil
}

// decodeEntry reads one gzip-compressed envelope. It is the only reader of
// on-disk bytes, so it rejects anything without a cache key.
func decodeEntry(r io.Reader) (*Entry, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("gunzip: %w", err)
	}
	defer gz.Close()
	var env entryEnvelope
	if err := json.NewDecoder(gz).Decode(&env); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if !strings.Contains(env.Key, "|") {
		return nil, errors.New("decode: envelope has no cache key")
	}
	return &Entry{Key: env.Key, Text: env.Text, JSON: env.JSON}, nil
}
