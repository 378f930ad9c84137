package serve

import (
	"bytes"
	"compress/gzip"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzStoreEntry feeds arbitrary bytes to the store's envelope decoder,
// the only reader of on-disk bytes (a warm start reads every file in the
// store directory). The decoder must never panic; an entry it accepts
// must carry a cache key with a '|'; and what Put writes must read back
// exactly: the seed envelope decodes to the entry Put was given, and
// re-encoding any accepted entry is a fixed point of decode.
func FuzzStoreEntry(f *testing.F) {
	want := &Entry{Key: "t6|seed=7|quick=true", Text: []byte("report\n"), JSON: []byte(`{"id":"t6"}`)}
	st, err := OpenStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Put(want); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(st.path(want.Key))
	if err != nil {
		f.Fatal(err)
	}
	got, err := decodeEntry(bytes.NewReader(written))
	if err != nil || !reflect.DeepEqual(got, want) {
		f.Fatalf("Put-written entry read back as %+v, %v; want %+v", got, err, want)
	}

	var noKey bytes.Buffer
	if err := encodeEntry(&noKey, &Entry{Key: "t6", Text: []byte("x"), JSON: []byte(`{}`)}); err != nil {
		f.Fatal(err)
	}
	var notJSON bytes.Buffer
	gz := gzip.NewWriter(&notJSON)
	gz.Write([]byte("not json at all"))
	gz.Close()

	f.Add(written)
	f.Add(written[:len(written)/2]) // truncated gzip
	f.Add(noKey.Bytes())
	f.Add(notJSON.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEntry(bytes.NewReader(data))
		if err != nil {
			return // rejected input: any error is fine, panics are not
		}
		if !strings.Contains(e.Key, "|") {
			t.Fatalf("accepted entry with key %q", e.Key)
		}
		var once bytes.Buffer
		if err := encodeEntry(&once, e); err != nil {
			t.Fatalf("accepted entry does not re-encode: %v", err)
		}
		e1, err := decodeEntry(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v", err)
		}
		var twice bytes.Buffer
		if err := encodeEntry(&twice, e1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("envelope is not a fixed point of decode:\n%q\n%q", once.Bytes(), twice.Bytes())
		}
	})
}
